"""Span tracing of d2kit from outside the package.

`install` replaces every public function of the traced d2kit modules, and a
few methods on their classes, with a wrapper that records a span. A span is
(name, start, end, parent index, job id). Spans stay in memory until the run
ends and are only recorded while a job is active, so set-up and output checks
leave no spans.

Modules bind imported names at import time (`chains.solve_integer_system`
is a binding separate from `intlinalg.solve_integer_system`), so every
attribute of every loaded `d2kit.*` module that is bound to an original
function is rebound to its wrapper. Functions imported inside a function body
resolve at call time and so pick up the wrapper as well.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Modules under src/d2kit/ that get spans. `words` is left out: its functions
# run once per letter and are tiny, so wrapping them would mostly measure the
# wrapper; their time shows up as self time of tietze and presentations.
LAYERS = ("cli", "invariants", "tietze", "presentations", "coset",
          "intlinalg", "groupring", "chains", "acx")

# Methods wrapped on their class: (layer, class, method).
METHODS = (
    ("groupring", "GroupRingMatrix", "compose"),
    ("chains", "EquivalenceCertificate", "verify"),
)

# Public helpers called once per matrix entry or per reduction step. A span
# around each would cost more than the work it measures; their time stays in
# the caller's self time.
SKIP = {"intlinalg.xgcd", "presentations.deficiency"}


def _note_bits(c, vectors):
    """Raise the max_entry_bits counter to the largest entry of `vectors`."""
    bits = max((max(max(v).bit_length(), min(v).bit_length())
                for v in vectors if v), default=0)
    c["intlinalg.max_entry_bits"] = max(c["intlinalg.max_entry_bits"], bits)


def _observe_column_echelon(c, args, kwargs, result):
    A = args[0]
    c["intlinalg.column_echelon.cells"] += A.rows * A.cols
    _note_bits(c, (m.data for m in result))


def _observe_solve(c, args, kwargs, result):
    if result is None:
        c["intlinalg.solve_integer_system.infeasible"] += 1
    else:
        _note_bits(c, (result.data,))


def _observe_lattice_hnf(c, args, kwargs, result):
    c["intlinalg.lattice_hnf.vectors"] += len(args[0])
    _note_bits(c, result)


def _observe_kernel_basis(c, args, kwargs, result):
    _note_bits(c, result)


def _observe_snf(c, args, kwargs, result):
    _note_bits(c, (result.U.data, result.D.data, result.V.data))


def _observe_expand(c, args, kwargs, result):
    c["groupring.regular_rep_expand.cells"] += result.rows * result.cols


def _observe_solve_gr(c, args, kwargs, result):
    if result is None:
        c["groupring.solve_gr_system.infeasible"] += 1


def _observe_certify(c, args, kwargs, result):
    c["chains.certify_chain_equivalence.budget_units"] += result.solver_calls
    if result.kind == "certificate":
        c["chains.certify_chain_equivalence.certificates"] += 1


def _observe_todd_coxeter(c, args, kwargs, result):
    c["coset.todd_coxeter.cosets"] += result.num_cosets
    if not result.complete:
        c["coset.todd_coxeter.incomplete"] += 1


def _observe_search(c, args, kwargs, result):
    c["tietze.deficiency_search.visited"] += result.visited


def _observe_dumps(c, args, kwargs, result):
    c["acx.bytes"] += len(result)


def _observe_loads(c, args, kwargs, result):
    c["acx.bytes"] += len(args[0])


# Counters read at the same boundaries as the spans: span name -> observer.
OBSERVERS = {
    "intlinalg.column_echelon": _observe_column_echelon,
    "intlinalg.solve_integer_system": _observe_solve,
    "intlinalg.lattice_hnf": _observe_lattice_hnf,
    "intlinalg.kernel_basis": _observe_kernel_basis,
    "intlinalg.smith_normal_form": _observe_snf,
    "groupring.regular_rep_expand": _observe_expand,
    "groupring.solve_gr_system": _observe_solve_gr,
    "chains.certify_chain_equivalence": _observe_certify,
    "coset.todd_coxeter": _observe_todd_coxeter,
    "tietze.deficiency_search": _observe_search,
    "acx.dumps": _observe_dumps,
    "acx.loads": _observe_loads,
}


def _todd_coxeter_name(args, kwargs):
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "hlt")
    return f"coset.todd_coxeter.{strategy}"


# Span names that depend on the arguments.
SPAN_NAMES = {"coset.todd_coxeter": _todd_coxeter_name}


class Tracer:
    """Collects spans and counters for the jobs of one run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, job id)
        self.counters = defaultdict(float)
        self._stack = []
        self._job = None

    def begin_job(self, job_id):
        self._job = job_id

    def end_job(self):
        self._job = None

    def wrap(self, qualname, fn):
        observe = OBSERVERS.get(qualname)
        namer = SPAN_NAMES.get(qualname)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            job = self._job
            if job is None:
                return fn(*args, **kwargs)
            name = namer(args, kwargs) if namer else qualname
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self.counters, args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, job)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer):
    """Wrap the traced layers of the loaded d2kit; returns a function that
    restores every original binding."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"d2kit.{layer}"]
        for attr, obj in vars(mod).items():
            qualname = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or qualname in SKIP):
                continue
            wrappers[obj] = tracer.wrap(qualname, obj)
    undo = []
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"d2kit.{layer}"], cls_name)
        fn = vars(cls)[meth]
        wrapped = tracer.wrap(f"{layer}.{cls_name}.{meth}", fn)
        for attr, obj in list(vars(cls).items()):
            if obj is fn:
                setattr(cls, attr, wrapped)
                undo.append((cls, attr, fn))
    for name, mod in list(sys.modules.items()):
        if name != "d2kit" and not name.startswith("d2kit."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                undo.append((mod, attr, obj))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
    return uninstall


def self_times(spans):
    """Per span name: (calls, self seconds, inclusive seconds), plus the
    inclusive seconds of the root spans. Self time is a span's duration minus
    the durations of its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    roots = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child[i]
        incl[name] += dur
        if parent < 0:
            roots += dur
    return calls, self_s, incl, roots
