"""The four benchmark workloads.

Each workload's `setup(d2, seed, smoke, workdir)` generates its inputs from
the seed, builds the group models and complexes its jobs start from, and
returns the job list. A job's `run` calls into d2kit through module
attributes looked up at call time, so the traced run sees its wrappers; its
`check` validates the output outside the timed region and returns "ok",
"unresolved" (an honest unknown/incomplete where a definite answer was
expected) or "expected-incomplete" (a run meant to hit its limit), or raises.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from oracles import (
    check_analysis,
    check_certificate,
    check_coset_table,
    check_same_boundaries,
    check_same_complex,
    expect,
)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    sizes: dict = field(default_factory=dict)


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _rotate(letters, k):
    return letters[k:] + letters[:k]


# --- corpus-report ---------------------------------------------------------

# Explicit flags: 600 is what `d2kit report` spends today through the shared
# --budget default, and pinning it keeps the job set identical after that
# default is fixed.
ANALYZE_FLAGS = ("--format", "json", "--budget", "600", "--max-cosets", "20000")

SMOKE_CORPUS = ("z2",)


def corpus_variant(d2, P, rng):
    """.fp text of a Tietze-equivalent presentation: each relator cyclically
    rotated and inverted at random, and the relator order shuffled."""
    rels = []
    for r in P.relators:
        core, _ = r.cyclically_reduced()
        if core:
            core = d2.Word(_rotate(core.letters, rng.randrange(len(core))))
            if rng.random() < 0.5:
                core = core.inverse()
        rels.append(core)
    rng.shuffle(rels)
    return d2.serialize_presentation(d2.Presentation(P.generators, rels))


def setup_corpus_report(d2, seed, smoke, workdir):
    rng = _rng("corpus-report", seed)
    corpus = Path("corpus")
    files = sorted(corpus.glob("*.fp"))
    if smoke:
        files = [f for f in files if f.stem in SMOKE_CORPUS]
    if not files:
        raise FileNotFoundError("no corpus/*.fp files")
    jobs = []
    for path in files:
        expected = json.loads(path.with_suffix("").with_suffix(
            ".expected.json").read_text(encoding="utf-8"))
        P = d2.parse_presentation(path.read_text(encoding="utf-8"))
        variant = workdir / f"{path.stem}.variant.fp"
        variant.write_text(corpus_variant(d2, P, rng), encoding="utf-8")
        sizes = {"generators": P.num_generators, "relators": P.num_relators,
                 "relator_letters": sum(len(r) for r in P.relators)}
        jobs.append(_analyze_job(d2, path.stem, path, expected, True, sizes))
        jobs.append(_analyze_job(d2, f"{path.stem}.variant", variant,
                                 expected, False, sizes))
    return jobs


def _analyze_job(d2, name, path, expected, exact, sizes):
    argv = ["analyze", str(path), *ANALYZE_FLAGS]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = d2.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        expect(code == 0, f"exit code {code}")
        return check_analysis(json.loads(text), expected, exact)

    return Job(name, run, check, sizes)


# --- certify-pairs ---------------------------------------------------------

CERTIFY_GROUPS = {
    "q8": "gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n",
    "s3": "gens: a b\nrels: a^2 b^2 (a b)^3\n",
    "d5": "gens: a b\nrels: a^2 b^2 (a b)^5\n",
}
SMOKE_CERTIFY = ("s3",)


def setup_certify_pairs(d2, seed, smoke, workdir):
    """F = presentation complex wedge one 2-sphere; G = presentation complex
    with one relator listed twice. Both come from the same presentation
    with seeded relator rotations, and the seed picks the duplicated relator.
    (Rotating only G's relators left Q8 `unknown` at budget 600 for 24 of
    its 128 rotation choices; see README.md.)"""
    rng = _rng("certify-pairs", seed)
    jobs = []
    for name, text in CERTIFY_GROUPS.items():
        P = d2.parse_presentation(text)
        rels = tuple(d2.Word(_rotate(r.letters, rng.randrange(len(r))))
                     for r in P.relators)
        dup = rng.randrange(len(rels))
        if smoke and name not in SMOKE_CERTIFY:
            continue
        model = d2.group_model(P, 1000)
        rotated = d2.Presentation(P.generators, rels)
        F = d2.stabilize_wedge(d2.presentation_complex(rotated, model), 1)
        G = d2.presentation_complex(
            d2.Presentation(P.generators, rels + (rels[dup],)), model)
        n = model.order
        sizes = {"order": n, "ranks": list(G.ranks), "duplicated": dup,
                 "d2_expanded": [G.ranks[1] * n, G.ranks[2] * n]}
        jobs.append(_certify_job(d2, name, F, G, sizes))
    return jobs


def _certify_job(d2, name, F, G, sizes):
    def run():
        return d2.chains.certify_chain_equivalence(F, G)

    def check(out):
        if out.kind == "unknown":
            return "unresolved"
        expect(out.kind == "certificate",
               f"{out.kind}: {out.reason} (the pair is equivalent by construction)")
        check_certificate(d2, out.certificate, F, G)
        return "ok"

    return Job(name, run, check, sizes)


# --- exact-complex ---------------------------------------------------------

# Canonical relator order and rotation: one seeded rotation of the PSL(2,7)
# relators made validate_complex take 577 s (see README.md), so the seed
# does not touch these inputs.
EXACT_GROUPS = {
    "a5": "gens: a b\nrels: a^2 b^3 (a b)^5\n",
    "psl27": "gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^4\n",
}
SMOKE_EXACT = ("a5",)


def setup_exact_complex(d2, seed, smoke, workdir):
    jobs = []
    for name, text in EXACT_GROUPS.items():
        if smoke and name not in SMOKE_EXACT:
            continue
        P = d2.parse_presentation(text)
        model = d2.group_model(P, 20000)
        n = model.order
        d, k = P.num_generators, P.num_relators
        sizes = {"order": n, "ranks": [1, d, k],
                 "d2_expanded": [d * n, k * n], "d3_expanded": [(k + 1) * n, n]}
        jobs.append(_exact_job(d2, name, P, model, sizes))
    return jobs


def _exact_job(d2, name, P, model, sizes):
    def run():
        ch, gr = d2.chains, d2.groupring
        F = ch.presentation_complex(P, model)
        rep = ch.validate_complex(F)
        W = ch.stabilize_wedge(F, 1)
        f2 = W.ranks[2]
        one, zero = gr.GroupRingElement.one(model), gr.GroupRingElement.zero(model)
        d3 = gr.GroupRingMatrix(model, f2, 1,
                                [one if i == f2 - 1 else zero for i in range(f2)])
        X = ch.attach_three_cells(W, d3)
        split = ch.split_test(X)
        Q = ch.quotient_by_split_summand(X, split) if split.splits else None
        text = d2.acx.dumps(X)
        Y = d2.acx.loads(text)
        return F, rep, X, split, Q, Y

    def check(result):
        F, rep, X, split, Q, Y = result
        expect(rep.ok, "validate_complex: " + "; ".join(rep.failures))
        expect(rep.d2_rank_q == model.order + 1,
               f"rank of d2 over Q is {rep.d2_rank_q}, expected |G| + 1 = "
               f"{model.order + 1}")
        expect(split.splits, "the attached 3-cell does not split")
        check_same_boundaries(Q.boundaries, F.boundaries, "quotient")
        check_same_complex(Y, X, "acx round trip")
        return "ok"

    return Job(name, run, check, sizes)


# --- coset-large -----------------------------------------------------------

# <a,b | a^2, b^3, (ab)^7, [a,b]^m>, relators exactly as given: shuffling
# their order or inverting some left HLT on the m = 8 group `incomplete` at
# 300k cosets for half the seeds tried (see README.md).
def _coset_text(m):
    return f"gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^{m}\n"


COSET_COMPLETE = (8, 10752)        # (m, order)
COSET_MAX_COSETS = 300000          # room for HLT's excess cosets on m = 8
COSET_LIMIT_HIT = 9                # m whose enumeration must hit the limit
COSET_LIMIT_BAND = (195000, 205000)
SMOKE_COSET = ((4, 168), 2000)     # (m, order) and the limit
# Live cosets left when the limit is hit on m = 9, as a share of the limit:
# HLT keeps 0.80 and Felsch 0.999 of it at 195k-205k (0.93 and 1.0 at 2000).
# A run that gives up without filling its table falls below this floor.
LIMIT_LIVE_SHARE = 0.5


def setup_coset_large(d2, seed, smoke, workdir):
    rng = _rng("coset-large", seed)
    limit = rng.randint(*COSET_LIMIT_BAND)
    (m, order) = COSET_COMPLETE
    if smoke:
        (m, order), limit = SMOKE_COSET
    complete = d2.parse_presentation(_coset_text(m))
    hit = d2.parse_presentation(_coset_text(COSET_LIMIT_HIT))
    tables = {}
    jobs = []
    for strategy in ("hlt", "felsch"):
        jobs.append(_coset_complete_job(d2, complete, order, strategy, tables))
    for strategy in ("hlt", "felsch"):
        jobs.append(_coset_limit_job(d2, hit, limit, strategy))
    return jobs


def _coset_complete_job(d2, P, order, strategy, tables):
    relators = [r.letters for r in P.relators]

    def run():
        return d2.coset.todd_coxeter(P, COSET_MAX_COSETS, strategy)

    def check(tc):
        if not tc.complete:
            return "unresolved"
        expect(tc.num_cosets == order, f"order {tc.num_cosets}, expected {order}")
        check_coset_table(tc.table, relators, P.num_generators, order)
        tables[strategy] = tc.table
        if strategy != "hlt" and "hlt" in tables:
            expect(tc.table == tables["hlt"], f"{strategy} and hlt tables differ")
        return "ok"

    return Job(f"complete.{strategy}", run, check,
               {"order": order, "max_cosets": COSET_MAX_COSETS})


def _coset_limit_job(d2, P, limit, strategy):
    def run():
        return d2.coset.todd_coxeter(P, limit, strategy)

    def check(tc):
        expect(not tc.complete, f"completed with {tc.num_cosets} cosets under "
                                f"limit {limit}; expected to hit the limit")
        expect(limit * LIMIT_LIVE_SHARE <= tc.num_cosets <= limit,
               f"{tc.num_cosets} live cosets under limit {limit}; an "
               f"enumeration that filled its table keeps at least "
               f"{LIMIT_LIVE_SHARE:.0%} of it live")
        return "expected-incomplete"

    return Job(f"limit.{strategy}", run, check, {"max_cosets": limit})


WORKLOADS = {
    "corpus-report": setup_corpus_report,
    "certify-pairs": setup_certify_pairs,
    "exact-complex": setup_exact_complex,
    "coset-large": setup_coset_large,
}
