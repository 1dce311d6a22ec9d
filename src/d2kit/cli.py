"""Command-line surface: deterministic, reproducible pipelines over .fp
presentations and .acx complexes.

Commands: analyze, order, normal-gen, chain, wedge, split, quotient,
certify-equiv, report, check, each with only the flags it reads. Exit
codes: 0 success (including honest "unknown" outcomes), 1 parse/model
errors, 2 expectation mismatch in --check mode. Diagnostics go to stderr;
reports to stdout. Output is byte-identical across runs for identical
inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import acx
from .chains import (
    DEFAULT_CERTIFY_BUDGET,
    SummandBasisNotFound,
    attach_three_cells,
    certify_chain_equivalence,
    euler_characteristic,
    presentation_complex,
    quotient_by_split_summand,
    split_test,
    stabilize_wedge,
    validate_complex,
)
from .coset import (DEFAULT_MAX_COSETS, NotFinitelyEnumerated, find_normal_generator,
                    table_model, todd_coxeter)
from .groupring import GroupRingMatrix
from .intlinalg import CertificateError
from .invariants import DEFAULT_SEARCH_BUDGET, analyze_presentation
from .presentations import parse_presentation


class CliError(Exception):
    pass


def _read(path, parse):
    """parse(text of the UTF-8 file at path); a file that cannot be read,
    decoded or parsed (`ParseError` and `AcxError` are `ValueError`s)
    raises CliError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}")
    except ValueError as e:
        raise CliError(f"{path}: {e}")


def _read_presentation(path):
    return _read(path, parse_presentation)


def _read_complex(path):
    F = _read(path, acx.loads)
    rep = validate_complex(F)
    if not rep.ok:
        raise CliError(f"{path}: not an algebraic complex: " + "; ".join(rep.failures))
    return F


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror}")


def _require(path, F, degree, what, finite=True):
    """Raise CliError unless F has top degree `degree` and, if `finite`, a
    finite group model; `what` names the command in the message."""
    if F.top_degree != degree:
        raise CliError(f"{path}: {what} needs a top-degree-{degree} complex")
    if finite and not F.finite_mode:
        raise CliError(f"{path}: {what} requires finite mode")


def _emit(pairs, fmt):
    """pairs: ordered (key, value); lists render as YAML-like blocks."""
    out = sys.stdout
    if fmt == "json":
        out.write(json.dumps(dict(pairs), sort_keys=True, indent=2,
                             default=str) + "\n")
        return
    for key, value in pairs:
        if isinstance(value, (list, tuple)):
            out.write(f"{key}:\n")
            for item in value:
                out.write(f"  - {item}\n")
        elif isinstance(value, bool):
            out.write(f"{key}: {'true' if value else 'false'}\n")
        else:
            out.write(f"{key}: {value}\n")


def _analysis(P, path, budget, max_cosets):
    a = analyze_presentation(P, search_budget=budget, max_cosets=max_cosets)
    sandwich = a.sandwich
    notes = [f"mu2 lower: {sandwich.lower_provenance}",
             f"mu2 upper: {sandwich.upper_provenance}"]
    notes.extend(a.swan.notes)
    if sandwich.tight:
        notes.append(f"tight: def(G) = {1 - sandwich.lower} and "
                     f"mu2(G) = {sandwich.lower} exactly")
    return {
        "file": str(path),
        "order": a.order,
        "h1": str(a.h1),
        "perfect": a.perfect,
        "def_given": a.def_given,
        "def_found": 1 - sandwich.upper,
        "mu2_lower": sandwich.lower,
        "mu2_upper": sandwich.upper,
        "tight": sandwich.tight,
        "d2n_upper": a.d2n.n_upper if a.d2n is not None else None,
        "notes": notes,
    }


_ANALYZE_FIELDS = ["file", "order", "h1", "perfect", "def_given", "def_found",
                   "mu2_lower", "mu2_upper", "tight", "d2n_upper", "notes"]


def _shown(key, value):
    """A field value as reported: an absent (None) order is `unknown`, any
    other absent value `n/a`."""
    if value is None:
        return "unknown" if key == "order" else "n/a"
    return value


def _analysis_pairs(a):
    return [(key, _shown(key, a[key])) for key in _ANALYZE_FIELDS]


def _read_expectations(expected_path):
    try:
        expected = json.loads(Path(expected_path).read_text(encoding="utf-8"))
    except OSError as e:
        raise CliError(f"cannot read expectations {expected_path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise CliError(f"{expected_path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"{expected_path}: bad JSON: {e}")
    if not isinstance(expected, dict):
        raise CliError(f"{expected_path}: expectations must be a JSON object, "
                       f"got {type(expected).__name__}")
    return expected


def _check_expectations(a, expected):
    mismatches = []
    for key, want in expected.items():
        if key not in a:
            mismatches.append(f"{key}: no such field")
            continue
        got = a[key]
        if got != want:
            mismatches.append(f"{key}: expected {want!r}, got {got!r}")
    return mismatches


def cmd_analyze(args):
    P = _read_presentation(args.file)
    expected = None
    if args.check is not None:
        path = args.check
        if path is True:
            path = str(Path(args.file).with_suffix("")) + ".expected.json"
        expected = _read_expectations(path)
    a = _analysis(P, args.file, args.budget, args.max_cosets)
    _emit(_analysis_pairs(a), args.format)
    if expected is not None:
        mismatches = _check_expectations(a, expected)
        if mismatches:
            for m in mismatches:
                print(f"check failed: {m}", file=sys.stderr)
            return 2
    return 0


def cmd_order(args):
    P = _read_presentation(args.file)
    tc = todd_coxeter(P, args.max_cosets)
    if tc.complete:
        pairs = [("file", args.file), ("status", "complete"),
                 ("order", tc.num_cosets)]
    else:
        pairs = [("file", args.file), ("status", "unknown"),
                 ("cosets_used", tc.num_cosets),
                 ("note", f"no conclusion within {args.max_cosets} cosets")]
    _emit(pairs, args.format)
    return 0


def cmd_normal_gen(args):
    P = _read_presentation(args.file)
    res = find_normal_generator(P, args.max_len, args.max_cosets)
    pairs = [("file", args.file)]
    if res.found:
        pairs += [("status", "found"), ("word", P.format_word(res.word)),
                  ("tested", res.tested)]
    else:
        pairs += [("status", "not-found-within-bounds"), ("tested", res.tested)]
    if res.warnings:
        pairs.append(("warnings", list(res.warnings)))
    _emit(pairs, args.format)
    return 0


def cmd_chain(args):
    P = _read_presentation(args.file)
    try:
        # one enumeration, whose order is checked before the |G|^2 table is built
        if args.finite:
            tc = todd_coxeter(P, args.max_cosets)
            if not tc.complete:
                raise NotFinitelyEnumerated(
                    f"enumeration incomplete after {args.max_cosets} cosets")
        acx.check_ranks((1, P.num_generators, P.num_relators),
                        tc.num_cosets if args.finite else 1)
        model = table_model(P, tc.table) if args.finite else None
    except (NotFinitelyEnumerated, CertificateError) as e:
        raise CliError(f"{args.file}: cannot build finite model: {e}")
    except acx.AcxError as e:
        raise CliError(f"chain: {e}")
    F = presentation_complex(P, model)
    _write(args.out, acx.dumps(F))
    _emit([("out", args.out), ("mode", "finite" if model else "symbolic"),
           ("ranks", " ".join(str(r) for r in F.ranks)),
           ("euler_characteristic", euler_characteristic(F))], args.format)
    return 0


def cmd_wedge(args):
    if args.n < 0:
        raise CliError("wedge: the number of 2-spheres must be nonnegative, "
                       f"got {args.n}")
    F = _read_complex(args.acx)
    _require(args.acx, F, 2, "wedge", finite=False)
    if args.attach and not F.finite_mode:
        raise CliError(f"{args.acx}: --attach requires a finite-mode complex")
    f0, f1, f2 = F.ranks
    ranks = (f0, f1, f2 + args.n) + ((args.n,) if args.attach else ())
    try:
        acx.check_ranks(ranks, F.boundary(2).model.order)
    except acx.AcxError as e:
        raise CliError(f"wedge: {e}")
    W = stabilize_wedge(F, args.n)
    if args.attach:
        d3 = GroupRingMatrix.zeros(F.model, f2, args.n).vstack(
            GroupRingMatrix.identity(F.model, args.n))
        W = attach_three_cells(W, d3)
    out = args.out or args.acx
    _write(out, acx.dumps(W))
    _emit([("out", out), ("wedged", args.n), ("attached", args.attach),
           ("ranks", " ".join(str(r) for r in W.ranks)),
           ("euler_characteristic", euler_characteristic(W))], args.format)
    return 0


def cmd_split(args):
    F = _read_complex(args.acx)
    _require(args.acx, F, 3, "split test")
    rep = split_test(F)
    pairs = [("file", args.acx), ("splits", rep.splits)]
    if rep.splits:
        pairs.append(("retraction_verified", True))
    else:
        cert = rep.obstruction
        kind = "rational" if cert.modulus == 0 else f"mod {cert.modulus}"
        pairs.append(("obstruction", f"integer infeasibility ({kind})"))
    _emit(pairs, args.format)
    return 0


def cmd_quotient(args):
    F = _read_complex(args.acx)
    _require(args.acx, F, 3, "quotient")
    rep = split_test(F)
    if not rep.splits:
        raise CliError(f"{args.acx}: top boundary does not split")
    try:
        Q = quotient_by_split_summand(F, rep)
    except SummandBasisNotFound as e:
        raise CliError(f"{args.acx}: {e}")
    out = args.out or args.acx
    _write(out, acx.dumps(Q))
    _emit([("out", out), ("ranks", " ".join(str(r) for r in Q.ranks)),
           ("euler_characteristic", euler_characteristic(Q))], args.format)
    return 0


def cmd_certify_equiv(args):
    F = _read_complex(args.f)
    G = _read_complex(args.g)
    # both files are read before either is checked
    for path, X in ((args.f, F), (args.g, G)):
        _require(path, X, 2, "certification")
    if not F.model.same_table(G.model):
        raise CliError(f"{args.f} and {args.g} live over different groups")
    out = certify_chain_equivalence(F, G, budget=args.budget)
    pairs = [("f", args.f), ("g", args.g), ("status", out.kind)]
    if out.reason:
        pairs.append(("reason", out.reason))
    pairs.append(("solver_calls", out.solver_calls))
    if out.certificate is not None:
        pairs.append(("verified", True))  # it verified before it was returned
    _emit(pairs, args.format)
    return 0


_REPORT_COLUMNS = ["file", "order", "h1", "perfect", "def_found",
                   "mu2_lower", "mu2_upper", "tight", "d2n_upper"]


def cmd_report(args):
    if args.dir is None:
        args.dir = os.environ.get("D2KIT_CORPUS", "corpus")
    directory = Path(args.dir)
    if not directory.is_dir():
        raise CliError(f"{args.dir}: not a directory")
    # one record per file: its _analysis dict, or {"file", "error"}
    records = []
    for path in sorted(directory.glob("*.fp")):
        try:
            records.append(_analysis(_read_presentation(path), path.name,
                                     args.budget, args.max_cosets))
        except CliError as e:
            records.append({"file": path.name, "error": str(e)})
    # the sidecar first, so that a path that cannot be written prints no table
    sidecar = args.sidecar or str(directory / "report.jsonl")
    _write(sidecar, "".join(json.dumps(rec, sort_keys=True, default=str) + "\n"
                            for rec in records))

    def cell(rec, col):
        v = _shown(col, rec.get(col, "-"))
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    widths = {c: max([len(c)] + [len(cell(r, c)) for r in records])
              for c in _REPORT_COLUMNS}
    out = sys.stdout
    out.write("  ".join(c.ljust(widths[c]) for c in _REPORT_COLUMNS).rstrip() + "\n")
    for rec in records:
        line = "  ".join(cell(rec, c).ljust(widths[c]) for c in _REPORT_COLUMNS)
        if "error" in rec:
            line = line.rstrip() + f"  # error: {rec['error']}"
        out.write(line.rstrip() + "\n")
    return 0


def cmd_check(args):
    args.check = args.expected if args.expected else True
    return cmd_analyze(args)


def _flag(name, **kwargs):
    """A parent parser of one flag: a subcommand has the flags it reads."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(name, **kwargs)
    return parent


def build_parser():
    parser = argparse.ArgumentParser(
        prog="d2kit",
        description="exact invariants of finitely presented groups and "
                    "algebraic 2-complexes")
    cosets = _flag("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    budget = _flag("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    fmt = _flag("--format", choices=("text", "json"), default="text")
    certify_budget = _flag("--budget", type=int, default=DEFAULT_CERTIFY_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[cosets, budget, fmt],
                       help="full invariant report for a .fp file")
    p.add_argument("file")
    p.add_argument("--check", nargs="?", const=True, default=None,
                   metavar="EXPECTED.json",
                   help="compare against expectations (default sidecar)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("order", parents=[cosets, fmt],
                       help="group order by coset enumeration")
    p.add_argument("file")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("normal-gen", parents=[cosets, fmt],
                       help="search for a single normal generator")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=cmd_normal_gen)

    p = sub.add_parser("chain", parents=[cosets, fmt],
                       help="build the presentation complex as .acx")
    p.add_argument("file")
    p.add_argument("--finite", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("wedge", parents=[fmt],
                       help="wedge 2-spheres onto a complex (optionally "
                            "attach matching 3-cells)")
    p.add_argument("acx")
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.add_argument("--attach", action="store_true")
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("split", parents=[fmt],
                       help="test whether the top boundary splits")
    p.add_argument("acx")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("quotient", parents=[fmt],
                       help="collapse a split top boundary")
    p.add_argument("acx")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("certify-equiv", parents=[certify_budget, fmt],
                       help="certify chain-homotopy equivalence")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_certify_equiv)

    p = sub.add_parser("report", parents=[cosets, budget],
                       help="one-row-per-file table over a corpus directory")
    # the D2KIT_CORPUS default is read when the command runs
    p.add_argument("dir", nargs="?", default=None)
    p.add_argument("--sidecar", help="machine-readable JSON-lines path "
                                     "(default DIR/report.jsonl)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", parents=[cosets, budget, fmt],
                       help="analyze and compare against expectations")
    p.add_argument("file")
    p.add_argument("expected", nargs="?", default=None)
    p.set_defaults(func=cmd_check)
    return parser


@functools.cache
def _parser():
    """The parser `main` uses, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # each limit flag the command has, with its least value, in this order
        for dest, least in (("max_cosets", 1), ("budget", 1), ("max_len", 0)):
            if dest in args and getattr(args, dest) < least:
                raise CliError(f"--{dest.replace('_', '-')} must be at least {least}")
        return args.func(args)
    except CliError as e:
        print(f"d2kit: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
