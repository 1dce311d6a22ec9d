"""Command-line surface: deterministic, reproducible pipelines over .fp
presentations and .acx complexes.

Commands: analyze, order, normal-gen, chain, wedge, split, quotient,
certify-equiv, report, check. Exit codes: 0 success (including honest
"unknown" outcomes), 1 parse/model errors, 2 expectation mismatch in
--check mode. Diagnostics go to stderr; reports to stdout. Output is
byte-identical across runs for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import acx
from .chains import (
    DEFAULT_CERTIFY_BUDGET,
    attach_three_cells,
    certify_chain_equivalence,
    euler_characteristic,
    presentation_complex,
    quotient_by_split_summand,
    split_test,
    stabilize_wedge,
    validate_complex,
)
from .coset import DEFAULT_MAX_COSETS, find_normal_generator, group_model, todd_coxeter
from .groupring import GroupRingMatrix
from .invariants import DEFAULT_SEARCH_BUDGET, analyze_presentation
from .presentations import ParseError, parse_presentation


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _read_presentation(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}")
    try:
        return parse_presentation(text)
    except ParseError as e:
        raise CliError(f"{path}: {e}")


def _read_complex(path):
    try:
        F = acx.read_acx(path)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}")
    except (acx.AcxError, ValueError) as e:
        raise CliError(f"{path}: {e}")
    rep = validate_complex(F, check_exactness=False)
    if not rep.chain_ok:
        raise CliError(f"{path}: corrupted complex: " + "; ".join(rep.failures))
    return F


def _require(path, F, degree, what, finite=True):
    """Raise CliError unless F has top degree `degree` and, if `finite`, a
    finite group model; `what` names the command in the message."""
    if F.top_degree != degree:
        raise CliError(f"{path}: {what} needs a top-degree-{degree} complex")
    if finite and not F.finite_mode:
        raise CliError(f"{path}: {what} requires finite mode")


def _emit(pairs, fmt, out=None):
    """pairs: ordered (key, value); lists render as YAML-like blocks."""
    if out is None:
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
    model = None
    if args.finite:
        try:
            model = group_model(P, args.max_cosets)
        except Exception as e:
            raise CliError(f"{args.file}: cannot build finite model: {e}")
    F = presentation_complex(P, model)
    acx.write_acx(F, args.out)
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
        raise CliError("--attach requires a finite-mode complex")
    f0, f1, f2 = F.ranks
    ranks = (f0, f1, f2 + args.n) + ((args.n,) if args.attach else ())
    try:
        acx.check_ranks(ranks, F.model.order if F.finite_mode else 1)
    except acx.AcxError as e:
        raise CliError(f"wedge: {e}")
    W = stabilize_wedge(F, args.n)
    if args.attach:
        d3 = GroupRingMatrix.zeros(F.model, f2, args.n).vstack(
            GroupRingMatrix.identity(F.model, args.n))
        W = attach_three_cells(W, d3)
    out = args.out or args.acx
    acx.write_acx(W, out)
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
    Q = quotient_by_split_summand(F, rep)
    out = args.out or args.acx
    acx.write_acx(Q, out)
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
        pairs.append(("verified", out.certificate.verify(F, G)))
    _emit(pairs, args.format)
    return 0


_REPORT_COLUMNS = ["file", "order", "h1", "perfect", "def_found",
                   "mu2_lower", "mu2_upper", "tight", "d2n_upper"]


def cmd_report(args):
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
    sidecar = args.sidecar or str(directory / "report.jsonl")
    with open(sidecar, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
    return 0


def cmd_check(args):
    args.check = args.expected if args.expected else True
    return cmd_analyze(args)


def _default_corpus():
    return os.environ.get("D2KIT_CORPUS", "corpus")


def _common_flags(budget):
    """Parent parser of the shared flags. Subparsers share its argument
    objects, so a subcommand with another --budget default needs its own."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    common.add_argument("--budget", type=int, default=budget)
    common.add_argument("--format", choices=("text", "json"), default="text")
    return common


def build_parser():
    parser = argparse.ArgumentParser(
        prog="d2kit",
        description="exact invariants of finitely presented groups and "
                    "algebraic 2-complexes")
    common = _common_flags(DEFAULT_SEARCH_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full invariant report for a .fp file")
    p.add_argument("file")
    p.add_argument("--check", nargs="?", const=True, default=None,
                   metavar="EXPECTED.json",
                   help="compare against expectations (default sidecar)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("order", parents=[common],
                       help="group order by coset enumeration")
    p.add_argument("file")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("normal-gen", parents=[common],
                       help="search for a single normal generator")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=cmd_normal_gen)

    p = sub.add_parser("chain", parents=[common],
                       help="build the presentation complex as .acx")
    p.add_argument("file")
    p.add_argument("--finite", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("wedge", parents=[common],
                       help="wedge 2-spheres onto a complex (optionally "
                            "attach matching 3-cells)")
    p.add_argument("acx")
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.add_argument("--attach", action="store_true")
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("split", parents=[common],
                       help="test whether the top boundary splits")
    p.add_argument("acx")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("quotient", parents=[common],
                       help="collapse a split top boundary")
    p.add_argument("acx")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("certify-equiv",
                       parents=[_common_flags(DEFAULT_CERTIFY_BUDGET)],
                       help="certify chain-homotopy equivalence")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_certify_equiv)

    p = sub.add_parser("report", parents=[common],
                       help="one-row-per-file table over a corpus directory")
    p.add_argument("dir", nargs="?", default=_default_corpus())
    p.add_argument("--sidecar", help="machine-readable JSON-lines path "
                                     "(default DIR/report.jsonl)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", parents=[common],
                       help="analyze and compare against expectations")
    p.add_argument("file")
    p.add_argument("expected", nargs="?", default=None)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("max_cosets", "budget"):
            if getattr(args, flag) < 1:
                raise CliError(f"--{flag.replace('_', '-')} must be at least 1")
        return args.func(args)
    except CliError as e:
        print(f"d2kit: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
