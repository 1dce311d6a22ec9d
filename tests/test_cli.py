import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from d2kit.acx import read_acx
from d2kit.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "d2kit.cli", *args],
                          capture_output=True, text=True, **kw)


def test_analyze_text(capsys):
    assert main(["analyze", str(CORPUS / "trefoil.fp")]) == 0
    out = capsys.readouterr().out
    assert "order: unknown" in out
    assert "tight: true" in out
    assert "mu2_lower: 0" in out


def test_analyze_json(capsys):
    assert main(["analyze", str(CORPUS / "z5.fp"), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 5
    assert data["h1"] == "Z/5"
    assert data["d2n_upper"] == 1


def test_analyze_missing_file(capsys):
    assert main(["analyze", "no_such_file.fp"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.fp"
    bad.write_text("gens: x\nrels: y\n")
    assert main(["analyze", str(bad)]) == 1
    assert "unknown generator" in capsys.readouterr().err


def test_check_mode_pass_and_fail(tmp_path, capsys):
    assert main(["analyze", str(CORPUS / "a5.fp"), "--check"]) == 0
    capsys.readouterr()
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"order": 61}))
    assert main(["analyze", str(CORPUS / "a5.fp"), "--check", str(wrong)]) == 2
    assert "check failed" in capsys.readouterr().err


def test_check_subcommand():
    assert main(["check", str(CORPUS / "q8.fp")]) == 0


def test_check_all_corpus_expectations(capsys):
    for fp in sorted(CORPUS.glob("*.fp")):
        assert main(["analyze", str(fp), "--check"]) == 0, fp.name
        capsys.readouterr()


def test_order_command(capsys):
    assert main(["order", str(CORPUS / "q8.fp")]) == 0
    out = capsys.readouterr().out
    assert "status: complete" in out and "order: 8" in out
    assert main(["order", str(CORPUS / "trefoil.fp"),
                 "--max-cosets", "2000"]) == 0
    out = capsys.readouterr().out
    assert "status: unknown" in out


def test_normal_gen_command(capsys):
    assert main(["normal-gen", str(CORPUS / "a5.fp"), "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    assert "status: found" in out and "word: a" in out
    assert main(["normal-gen", str(CORPUS / "trefoil.fp"),
                 "--max-cosets", "500"]) == 0
    out = capsys.readouterr().out
    assert "not-found-within-bounds" in out and "non-perfect" in out


def test_chain_pipeline_round_trip(tmp_path, capsys):
    f = tmp_path / "F.acx"
    orig = tmp_path / "orig.acx"
    q = tmp_path / "Q.acx"
    assert main(["chain", str(CORPUS / "z5.fp"), "--finite", "--out", str(f)]) == 0
    shutil.copy(f, orig)
    assert main(["wedge", str(f), "1", "--attach"]) == 0
    assert main(["split", str(f)]) == 0
    out = capsys.readouterr().out
    assert "splits: true" in out
    assert main(["quotient", str(f), "--out", str(q)]) == 0
    capsys.readouterr()
    assert main(["certify-equiv", str(q), str(orig)]) == 0
    out = capsys.readouterr().out
    assert "status: certificate" in out and "verified: true" in out


def test_chain_artifacts_reproducible(tmp_path):
    a = tmp_path / "a.acx"
    b = tmp_path / "b.acx"
    for out in (a, b):
        assert main(["chain", str(CORPUS / "s3.fp"), "--finite",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_split_negative(tmp_path, capsys):
    # build the norm-type non-split complex through the API, then the CLI
    from d2kit import acx
    from d2kit.chains import attach_three_cells, presentation_complex, stabilize_wedge
    from d2kit.coset import group_model
    from d2kit.groupring import GroupRingElement, GroupRingMatrix
    from d2kit.presentations import parse_presentation

    z2 = parse_presentation("gens: x\nrels: x^2\n")
    m = group_model(z2, 100)
    W = stabilize_wedge(presentation_complex(z2, m), 1)
    norm = GroupRingElement.from_pairs(m, [(0, 1), (1, 1)])
    d3 = GroupRingMatrix(m, 2, 1, [GroupRingElement.zero(m), norm])
    X = attach_three_cells(W, d3)
    path = tmp_path / "norm_z2.acx"
    acx.write_acx(X, path)
    assert main(["split", str(path)]) == 0
    out = capsys.readouterr().out
    assert "splits: false" in out and "obstruction" in out


def test_corrupted_acx_rejected(tmp_path, capsys):
    f = tmp_path / "F.acx"
    assert main(["chain", str(CORPUS / "z5.fp"), "--finite", "--out", str(f)]) == 0
    text = f.read_text().replace("0 0 0:1 1:1 2:1 3:1 4:1",
                                 "0 0 0:1 1:2 2:1 3:1 4:1")
    f.write_text(text)
    capsys.readouterr()
    assert main(["split", str(f)]) == 1
    assert "d_1 o d_2 != 0" in capsys.readouterr().err


def test_acx_index_out_of_range_rejected(tmp_path, capsys):
    f = tmp_path / "F.acx"
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", str(f)]) == 0
    f.write_text(f.read_text() + "0 5 0:1\n")  # column 5 of the last [dN]
    capsys.readouterr()
    assert main(["split", str(f)]) == 1
    assert "column index 5 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[group]\nmode: finite\nmulttable:\n0\ngenerators:\n[ranks]\n1\n",
     "lacks an order"),
    ("[group]\nmode: finite\norder: 1\nmulttable:\n0\ngenerators:\n[ranks]\n",
     "empty [ranks] section"),
    ("[group]\nmode: finite\norder: 2\nmulttable:\n0 1\n0 1\ngenerators: 1\n"
     "[ranks]\n1\n", "column 0 is not a permutation"),
    ("[group]\nmode: finite\norder: 5\nmulttable:\n0 1 2 3 4\n1 0 3 4 2\n"
     "2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\ngenerators: 1 2\n[ranks]\n1\n",
     "not associative"),
], ids=["no-order", "empty-ranks", "order-2-not-a-group", "loop5-not-a-group"])
def test_malformed_acx_header_rejected(tmp_path, capsys, text, message):
    f = tmp_path / "F.acx"
    f.write_text(text)
    assert main(["split", str(f)]) == 1
    assert message in capsys.readouterr().err


def test_acx_oversized_ranks_rejected(tmp_path, capsys):
    # Z/12: a 300 x 300 boundary would hold 1 080 000 coefficients
    table = "\n".join(" ".join(str((i + j) % 12) for j in range(12))
                      for i in range(12))
    f = tmp_path / "F.acx"
    f.write_text(f"[group]\nmode: finite\norder: 12\nmulttable:\n{table}\n"
                 "generators: 1\n[ranks]\n1 300 300\n")
    assert main(["split", str(f)]) == 1
    assert "[d2] of 300x300 entries over a group of order 12 exceeds 1000000" \
        in capsys.readouterr().err


def test_wedge_bad_input_rejected(tmp_path, capsys):
    f = tmp_path / "F.acx"
    w = tmp_path / "W.acx"
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", str(f)]) == 0
    assert main(["wedge", str(f), "1", "--attach", "--out", str(w)]) == 0
    capsys.readouterr()
    assert main(["wedge", str(w), "1"]) == 1
    assert "wedge needs a top-degree-2 complex" in capsys.readouterr().err
    assert main(["wedge", str(f), "-1"]) == 1
    assert "must be nonnegative, got -1" in capsys.readouterr().err


def test_wedge_oversized_rejected_before_building(tmp_path, capsys):
    # the wedged complex is checked against the .acx caps before any matrix
    # is built: at n = 10^9 the zero block alone would fill memory
    f = tmp_path / "F.acx"
    w = tmp_path / "W.acx"
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", str(f)]) == 0
    capsys.readouterr()
    assert main(["wedge", str(f), "1000000000", "--out", str(w)]) == 1
    assert "wedge: [d2] of 1x1000000001 entries over a group of order 2 " \
           "exceeds 1000000" in capsys.readouterr().err
    assert main(["wedge", str(f), "1000000000", "--attach", "--out", str(w)]) == 1
    assert "[d2] of 1x1000000001" in capsys.readouterr().err
    # every boundary of the wedge fits, but the attached d3 does not
    assert main(["wedge", str(f), "707", "--attach", "--out", str(w)]) == 1
    assert "wedge: [d3] of 708x707 entries" in capsys.readouterr().err
    assert not w.exists()
    assert main(["wedge", str(f), "706", "--attach", "--out", str(w)]) == 0
    assert read_acx(w).ranks == (1, 1, 707, 706)


@pytest.mark.slow
def test_split_and_quotient_at_the_rank_cap(tmp_path, capsys):
    # the most attached spheres over Z/2 the .acx caps admit
    f, w, q = (str(tmp_path / name) for name in ("F.acx", "W.acx", "Q.acx"))
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", f]) == 0
    assert main(["wedge", f, "706", "--attach", "--out", w]) == 0
    capsys.readouterr()
    assert main(["split", w]) == 0
    assert "splits: true" in capsys.readouterr().out
    assert main(["quotient", w, "--out", q]) == 0
    assert "ranks: 1 1 1" in capsys.readouterr().out
    assert read_acx(q).boundaries == read_acx(f).boundaries


@pytest.fixture
def certify_inputs(tmp_path, capsys):
    """Finite Z/2 and Z/5 complexes, a symbolic Z/2 complex and a
    top-degree-3 Z/2 complex, as .acx paths."""
    paths = {name: str(tmp_path / f"{name}.acx")
             for name in ("z2", "z5", "symbolic", "top3")}
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", paths["z2"]]) == 0
    assert main(["chain", str(CORPUS / "z5.fp"), "--finite", "--out", paths["z5"]]) == 0
    assert main(["chain", str(CORPUS / "z2.fp"), "--out", paths["symbolic"]]) == 0
    assert main(["wedge", paths["z2"], "1", "--attach", "--out", paths["top3"]]) == 0
    capsys.readouterr()
    return paths


def test_certify_equiv_different_groups_rejected(certify_inputs, capsys):
    assert main(["certify-equiv", certify_inputs["z2"], certify_inputs["z5"]]) == 1
    assert "live over different groups" in capsys.readouterr().err


def test_certify_equiv_top_degree_3_rejected(certify_inputs, capsys):
    assert main(["certify-equiv", certify_inputs["z2"], certify_inputs["top3"]]) == 1
    assert "certification needs a top-degree-2 complex" in capsys.readouterr().err


def test_certify_equiv_symbolic_rejected(certify_inputs, capsys):
    assert main(["certify-equiv", certify_inputs["symbolic"], certify_inputs["z2"]]) == 1
    assert "certification requires finite mode" in capsys.readouterr().err


def test_check_expectations_not_an_object_rejected(tmp_path, capsys):
    expected = tmp_path / "list.json"
    expected.write_text("[1, 2]\n")
    assert main(["check", str(CORPUS / "z2.fp"), str(expected)]) == 1
    captured = capsys.readouterr()
    assert "expectations must be a JSON object, got list" in captured.err
    assert captured.out == ""

def test_overlong_relator_rejected(tmp_path, capsys):
    bad = tmp_path / "long.fp"
    bad.write_text("gens: x\nrels: x^100001\n")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "power longer than 100000 letters (line 2, column 9)" in err


def test_round_trip_under_python_optimize(tmp_path):
    # chain -> wedge --attach -> split -> quotient -> certify-equiv on S3;
    # with the interpreter's asserts stripped, every exit code, stdout and
    # .acx file must be what the plain run gives
    def run(flags, work):
        work.mkdir()
        f, orig, q = work / "F.acx", work / "orig.acx", work / "Q.acx"
        steps = [["chain", str(CORPUS / "s3.fp"), "--finite", "--out", str(f)],
                 ["chain", str(CORPUS / "s3.fp"), "--finite", "--out", str(orig)],
                 ["wedge", str(f), "1", "--attach"],
                 ["split", str(f)],
                 ["quotient", str(f), "--out", str(q)],
                 ["certify-equiv", str(q), str(orig)]]
        outs = []
        for args in steps:
            r = subprocess.run([sys.executable, *flags, "-m", "d2kit.cli", *args],
                               capture_output=True, text=True)
            outs.append((r.returncode, r.stdout.replace(str(work), "WORK")))
        return outs, [p.read_bytes() for p in (f, orig, q)]

    plain = run([], tmp_path / "plain")
    optimized = run(["-O"], tmp_path / "optimized")
    assert [code for code, _ in plain[0]] == [0] * 6
    assert "splits: true" in plain[0][3][1]
    assert "verified: true" in plain[0][5][1]
    assert optimized == plain


def test_report_byte_identical(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for fp in CORPUS.glob("*.fp"):
        shutil.copy(fp, corpus)
    r1 = run_cli(["report", str(corpus)])
    side1 = (corpus / "report.jsonl").read_bytes()
    r2 = run_cli(["report", str(corpus)])
    side2 = (corpus / "report.jsonl").read_bytes()
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert side1 == side2
    assert r1.stdout.splitlines()[0].startswith("file")
    assert len(r1.stdout.splitlines()) == 1 + 9


def test_report_empty_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("file")
    assert len(out.splitlines()) == 1


def test_report_with_unparseable_file(tmp_path, capsys):
    (tmp_path / "good.fp").write_text("gens: x\nrels: x^2\n")
    (tmp_path / "bad.fp").write_text("gens: x\nrels: (((\n")
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 3
    assert any("# error:" in line for line in lines)
    records = [json.loads(line) for line in
               (tmp_path / "report.jsonl").read_text().splitlines()]
    assert any("error" in r for r in records)


def test_corpus_env_var(tmp_path, monkeypatch, capsys):
    (tmp_path / "only.fp").write_text("gens: x\nrels: x^3\n")
    monkeypatch.setenv("D2KIT_CORPUS", str(tmp_path))
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "only.fp" in out


def test_console_script_entry():
    r = run_cli(["analyze", str(CORPUS / "z2.fp")])
    assert r.returncode == 0
    assert "order: 2" in r.stdout


def test_budget_default_per_subcommand():
    # certify-equiv's larger default must not leak into the other commands
    parser = build_parser()
    cases = {"analyze": ["f.fp"], "check": ["f.fp"], "report": [],
             "order": ["f.fp"], "normal-gen": ["f.fp"],
             "chain": ["f.fp", "--out", "o.acx"], "wedge": ["a.acx", "1"],
             "split": ["a.acx"], "quotient": ["a.acx"],
             "certify-equiv": ["a.acx", "b.acx"]}
    for command, rest in cases.items():
        expected = 600 if command == "certify-equiv" else 60
        assert parser.parse_args([command, *rest]).budget == expected, command


_LIMIT_FLAG_USERS = {
    "--max-cosets": ("analyze", "order", "normal-gen", "chain", "report", "check"),
    "--budget": ("analyze", "report", "check", "certify-equiv"),
}


@pytest.mark.parametrize("flag, command", [
    (flag, command) for flag, commands in _LIMIT_FLAG_USERS.items()
    for command in commands] + [("--budget", "split"), ("--max-cosets", "quotient")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_limit_flag_rejected(tmp_path, capsys, flag, command, value):
    # checked once before dispatch, also where the subcommand ignores it
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    fp, acx_path = str(corpus / "z2.fp"), str(tmp_path / "z2.acx")
    assert main(["chain", fp, "--finite", "--out", acx_path]) == 0
    rest = {"analyze": [fp], "order": [fp], "normal-gen": [fp], "check": [fp],
            "chain": [fp, "--finite", "--out", str(tmp_path / "out.acx")],
            "report": [str(corpus)], "certify-equiv": [acx_path, acx_path],
            "split": [acx_path], "quotient": [acx_path]}[command]
    capsys.readouterr()
    assert main([command, *rest, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"d2kit: {flag} must be at least 1\n"
    assert captured.out == ""
    assert not (tmp_path / "out.acx").exists()
    assert not (corpus / "report.jsonl").exists()


def test_acx_oversized_rank_rejected(tmp_path, capsys):
    # each boundary fits, but split builds an f3 x f3 identity and a system
    # of (f3 |G|) x f3 right-hand sides; at f3 = 200000 that fills memory
    f = tmp_path / "F.acx"
    w = tmp_path / "W.acx"
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", str(f)]) == 0
    assert main(["wedge", str(f), "1", "--attach", "--out", str(w)]) == 0
    w.write_text(w.read_text().replace("[ranks]\n1 1 2 1\n",
                                       "[ranks]\n1 1 2 1000\n"))
    capsys.readouterr()
    assert main(["split", str(w)]) == 1
    assert "rank 1000 of F_3 over a group of order 2: a 1000x1000 matrix " \
           "exceeds 1000000 coefficients" in capsys.readouterr().err


def test_quotient_symbolic_rejected(tmp_path, capsys):
    f = tmp_path / "F.acx"
    assert main(["chain", str(CORPUS / "trefoil.fp"), "--out", str(f)]) == 0
    f.write_text(f.read_text().replace("[ranks]\n1 2 1\n", "[ranks]\n1 2 1 0\n"))
    capsys.readouterr()
    assert main(["quotient", str(f)]) == 1
    assert "quotient requires finite mode" in capsys.readouterr().err


TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.txt"

# Each step runs `main` on argv, with {t} standing for the work directory.
# The script covers every command, and every precondition check of the
# .acx commands with its message.
_TRANSCRIPT_STEPS = [
    "analyze {t}/trefoil.fp",
    "analyze {t}/z5.fp --format json",
    "analyze {t}/q8.fp --check",
    "analyze {t}/q8.fp --check {t}/wrong.json",
    "check {t}/z5.fp",
    "order {t}/q8.fp",
    "order {t}/trefoil.fp --max-cosets 2000",
    "normal-gen {t}/a5.fp --max-len 2",
    "chain {t}/z2.fp --out {t}/sym.acx",
    "chain {t}/z2.fp --finite --out {t}/z2.acx",
    "chain {t}/z5.fp --finite --out {t}/z5.acx",
    "chain {t}/s3.fp --finite --out {t}/s3w.acx",
    "chain {t}/s3dup.fp --finite --out {t}/s3dup.acx",
    "wedge {t}/s3w.acx 1",
    "wedge {t}/z2.acx 1 --out {t}/z2w.acx",
    "wedge {t}/z2.acx 1 --attach --out {t}/top3.acx",
    "split {t}/top3.acx",
    "split {t}/norm.acx",
    "quotient {t}/top3.acx --out {t}/q.acx",
    "quotient {t}/norm.acx",
    "certify-equiv {t}/q.acx {t}/z2.acx",
    "certify-equiv {t}/s3w.acx {t}/s3dup.acx",
    "certify-equiv {t}/s3w.acx {t}/s3dup.acx --budget 5 --format json",
    "certify-equiv {t}/z2.acx {t}/z2w.acx",
    "report {t}/dir",
    # precondition checks
    "wedge {t}/top3.acx 1",
    "wedge {t}/sym.acx 1 --attach",
    "split {t}/z2.acx",
    "quotient {t}/z2.acx",
    "split {t}/sym.acx",
    "split {t}/symtop3.acx",
    "quotient {t}/symtop3.acx",
    "certify-equiv {t}/sym.acx {t}/z2.acx",
    "certify-equiv {t}/z2.acx {t}/sym.acx",
    "certify-equiv {t}/z2.acx {t}/top3.acx",
    "certify-equiv {t}/top3.acx {t}/z2.acx",
    "certify-equiv {t}/symtop3.acx {t}/z2.acx",
    "certify-equiv {t}/sym.acx {t}/top3.acx",
    "certify-equiv {t}/z2.acx {t}/z5.acx",
    "certify-equiv {t}/top3.acx {t}/missing.acx",
    "certify-equiv {t}/missing.acx {t}/top3.acx",
]


def _transcript_inputs(t):
    from d2kit import acx
    from d2kit.chains import attach_three_cells, presentation_complex, stabilize_wedge
    from d2kit.coset import group_model
    from d2kit.groupring import GroupRingElement, GroupRingMatrix
    from d2kit.presentations import parse_presentation

    for name in ("trefoil", "z2", "z5", "q8", "a5", "s3"):
        for suffix in (".fp", ".expected.json"):
            shutil.copy(CORPUS / (name + suffix), t / (name + suffix))
    (t / "s3dup.fp").write_text("gens: a b\nrels: a^2 b^2 (a b)^3 a^2\n")
    (t / "wrong.json").write_text(json.dumps({"order": 61}))
    d = t / "dir"
    d.mkdir()
    for name in ("z2", "q8", "trefoil"):
        shutil.copy(CORPUS / f"{name}.fp", d / f"{name}.fp")
    (d / "bad.fp").write_text("gens: x\nrels: (((\n")
    # the norm-type non-split complex over Z/2
    z2 = parse_presentation("gens: x\nrels: x^2\n")
    m = group_model(z2, 100)
    W = stabilize_wedge(presentation_complex(z2, m), 1)
    norm = GroupRingElement.from_pairs(m, [(0, 1), (1, 1)])
    acx.write_acx(attach_three_cells(
        W, GroupRingMatrix(m, 2, 1, [GroupRingElement.zero(m), norm])), t / "norm.acx")
    # a symbolic complex with an empty third boundary
    text = acx.dumps(presentation_complex(z2))
    (t / "symtop3.acx").write_text(text.replace("[ranks]\n1 1 1\n", "[ranks]\n1 1 1 0\n"))


def _transcript(t, capsys):
    """Run the script in the directory t and return its text: per step the
    argv, exit code, stdout, stderr and the sha256 of each file written,
    with t shown as <t> in all of them."""
    def files():
        return {str(p.relative_to(t)): hashlib.sha256(
                    p.read_bytes().replace(str(t).encode(), b"<t>")).hexdigest()
                for p in sorted(t.rglob("*")) if p.is_file()}

    _transcript_inputs(t)
    capsys.readouterr()
    lines = []
    before = files()
    for step in _TRANSCRIPT_STEPS:
        code = main(step.format(t=t).split())
        out, err = capsys.readouterr()
        after = files()
        lines.append(f"$ d2kit {step.format(t='<t>')}")
        lines.append(f"exit {code}")
        lines.append("--- stdout")
        lines.extend(out.replace(str(t), "<t>").splitlines())
        lines.append("--- stderr")
        lines.extend(err.replace(str(t), "<t>").splitlines())
        lines.append("--- files")
        lines.extend(f"<t>/{name} {h}" for name, h in after.items()
                     if before.get(name) != h)
        before = after
    return "\n".join(lines) + "\n"


def test_cli_transcript(tmp_path, capsys):
    # exit codes, output and written files of the whole command surface;
    # an intended output change re-records tests/cli_transcript.txt from
    # _transcript
    assert _transcript(tmp_path, capsys) == TRANSCRIPT.read_text(encoding="utf-8")
