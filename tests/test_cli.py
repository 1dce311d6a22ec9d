import argparse
import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from d2kit import acx, chains, cli, coset, groupring, invariants
from d2kit.acx import read_acx
from d2kit.chains import EquivalenceCertificate
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


def test_normal_gen_skips_conjugates_and_warns_on_unknown_quotients(tmp_path, capsys):
    # a is a relator, so a and a^-1 are conjugate to the empty word tested
    # first and are skipped: b is the second word tested
    fp = tmp_path / "abc.fp"
    fp.write_text("gens: a b c\nrels: a b^2 c^3 (b c)^5\n")
    assert main(["normal-gen", str(fp), "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    assert "status: found\nword: b\ntested: 2\n" in out and "warnings" not in out
    # 30 cosets do not settle the quotient of A5 by the empty word
    assert main(["normal-gen", str(CORPUS / "a5.fp"), "--max-len", "2",
                 "--max-cosets", "30"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("status: found\nword: a\ntested: 2\n"
                        "warnings:\n  - unknown-quotients-encountered\n")


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


def test_chain_finite_model_errors(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "F.acx")
    assert main(["chain", str(CORPUS / "a5.fp"), "--finite", "--out", out,
                 "--max-cosets", "10"]) == 1
    assert capsys.readouterr().err == (f"d2kit: {CORPUS / 'a5.fp'}: cannot build "
                                       "finite model: enumeration incomplete after "
                                       "10 cosets\n")
    # only the errors table_model documents become messages; a fault surfaces

    def table_model(P, rows):
        raise RuntimeError("model fault")

    monkeypatch.setattr(cli, "table_model", table_model)
    with pytest.raises(RuntimeError, match="model fault"):
        main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", out])


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


# what `d2kit chain corpus/z2.fp --finite` writes
_Z2_ACX = ("# d2kit algebraic complex v1\n[group]\nmode: finite\norder: 2\n"
           "multtable:\n0 1\n1 0\ngenerators: 1\n[presentation]\ngens: x\n"
           "rels: x^2\n[ranks]\n1 1 1\n[d1]\n0 0 0:-1 1:1\n[d2]\n0 0 0:1 1:1\n")


def test_z2_acx_is_what_chain_writes(tmp_path):
    f = tmp_path / "F.acx"
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", str(f)]) == 0
    assert f.read_text() == _Z2_ACX
    assert main(["wedge", str(f), "1", "--out", str(tmp_path / "W.acx")]) == 0


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
    ("[group]\nmode: symbolic\n[presentation]\ngens: x\nrels: x^2\n[ranks]\n1 1 1\n"
     "[d2]\n0 0\n", "[d2] line '0 0' is not a row, a column and a coefficient"),
    ("[group]\nmode: symbolic\n[presentation]\ngens: x\nrels: x^2\n[ranks]\n1 1 1\n"
     "[d2]\n0 0 2\n0 0 3\n", "[d2] line '0 0 3' repeats entry 0 0"),
    ("[group]\nmode: finite\norder: 2\nmulttable:\n0 1\n1 0\ngenerators: 1\n"
     "[ranks]\n1 1\n[d1]\n0 0 0:-1 1:1\n0 0 1:1\n", "[d1] line '0 0 1:1' repeats entry 0 0"),
    # content the reader would otherwise ignore: [D2] would leave d2 zero,
    # and a misspelt generators key would drop the generator images
    (_Z2_ACX.replace("[d2]", "[D2]"), "unknown section [D2] in a complex of top degree 2"),
    (_Z2_ACX + "[d3]\n0 0 0:1\n", "unknown section [d3] in a complex of top degree 2"),
    (_Z2_ACX + "[foo]\n", "unknown section [foo]"),
    (_Z2_ACX.replace("1 1 1\n", "1 1 1\n1 1 1\n"), "[ranks] section has more than one line"),
    (_Z2_ACX.replace("generators:", "genrators:"),
     "[group] line 'genrators: 1' is not a mode/order/multtable/generators key"),
    (_Z2_ACX.replace("generators: 1\n", "generators: 1\nstray\n"),
     "[group] line 'stray' is not a mode/order/multtable/generators key"),
    (_Z2_ACX.replace("order: 2\n", "order: 2\norder: 2\n"), "[group] key order is repeated"),
    ("[group]\nmode: symbolic\norder: 2\n[presentation]\ngens: x\nrels: x^2\n"
     "[ranks]\n1\n", "symbolic [group] section has keys other than mode"),
], ids=["no-order", "empty-ranks", "order-2-not-a-group", "loop5-not-a-group",
        "symbolic-two-fields", "symbolic-repeated-entry", "finite-repeated-entry",
        "section-typo", "section-above-top", "unknown-section", "two-rank-lines",
        "misspelt-key", "stray-group-line", "repeated-key", "symbolic-extra-key"])
def test_malformed_acx_header_rejected(tmp_path, capsys, text, message):
    f = tmp_path / "F.acx"
    f.write_text(text)
    assert main(["split", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"d2kit: {f}: ") and message in err


@pytest.mark.parametrize("command", ["chain", "wedge", "quotient", "report"])
def test_unwritable_output_rejected(tmp_path, capsys, command):
    f, w = tmp_path / "F.acx", tmp_path / "W.acx"
    assert main(["chain", str(CORPUS / "z2.fp"), "--finite", "--out", str(f)]) == 0
    assert main(["wedge", str(f), "1", "--attach", "--out", str(w)]) == 0
    (tmp_path / "z2.fp").write_text("gens: x\nrels: x^2\n")
    capsys.readouterr()
    bad = tmp_path / "missing" / "out"
    argv = {"chain": ["chain", str(CORPUS / "z2.fp"), "--finite", "--out", str(bad)],
            "wedge": ["wedge", str(f), "1", "--out", str(bad)],
            "quotient": ["quotient", str(w), "--out", str(bad)],
            "report": ["report", str(tmp_path), "--sidecar", str(bad)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"d2kit: cannot write {bad}: No such file or directory\n")


def test_non_utf8_input_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.fp"
    bad.write_bytes(b"gens: x\nrels: x^\xff2\n")
    expected = tmp_path / "bad.json"
    expected.write_bytes(b'{"order": "\xfe"}')
    fp_error = f"{bad}: 'utf-8' codec can't decode byte 0xff in position 16"
    json_error = f"{expected}: 'utf-8' codec can't decode byte 0xfe in position 11"
    for argv, message in (
            (["analyze", str(bad)], fp_error),
            (["check", str(bad)], fp_error),
            (["analyze", str(CORPUS / "z2.fp"), "--check", str(expected)], json_error),
            (["check", str(CORPUS / "z2.fp"), str(expected)], json_error)):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"d2kit: {message}")
    # report records the file as an error row and goes on
    (tmp_path / "good.fp").write_text("gens: x\nrels: x^2\n")
    assert main(["report", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and f"# error: {fp_error}" in lines[1]
    records = [json.loads(line) for line in
               (tmp_path / "report.jsonl").read_text().splitlines()]
    assert [("error" in r, r["file"]) for r in records] == [(True, "bad.fp"),
                                                          (False, "good.fp")]


_NON_UTF8 = b"gens: x\nrels: x^\xff2\n"
_DECODE = "{path}: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"


# data: None for no file, "dir" for a directory, else the file's bytes
@pytest.mark.parametrize("command, suffix, data, message", [
    ("analyze", "fp", None, "cannot read {path}: No such file or directory"),
    ("analyze", "fp", "dir", "cannot read {path}: Is a directory"),
    ("analyze", "fp", _NON_UTF8, _DECODE),
    ("analyze", "fp", b"gens: x\nrels: x^2 (\n",
     "{path}: unbalanced '(' (line 2, column 11)"),
    ("split", "acx", None, "cannot read {path}: No such file or directory"),
    ("split", "acx", "dir", "cannot read {path}: Is a directory"),
    ("split", "acx", _NON_UTF8, _DECODE),
    ("split", "acx", b"[group]\nmode: finite\norder: 2\n",
     "{path}: missing [group] or [ranks] section"),
], ids=["fp-missing", "fp-directory", "fp-non-utf8", "fp-malformed",
        "acx-missing", "acx-directory", "acx-non-utf8", "acx-malformed"])
def test_unreadable_input_rejected(tmp_path, capsys, command, suffix, data,
                                   message):
    # .fp and .acx files share one reader: each fault is one exact line
    path = tmp_path / f"input.{suffix}"
    if data == "dir":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "d2kit: " + message.format(path=path) + "\n")


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


@pytest.mark.parametrize("pair", ["wedged", "identical"])
def test_certify_equiv_verifies_once(tmp_path, monkeypatch, capsys, pair):
    # certify_chain_equivalence returns only a certificate that verified;
    # the `verified:` line reports that check instead of running it again
    calls = []
    real = EquivalenceCertificate.verify

    def verify(self, F, G):
        calls.append((F, G))
        return real(self, F, G)

    monkeypatch.setattr(EquivalenceCertificate, "verify", verify)
    fp = tmp_path / "z5b.fp"
    fp.write_text("gens: x y\nrels: x^5 y y\n")
    f, w, g = (str(tmp_path / f"{n}.acx") for n in ("f", "w", "g"))
    assert main(["chain", str(CORPUS / "z5.fp"), "--finite", "--out", f]) == 0
    assert main(["wedge", f, "1", "--out", w]) == 0
    assert main(["chain", str(fp), "--finite", "--out", g]) == 0
    capsys.readouterr()
    argv = [w, g] if pair == "wedged" else [f, f]
    assert main(["certify-equiv", *argv]) == 0
    out = capsys.readouterr().out
    assert "status: certificate" in out and "verified: true" in out
    assert len(calls) == 1


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


def test_relator_letter_total_rejected(tmp_path, capsys):
    # five relators at the per-relator cap: their compiled coset scans
    # peaked at 121 MB in `order`; the third passes the total cap
    bad = tmp_path / "many.fp"
    bad.write_text("gens: x y\n" + "rels: (x y^99999)\n" * 5)
    for command in ("order", "analyze"):
        assert main([command, str(bad)]) == 1
        captured = capsys.readouterr()
        assert "relators longer than 200000 letters in total (line 4, column 7)" \
            in captured.err
        assert captured.out == ""


def test_too_many_generators_rejected(tmp_path, capsys):
    bad = tmp_path / "wide.fp"
    names = " ".join(f"g{i}" for i in range(100_001))
    bad.write_text(f"gens: {names}\nrels: g0^2\n")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    col = len("gens: ") + names.index("g100000") + 1
    assert f"more than 100000 generators (line 1, column {col})" in err


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
    # certify-equiv's larger default must not leak into the other commands,
    # and a command that spends no budget has none
    parser = build_parser()
    cases = {"analyze": ["f.fp"], "check": ["f.fp"], "report": [],
             "order": ["f.fp"], "normal-gen": ["f.fp"],
             "chain": ["f.fp", "--out", "o.acx"], "wedge": ["a.acx", "1"],
             "split": ["a.acx"], "quotient": ["a.acx"],
             "certify-equiv": ["a.acx", "b.acx"]}
    budgets = {"analyze": 60, "check": 60, "report": 60, "certify-equiv": 600}
    for command, rest in cases.items():
        args = parser.parse_args([command, *rest])
        assert vars(args).get("budget", "absent") == budgets.get(command, "absent"), \
            command


_LIMIT_FLAG_USERS = {
    "--max-cosets": ("analyze", "order", "normal-gen", "chain", "report", "check"),
    "--budget": ("analyze", "report", "check", "certify-equiv"),
}


@pytest.mark.parametrize("flag, command", [
    (flag, command) for flag, commands in _LIMIT_FLAG_USERS.items()
    for command in commands] + [("--budget", "split"), ("--max-cosets", "quotient")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_limit_flag_rejected(tmp_path, capsys, flag, command, value):
    # checked once before dispatch; a subcommand that does not read the flag
    # does not accept it
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    fp, acx_path = str(corpus / "z2.fp"), str(tmp_path / "z2.acx")
    assert main(["chain", fp, "--finite", "--out", acx_path]) == 0
    written = Path(acx_path).read_text()
    rest = {"analyze": [fp], "order": [fp], "normal-gen": [fp], "check": [fp],
            "chain": [fp, "--finite", "--out", str(tmp_path / "out.acx")],
            "report": [str(corpus)], "certify-equiv": [acx_path, acx_path],
            "split": [acx_path], "quotient": [acx_path]}[command]
    capsys.readouterr()
    if command in _LIMIT_FLAG_USERS[flag]:
        assert main([command, *rest, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"d2kit: {flag} must be at least 1\n"
    else:
        with pytest.raises(SystemExit) as e:
            main([command, *rest, flag, value])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == ""
    assert Path(acx_path).read_text() == written
    assert not (tmp_path / "out.acx").exists()
    assert not (corpus / "report.jsonl").exists()


@pytest.mark.parametrize("value", ["-1", "-3"])
def test_negative_max_len_rejected(capsys, value):
    fp = str(CORPUS / "a5.fp")
    assert main(["normal-gen", fp, "--max-len", value]) == 1
    captured = capsys.readouterr()
    assert captured.err == "d2kit: --max-len must be at least 0\n"
    assert captured.out == ""
    assert main(["normal-gen", fp, "--max-len", "0"]) == 0
    assert "tested: 1" in capsys.readouterr().out


def test_every_flag_a_command_accepts_is_read(tmp_path):
    """Each handler reads every dest its parser sets, defaults included;
    `command` (the subparsers' dest) and `func` only dispatch."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    fp, t = str(CORPUS / "z2.fp"), tmp_path
    (t / "dir").mkdir()
    shutil.copy(fp, t / "dir")
    runs = [["analyze", fp], ["check", fp], ["order", fp], ["normal-gen", fp],
            ["chain", fp, "--finite", "--out", f"{t}/z2.acx"],
            ["wedge", f"{t}/z2.acx", "1", "--attach", "--out", f"{t}/top3.acx"],
            ["split", f"{t}/top3.acx"], ["quotient", f"{t}/top3.acx", "--out", f"{t}/q.acx"],
            ["certify-equiv", f"{t}/z2.acx", f"{t}/z2.acx"],
            ["report", f"{t}/dir", "--sidecar", f"{t}/report.jsonl"]]
    parser, unread = build_parser(), {}
    for argv in runs:
        args = parser.parse_args(argv, namespace=Recording())
        dests = set(vars(args)) - {"command", "func"}
        reads.clear()
        assert args.func(args) == 0, argv
        if dests - reads:
            unread[argv[0]] = sorted(dests - reads)
    assert unread == {}


def test_order_of_sl27_at_the_default_limit(tmp_path, capsys):
    # SL(2,7), order 336, from Campbell and Robertson's balanced family at
    # p = 7: HLT at the default 20000 cosets stops short (see test_coset)
    fp = tmp_path / "sl27.fp"
    fp.write_text("gens: x y\nrels: (x^2 (x y)^-3) ((x y^4 x y^4)^2 y^7 x^4)\n")
    assert main(["order", str(fp)]) == 0
    out = capsys.readouterr().out
    assert "status: unknown\n" in out and "cosets_used: 11775\n" in out


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


def test_acx_expansion_bounded_before_expanding(tmp_path, capsys, monkeypatch):
    # over A5 ranks 1 129 129 keep every boundary under the coefficient cap,
    # but d_2 would expand to 7740 x 7740 integer cells for the exactness check;
    # every expansion (regular_rep_expand included) is _expanded_columns, so
    # it is recorded in every module that binds it
    calls = []
    real = groupring._expanded_columns
    for module in (groupring, chains, invariants):
        monkeypatch.setattr(module, "_expanded_columns",
                            lambda M, left: calls.append(M) or real(M, left))
    f = tmp_path / "F.acx"
    assert main(["chain", str(CORPUS / "a5.fp"), "--finite", "--out", str(f)]) == 0
    f.write_text(f.read_text().replace("[ranks]\n1 2 3\n", "[ranks]\n1 129 129\n"))
    capsys.readouterr()
    assert main(["wedge", str(f), "1"]) == 1
    assert "[d2] of 129x129 entries over a group of order 60 expands to more " \
           "than 4194304 integer cells" in capsys.readouterr().err
    assert calls == []


def test_acx_table_bounded_before_its_shape():
    # the size rule runs on the order before the table is read
    with pytest.raises(acx.AcxError, match="rank 1 of F_0 over a group of order "
                       "10752: a 1x1 matrix expands to more than 4194304"):
        acx.loads("[group]\nmode: finite\norder: 10752\nmulttable:\n0 1 2\n"
                  "generators:\n[ranks]\n1\n")


def test_chain_checks_the_size_rule_before_writing(tmp_path, capsys, monkeypatch):
    # Z/3000 has a 9 000 000-cell table: chain would write a file no read
    # accepts, and stops on the coset count before it builds that table
    fp, out = tmp_path / "z3000.fp", tmp_path / "F.acx"
    fp.write_text("gens: x\nrels: x^3000\n")

    def table_model(P, rows):
        raise AssertionError("multiplication table built")

    monkeypatch.setattr(cli, "table_model", table_model)
    assert main(["chain", str(fp), "--finite", "--max-cosets", "4000",
                 "--out", str(out)]) == 1
    assert "chain: [d1] of 1x1 entries over a group of order 3000 expands to " \
           "more than 4194304 integer cells" in capsys.readouterr().err
    assert not out.exists()


def test_normal_gen_tests_every_word_above_the_size_rule(tmp_path, capsys, monkeypatch):
    # A5 x A5 is perfect of order 3600, whose 12 960 000-cell table is over
    # the size rule: no table, and no conjugate word skipped
    fp = tmp_path / "a5xa5.fp"
    fp.write_text("gens: a b c d\nrels: a^2 b^3 (a b)^5 c^2 d^3 (c d)^5 "
                  "(a c a^-1 c^-1) (a d a^-1 d^-1) (b c b^-1 c^-1) (b d b^-1 d^-1)\n")

    def table_model(P, rows):
        raise AssertionError("multiplication table built")

    monkeypatch.setattr(coset, "table_model", table_model)
    assert 3600 ** 2 > acx.MAX_EXPANDED_CELLS
    assert main(["normal-gen", str(fp), "--max-len", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "file": str(fp), "status": "not-found-within-bounds", "tested": 1,
        "warnings": ["conjugates-not-skipped"]}
    # a c is found after every word before it, a^-1 and c^-1 included,
    # where a model skips the words conjugate to an earlier one or its inverse
    assert main(["normal-gen", str(fp), "--max-len", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "file": str(fp), "status": "found", "word": "a c", "tested": 13,
        "warnings": ["conjugates-not-skipped"]}


def test_quotient_without_a_free_coordinate_basis_rejected(tmp_path, capsys):
    # Z/5 wedge 2 S^2 with both 3-cells attached, F_2 rebased by three
    # seeded elementary operations: d_3 still splits, but no coordinate
    # subset of 1 - d_3 o R is a basis of its image
    f = tmp_path / "F.acx"
    assert main(["chain", str(CORPUS / "z5.fp"), "--finite", "--out", str(f)]) == 0
    assert main(["wedge", str(f), "2", "--attach"]) == 0
    F = read_acx(f)
    model, f2 = F.model, F.ranks[2]
    d2, d3 = F.boundary(2), F.boundary(3)
    rng = random.Random(15)
    one = groupring.GroupRingMatrix.identity(model, f2)
    for _ in range(3):
        i, j = rng.sample(range(f2), 2)
        g, a = rng.randrange(model.order), rng.choice((-1, 1))
        unit = [groupring.GroupRingElement.zero(model)] * (f2 * f2)
        unit[i * f2 + j] = groupring.GroupRingElement.from_element(model, g, a)
        unit = groupring.GroupRingMatrix(model, f2, f2, unit)
        d2, d3 = d2.compose(one - unit), (one + unit).compose(d3)
    acx.write_acx(chains.AlgebraicComplex(F.ranks, model, (F.boundary(1), d2, d3)), f)
    capsys.readouterr()
    assert main(["split", str(f)]) == 0
    assert "splits: true" in capsys.readouterr().out
    q = tmp_path / "Q.acx"
    assert main(["quotient", str(f), "--out", str(q)]) == 1
    assert capsys.readouterr().err == (
        f"d2kit: {f}: no coordinate subset of the complement projection "
        "is a free basis\n")
    assert not q.exists()


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
