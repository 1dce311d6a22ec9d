"""Seeded mutational fuzzing of the command line.

Corpus .fp files, .acx files written by the CLI and the expected.json
sidecars are mutated (truncated; lines duplicated, dropped or swapped;
numbers flipped or made huge; short tokens inserted; characters replaced)
and each mutant runs through one command in-process, with a small --budget
and --max-cosets where the command reads them. Every run must end in exit
0, 1 or 2, never in an uncaught exception, and within a time limit. Plain
`random` with fixed seeds, so a failure names its mutant.
"""

import contextlib
import io
import random
import re
import time
from pathlib import Path

import pytest

from d2kit.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FP_NAMES = ("z2", "z5", "s3", "q8", "trefoil", "trivial", "z", "f2", "a5")
ACX_NAMES = ("z2", "z5", "s3", "q8")
_BUDGET, _COSETS = ["--budget", "5"], ["--max-cosets", "200"]
# small limits, for the commands that read them
LIMITS = {"analyze": _BUDGET + _COSETS, "check": _BUDGET + _COSETS,
          "report": _BUDGET + _COSETS, "order": _COSETS, "chain": _COSETS,
          "certify-equiv": _BUDGET}
TIME_LIMIT_S = 10.0
_NUMBER = re.compile(r"-?\d+")
_CHARS = "()^-:[] 0123456789abxyz\n"
_INSERTS = (" ", "\n", " 1", " 2", " 0:1", " 1:-1", "^-1", " a", "x")


def _flip_number(text, rng, huge):
    found = list(_NUMBER.finditer(text))
    if not found:
        return text
    m = rng.choice(found)
    v = int(m.group())
    if huge:
        new = rng.choice((1, -1)) * 10 ** rng.randint(2, 40)
    else:
        new = rng.choice((0, 1, -1, v + 1, v - 1, -v, 7 * v + 3,
                          rng.randrange(1000)))
    return text[:m.start()] + str(new) + text[m.end():]


def mutate(text, rng):
    """One to three random edits of text."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        op = rng.randrange(9)
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if op == 0:
            text = text[:rng.randrange(len(text) + 1)]
        elif op == 1:
            lines.insert(i, lines[j])
            text = "\n".join(lines)
        elif op == 2:
            del lines[i]
            text = "\n".join(lines)
        elif op == 3:
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        elif op in (4, 5):
            text = _flip_number(text, rng, huge=False)
        elif op == 6:
            text = _flip_number(text, rng, huge=True)
        elif op == 7:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(_INSERTS) + text[k:]
        elif text:
            k = rng.randrange(len(text))
            text = text[:k] + rng.choice(_CHARS) + text[k + 1:]
    return text


def limited(argv):
    """argv with the small limits its command reads."""
    return argv + LIMITS.get(argv[0], [])


def run_cli(argv):
    """Exit code of main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Unmutated inputs: corpus .fp texts and sidecars, and .acx texts of
    presentation complexes (finite and symbolic), wedged 2-complexes and
    wedged-and-attached 3-complexes."""
    d = tmp_path_factory.mktemp("seeds")
    fp = {n: (CORPUS / f"{n}.fp").read_text() for n in FP_NAMES}
    expected = {n: (CORPUS / f"{n}.expected.json").read_text() for n in FP_NAMES}
    acx = {}
    for n in ACX_NAMES:
        base, wedged, attached = (str(d / f"{n}.{k}.acx") for k in "bwa")
        src = str(CORPUS / f"{n}.fp")
        assert run_cli(["chain", src, "--finite", "--out", base]) == 0
        assert run_cli(["wedge", base, "1", "--out", wedged]) == 0
        assert run_cli(["wedge", base, "1", "--attach", "--out", attached]) == 0
        acx[n] = tuple(Path(p).read_text() for p in (base, wedged, attached))
    symbolic = str(d / "trefoil.acx")
    assert run_cli(["chain", str(CORPUS / "trefoil.fp"), "--out", symbolic]) == 0
    acx["trefoil"] = (Path(symbolic).read_text(),)
    return fp, expected, acx, d


def _fp_job(rng, fp, expected, d):
    name = rng.choice(FP_NAMES)
    path = d / "mutant.fp"
    path.write_text(mutate(fp[name], rng))
    src = str(path)
    return limited(rng.choice((
        ["analyze", src],
        ["order", src],
        ["chain", src, "--finite", "--out", str(d / "out.acx")],
        ["check", src, str(CORPUS / f"{name}.expected.json")],
    )))


def _acx_job(rng, acx, d):
    name = rng.choice(sorted(acx))
    texts = acx[name]
    path = d / "mutant.acx"
    path.write_text(mutate(rng.choice(texts), rng))
    src = str(path)
    other = d / "other.acx"
    other.write_text(texts[1] if len(texts) > 1 else texts[0])
    out = str(d / "out.acx")
    return limited(rng.choice((
        ["split", src],
        ["wedge", src, "1", "--attach", "--out", out],
        ["quotient", src, "--out", out],
        ["certify-equiv", src, str(other)],
        ["certify-equiv", str(other), src],
    )))


def _ignored_content_mutants(text):
    """(mutant, message) pairs of a written .acx: edits that add content
    the reader would otherwise ignore."""
    ranks = text.split("[ranks]\n", 1)[1].split("\n", 1)[0]
    top = len(ranks.split()) - 1
    return [
        (text.replace(f"[d{top}]", f"[D{top}]"), f"unknown section [D{top}]"),
        (text + f"[d{top + 1}]\n", f"unknown section [d{top + 1}]"),
        (text + "[foo]\n", "unknown section [foo]"),
        (text.replace(f"[ranks]\n{ranks}\n", f"[ranks]\n{ranks}\n{ranks}\n"),
         "[ranks] section has more than one line"),
        (text.replace("[group]\n", "[group]\ngenrators: 1\n"),
         "[group] line 'genrators: 1' is not a"),
        (text.replace("[group]\n", "[group]\nstray\n"), "[group] line 'stray' is not a"),
    ]


def test_ignored_acx_content_rejected(seeds):
    _, _, acx, d = seeds
    path = d / "mutant.acx"
    for texts in acx.values():
        for text in texts:
            for mutant, message in _ignored_content_mutants(text):
                path.write_text(mutant)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main(["split", str(path)]) == 1
                assert err.getvalue().startswith(f"d2kit: {path}: ")
                assert message in err.getvalue(), mutant


def _scaled(block, factor):
    """An .acx entry block with every coefficient multiplied by factor."""
    return re.sub(r":(-?\d+)", lambda m: f":{int(m.group(1)) * factor}", block)


_NOT_EXACT_AT_F1 = "ker d_1 differs from image of d_2"
_NOT_EXACT_AT_F0 = "image of d_1 differs from the augmentation ideal"


def _inexact_mutants(text):
    """(mutant, failure) pairs of a written finite .acx that keep d o d = 0
    and the augmentation but break exactness: every [d2] coefficient
    doubled, an empty [d2], and every [d1] coefficient doubled."""
    head, rest = text.split("[d1]\n", 1)
    d1, rest = rest.split("[d2]\n", 1)
    d2, d3, tail = rest.partition("[d3]\n")
    return [
        (f"{head}[d1]\n{d1}[d2]\n{_scaled(d2, 2)}{d3}{tail}", _NOT_EXACT_AT_F1),
        (f"{head}[d1]\n{d1}[d2]\n{d3}{tail}", _NOT_EXACT_AT_F1),
        (f"{head}[d1]\n{_scaled(d1, 2)}[d2]\n{d2}{d3}{tail}", _NOT_EXACT_AT_F0),
    ]


def test_inexact_acx_rejected(seeds):
    """Chain complexes that are not exact are not algebraic complexes: every
    command that reads one exits 1 and says which exactness fails."""
    _, _, acx, d = seeds
    path, real, out = d / "inexact.acx", d / "real.acx", str(d / "out.acx")
    for name in ACX_NAMES:
        for text in acx[name]:
            real.write_text(text)
            runs = [["wedge", str(path), "1", "--out", out],
                    ["certify-equiv", str(path), str(path)],
                    ["certify-equiv", str(path), str(real)],
                    ["certify-equiv", str(real), str(path)]]
            if "[d3]" in text:
                runs += [["split", str(path)], ["quotient", str(path), "--out", out]]
            for mutant, failure in _inexact_mutants(text):
                assert mutant != text
                path.write_text(mutant)
                for argv in runs:
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(err):
                        assert main(limited(argv)) == 1, (name, argv, mutant)
                    assert err.getvalue() == \
                        f"d2kit: {path}: not an algebraic complex: {failure}\n"


def _expected_job(rng, expected, d):
    name = rng.choice(FP_NAMES)
    path = d / "mutant.json"
    path.write_text(mutate(expected[name], rng))
    return limited(["check", str(CORPUS / f"{name}.fp"), str(path)])


def _run_mutant(seed, k, argv):
    """Run one mutant's command: exit 0, 1 or 2 within the time limit."""
    start = time.perf_counter()
    try:
        code = run_cli(argv)
    except Exception as e:
        pytest.fail(f"seed {seed} mutant {k}: {argv[0]} raised "
                    f"{type(e).__name__}: {e}")
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), f"seed {seed} mutant {k}: exit {code}"
    assert elapsed < TIME_LIMIT_S, \
        f"seed {seed} mutant {k}: {argv[0]} took {elapsed:.1f} s"


def fuzz(seeds, seed, count):
    fp, expected, acx, d = seeds
    rng = random.Random(seed)
    for k in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            argv = _fp_job(rng, fp, expected, d)
        elif kind == 1:
            argv = _acx_job(rng, acx, d)
        else:
            argv = _expected_job(rng, expected, d)
        _run_mutant(seed, k, argv)


def test_fuzz_cli(seeds):
    fuzz(seeds, 0, 300)


@pytest.mark.slow
def test_fuzz_cli_many(seeds):
    fuzz(seeds, 1, 10_000)


# bytes that are not UTF-8 on their own: continuation and lead bytes, a
# surrogate, an overlong encoding, and NUL
_BYTE_INSERTS = (b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf",
                 b"\x00")


def mutate_bytes(data, rng):
    """One to three byte edits: a byte replaced by any byte, or a byte
    sequence from _BYTE_INSERTS inserted."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(data) + 1)
        if rng.randrange(2) and k < len(data):
            data = data[:k] + bytes((rng.randrange(256),)) + data[k + 1:]
        else:
            data = data[:k] + rng.choice(_BYTE_INSERTS) + data[k:]
    return data


def fuzz_bytes(seeds, seed, count):
    """Byte-mutated .fp, expected.json and .acx inputs, among them invalid
    UTF-8; `report` reads the mutant .fp next to a valid one."""
    fp, expected, acx, d = seeds
    rng = random.Random(seed)
    corpus = d / "byte-corpus"
    corpus.mkdir(exist_ok=True)
    (corpus / "z2.fp").write_text(fp["z2"])
    for k in range(count):
        name = rng.choice(FP_NAMES)
        kind = rng.randrange(3)
        if kind == 0:
            path = corpus / "mutant.fp"
            path.write_bytes(mutate_bytes(fp[name].encode(), rng))
            argv = rng.choice((
                ["analyze", str(path)],
                ["check", str(path), str(CORPUS / f"{name}.expected.json")],
                ["report", str(corpus), "--sidecar", str(d / "report.jsonl")],
            ))
        elif kind == 1:
            path = d / "mutant.json"
            path.write_bytes(mutate_bytes(expected[name].encode(), rng))
            argv = ["check", str(CORPUS / f"{name}.fp"), str(path)]
        else:
            texts = acx[rng.choice(sorted(acx))]
            path = d / "mutant.acx"
            path.write_bytes(mutate_bytes(rng.choice(texts).encode(), rng))
            argv = rng.choice((["split", str(path)],
                               ["wedge", str(path), "1", "--out", str(d / "out.acx")]))
        _run_mutant(seed, k, limited(argv))


def test_fuzz_cli_bytes(seeds):
    fuzz_bytes(seeds, 0, 200)
