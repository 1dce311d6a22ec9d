"""Each demo's stdout is pinned by its sha256, so a change that alters any
demo output, byte for byte, fails here. Under `python -O` the demos run
optimized too, so their certificate checks are exercised without asserts."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_presentations_and_words.py":
        "ad83c96447d4338ff17fa6676732b1d93ffa937e09752d354c513a01433068a2",
    "02_exact_integer_linalg.py":
        "0628b5e6077a42db99deee0fd6ad2d9c89c78cd0816443774e5a88fb73d7f60d",
    "03_coset_enumeration.py":
        "712853c7bfd1bcf379513b7941b8e35651eb72e5ff541a117ea836ce7d76c528",
    "04_group_rings.py":
        "fc5cf44049c4ca2e9c7f51a96b4c0bd8e3eb4d410a7ba655235d1c3e1a262973",
    "05_chain_complexes.py":
        "0d2e038fb3cb1656ee8756ee56190f79c55ff17f0462a03c8ef79b0e1c8f9636",
    "06_invariant_reports.py":
        "9f0dc86a27e1f3dbcc2acf209b7632ce5c4baaf6f287853b6a6759fecc6d41e0",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (REPO / "demos").glob("*.py")) == \
        sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_byte_identical(name):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    optimize = ["-O"] if sys.flags.optimize else []
    r = subprocess.run([sys.executable, *optimize, str(REPO / "demos" / name)],
                       capture_output=True, env=env, cwd=REPO, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
