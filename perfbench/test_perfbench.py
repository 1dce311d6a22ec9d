"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`."""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(workload, trace):
    proc = bench("--workload", workload, "--smoke", "--seed", "3",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {m["name"]: m["unit"] for m in spec[kind]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["jobs"]
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        rollups = sum(m[f"{layer}.self_s"] for layer in run.spans.LAYERS)
        assert rollups + m["trace.outside_s"] == pytest.approx(m["trace.wall_s"])
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_giving_up_is_not_a_pass():
    """A todd_coxeter that stops at once, or an analysis that leaves a finite
    order unknown, must not pass as correct."""
    sys.path.insert(0, str(ROOT / "src"))
    d2 = run.import_d2kit()
    gave_up = d2.coset.CosetTable("incomplete", 1)
    jobs = {j.name: j for j in WORKLOADS["coset-large"](d2, 0, True, None)}
    assert jobs["complete.hlt"].check(gave_up) == "unresolved"
    with pytest.raises(oracles.CheckFailed):
        jobs["limit.hlt"].check(gave_up)
    expected = json.loads((ROOT / "corpus" / "a5.expected.json").read_text())
    report = dict(expected, order="unknown", mu2_lower=0, def_given=-1)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_analysis(report, expected, exact=True)
    assert oracles.check_analysis(report, expected, exact=False) == "unresolved"
    with pytest.raises(oracles.CheckFailed):
        oracles.check_analysis(dict(report, h1="2"), expected, exact=False)


def test_timed_leaves_the_probe_time_out():
    def work():
        t = run.perf_counter()
        while run.perf_counter() - t < 0.35:
            pass
        return "done"

    t0 = run.perf_counter()
    result, raw, scaled = run.timed(work)
    wall = run.perf_counter() - t0
    assert result == "done"
    assert raw < 0.35 <= wall and scaled > 0  # three probes ran inside
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        run.timed(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "coset-large", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
