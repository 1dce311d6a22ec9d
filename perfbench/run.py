"""d2kit benchmark harness.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a d2kit checkout; the program is imported from
src/d2kit, so nothing needs installing. One process, no threads or worker
pools. A run repeats a round until --seconds have passed (at least once):
set up the workload three times (import, seeded inputs, models and
complexes), then run the job set with the last set-up. Set-up time is the
median over all set-ups of the run, so its samples are spread over the run.
Every job is timed alone and its output checked outside the timed region; a
job that raises, fails its check or ends unknown/incomplete where a definite
answer is expected is reported and the run goes on.

--trace 0 prints the end-to-end metrics, with every time scaled to a fixed
reference speed (see REFERENCE_S). With --trace 1 each round runs the
job set untraced and then traced, and the run prints the per-layer metrics
of the traced sets, averaged per job set; spans are recorded around the public
functions of each d2kit module from outside the package (see spans.py).
--smoke runs one set on each workload's smallest input.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; `failed` counts failed and unresolved jobs, and any of
either makes `correct` false. The line before it holds the run record
(machine, seed, input sizes, per-job times, failure messages and unresolved
jobs). The metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from array import array
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_ROUND = 3

# The host's speed drifts by up to 2x in phases of seconds (see README.md).
# So a fixed pure-Python loop that does not touch d2kit runs right before and
# after every timed region, and every PROBE_S inside it from a SIGALRM
# handler. End-to-end times are scaled to the speed at which that loop takes
# REFERENCE_S, about its time in a quiet phase of the machine README.md
# describes. The traced sets run without probes, and their metrics are raw.
REFERENCE_S = 0.006
PROBE_S = 0.1

# The loop's second half chases pointers through this 4 MB array, one cycle
# over all its slots (a full-period linear congruential step), so that the
# loop also slows down when the memory that table-heavy jobs use is contended.
CHASE = array("l", ((2654435761 * i + 12345) % (1 << 19) for i in range(1 << 19)))


def reference_s():
    """Time of the reference loop, with collections of d2kit's garbage
    kept out of it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts, x, pairs = {}, 1, []
        for i in range(10000):
            x = (x * 1103515245 + 12345) % 2147483648
            counts[x & 1023] = counts.get(x & 1023, 0) + i
            if i % 7 == 0:
                pairs.append((x & 1023, x))
        pairs.sort()
        slot = 0
        for _ in range(20000):
            slot = CHASE[slot]
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def timed(fn, probe=True):
    """(result, raw seconds, scaled seconds) of fn(). Each stretch of fn
    between two runs of the reference loop is scaled by the mean of those
    two loop times; the time of the loop runs themselves is left out."""
    marks = []                   # (stretch end, next stretch start, loop s)

    def on_alarm(signum, frame):
        t = perf_counter()
        r = reference_s()
        marks.append((t, perf_counter(), r))

    before = reference_s()
    if probe:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
    t0 = perf_counter()
    try:
        result = fn()
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
        if probe:
            signal.signal(signal.SIGALRM, previous)
    # A probe already due when the timer stopped may run after t1.
    marks = [m for m in marks if m[0] < t1]
    marks.append((t1, t1, reference_s()))
    raw = scaled = 0.0
    start, last = t0, before
    for end, next_start, r in marks:
        raw += end - start
        scaled += (end - start) * 2 * REFERENCE_S / (last + r)
        start, last = next_start, r
    return result, raw, scaled


def metric_units(kind):
    """{name: unit} of the `kind` ("end_to_end" or "per_layer") metrics that
    BENCHMARK.json declares; the benchmark prints exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- set-up ----------------------------------------------------------------

class SetupError(Exception):
    pass


def import_d2kit():
    """Import d2kit and its CLI from scratch, dropping any copy already
    loaded."""
    for name in [m for m in sys.modules if m == "d2kit" or m.startswith("d2kit.")]:
        del sys.modules[name]
    d2 = importlib.import_module("d2kit")
    importlib.import_module("d2kit.cli")
    return d2


# --- running jobs ----------------------------------------------------------

def run_job(job, tracer, job_id, probe):
    def traced_run():
        tracer.begin_job(job_id)
        try:
            return job.run(), None
        except Exception as e:  # one job's failure is reported; the run goes on
            return None, f"{type(e).__name__}: {e}"
        finally:
            tracer.end_job()

    gc.collect()
    (result, error), elapsed, scaled = timed(traced_run, probe)
    status = "failed"
    if error is None:
        try:
            status = job.check(result)
        except Exception as e:
            error = f"check: {type(e).__name__}: {e}"
    return {"job": job.name, "seconds": elapsed, "scaled_s": scaled,
            "status": status, "error": error}


def run_set(jobs, tracer, set_id, probe=True):
    return [run_job(job, tracer, f"{set_id}/{i}", probe)
            for i, job in enumerate(jobs)]


def set_wall(rows, key="seconds"):
    return sum(r[key] for r in rows)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def measure(setup, args, workdir):
    """Rounds of set-ups and job sets until `args.seconds` have passed.
    Returns the last job list, the set-up times, the untraced sets and,
    with tracing, the traced sets and their tracer. The wrappers are
    installed only for the traced set of a round."""
    idle, tracer = spans.Tracer(), spans.Tracer()
    setup_times, plain, traced = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            try:
                jobs, _, scaled = timed(lambda: setup(
                    import_d2kit(), args.seed, args.smoke, workdir))
            except Exception as e:
                raise SetupError(f"{type(e).__name__}: {e}") from e
            setup_times.append(scaled)
        plain.append(run_set(jobs, idle, f"u{len(plain)}"))
        if args.trace:
            uninstall = spans.install(tracer)
            try:
                traced.append(run_set(jobs, tracer, f"t{len(traced)}",
                                      probe=False))
            finally:
                uninstall()
        took = perf_counter() - t0
        if args.smoke or perf_counter() - start + took > args.seconds:
            return jobs, setup_times, plain, traced, tracer


# --- metrics ---------------------------------------------------------------

def end_to_end_metrics(sets, setup_times):
    times = [r["scaled_s"] for rows in sets for r in rows]
    values = {
        "wall_s": statistics.median(set_wall(rows, "scaled_s") for rows in sets),
        "job_p50_s": nearest_rank(times, 0.5),
        "job_p90_s": nearest_rank(times, 0.9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": unit}
            for k, unit in metric_units("end_to_end").items()}


def per_layer_metrics(plain, traced, tracer, rates):
    calls, self_s, incl, roots = spans.self_times(tracer.spans)
    counters = tracer.counters
    n = len(traced)
    v = {}
    for span in calls:
        v[f"{span}.calls"] = calls[span] / n
        v[f"{span}.self_s"] = self_s[span] / n
    for key, value in counters.items():
        v[key] = value / n
    v["intlinalg.max_entry_bits"] = counters["intlinalg.max_entry_bits"]
    certificates = counters["chains.certify_chain_equivalence.certificates"]
    if certificates:
        v["chains.certify_chain_equivalence.units_per_certificate"] = (
            counters["chains.certify_chain_equivalence.budget_units"] / certificates)
    tc_time = incl["coset.todd_coxeter.hlt"] + incl["coset.todd_coxeter.felsch"]
    if tc_time:
        v["coset.todd_coxeter.cosets_per_s"] = (
            counters["coset.todd_coxeter.cosets"] / tc_time)
    if incl["tietze.deficiency_search"]:
        v["tietze.deficiency_search.nodes_per_s"] = (
            counters["tietze.deficiency_search.visited"]
            / incl["tietze.deficiency_search"])
    for layer in spans.LAYERS:
        v[f"{layer}.self_s"] = sum(
            s for span, s in self_s.items() if span.startswith(layer + ".")) / n
    traced_wall = statistics.fmean(set_wall(rows) for rows in traced)
    v["trace.wall_s"] = traced_wall
    v["trace.outside_s"] = traced_wall - roots / n
    v["trace.overhead_s"] = traced_wall - statistics.fmean(
        set_wall(rows) for rows in plain)
    v.update(rates)
    units = metric_units("per_layer")
    return ({k: {"value": v.get(k, 0), "unit": unit} for k, unit in units.items()},
            {k: x for k, x in sorted(v.items()) if k not in units})


# --- run record ------------------------------------------------------------

def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def job_summary(sets, jobs):
    out = []
    for i, job in enumerate(jobs):
        rows = [s[i] for s in sets]
        out.append({"job": job.name, "sizes": job.sizes, "runs": len(rows),
                    "median_s": statistics.median(r["seconds"] for r in rows),
                    "median_scaled_s": statistics.median(
                        r["scaled_s"] for r in rows),
                    "statuses": sorted({r["status"] for r in rows})})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set on the smallest input of the workload")
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "d2kit" / "__init__.py").is_file():
        print(f"perfbench: no d2kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            jobs, setup_times, plain, traced, tracer = measure(
                WORKLOADS[args.workload], args, Path(tmp))
        except SetupError as e:
            print(f"perfbench: set-up of {args.workload} failed: {e}",
                  file=sys.stderr)
            return 2
    sets = plain + traced

    rows = [r for s in sets for r in s]
    failures = [r for r in rows if r["status"] == "failed"]
    unresolved = [r for r in rows if r["status"] == "unresolved"]
    rates = {"jobs.fail_rate": len(failures) / len(rows),
             "jobs.unresolved_rate": len(unresolved) / len(rows)}
    extra = {}
    if args.trace:
        metrics, extra = per_layer_metrics(plain, traced, tracer, rates)
    else:
        metrics = end_to_end_metrics(plain, setup_times)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": load_at_start,
        "job_sets": len(sets), "jobs_per_set": len(jobs),
        "set_walls_s": [set_wall(rows) for rows in sets],
        "set_walls_scaled_s": [set_wall(rows, "scaled_s") for rows in sets],
        "setups_scaled_s": setup_times, "jobs": job_summary(sets, jobs),
        "fail_rate": rates["jobs.fail_rate"],
        "unresolved_rate": rates["jobs.unresolved_rate"],
        "failures": [f"{r['job']}: {r['error']}" for r in failures],
        "unresolved": [r["job"] for r in unresolved],
        "unlisted_metrics": extra,
    }
    for message in record["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    for name in record["unresolved"]:
        print(f"perfbench: UNRESOLVED {name}", file=sys.stderr)
    # Every job expects a definite answer on every seed (README.md, "Output
    # checks"), so an honest unknown/incomplete still counts as failed here;
    # the run record keeps the two rates apart.
    bad = len(failures) + len(unresolved)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bad == 0, "attempted": len(rows),
                      "failed": bad, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
