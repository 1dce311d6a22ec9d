"""Prints a one-line pass/fail summary per acceptance criterion at the end
of every pytest run (the criteria live in tests/test_acceptance.py and are
named test_criterion_NN_<slug>), and keeps tests marked `slow` out of a run
unless it passes --runslow."""

import re

import pytest

_results = {}
_PATTERN = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _PATTERN.search(report.nodeid)
    if m:
        num = int(m.group(1))
        label = m.group(2).replace("_", " ")
        _results[num] = (label, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(_results):
        label, outcome = _results[num]
        status = "PASS" if outcome == "passed" else outcome.upper()
        tr.write_line(f"criterion {num:2d} ({label}): {status}")


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running; runs only with --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow: needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
