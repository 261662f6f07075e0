"""Shared pytest hooks: a one-line pass/fail digest for the acceptance suite.

The de Rham goldens pin ARPACK output bits, which depend on the number of
OpenBLAS threads; they were recorded with two.  NumPy is not yet loaded
when this file is, so setting the count here holds for the whole test run
on any host.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "2"

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE[name] = report.outcome  # errors and skips surface too


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        tag = "PASS" if outcome == "passed" else outcome.upper()
        label = name.removeprefix("test_")
        number, _, rest = label.partition("_")
        terminalreporter.write_line(
            f"[{tag}] {number.upper()} {rest.replace('_', ' ')}")
