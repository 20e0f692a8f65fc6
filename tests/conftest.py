"""Shared pytest hooks: every run says which Python and numpy it ran on.

The pinned outputs (golden files, digests) were taken on CPython 3.11.7 and
numpy 2.4.6, and the row-sum test follows numpy's own summation order; a
failure elsewhere must say where it ran.
"""

import platform

import numpy as np


def _versions() -> str:
    return f"Python {platform.python_version()}, numpy {np.__version__}"


def pytest_report_header(config):
    return f"fuzzfolio: {_versions()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header, so a failing run names its versions again at the end
    if exitstatus != 0:
        terminalreporter.write_line(f"fuzzfolio: these tests ran on {_versions()}")
