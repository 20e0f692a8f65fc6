"""Shared pytest hooks: every run says which Python, numpy and BLAS it ran on.

The pinned outputs (golden files, digests) were taken on CPython 3.11.7 and
numpy 2.4.6, and every c . x the program prints follows numpy's own pairwise
summation order, not the BLAS kernel's.  A DYNAMIC_ARCH OpenBLAS picks its
kernels by CPU at start-up, or takes the family that ``OPENBLAS_CORETYPE``
names; the header names both, so a failure elsewhere says where it ran.
"""

import os
import platform

import numpy as np
import pytest


def _blas() -> dict:
    """numpy's BLAS as its build records it; empty before numpy 1.26, which cannot say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}


def _versions() -> str:
    blas = _blas()
    text = f"Python {platform.python_version()}, numpy {np.__version__}, BLAS {blas.get('name', 'unknown')}"
    if blas:
        dynamic = "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
        text += f" {blas.get('version', '?')} ({'' if dynamic else 'not '}DYNAMIC_ARCH)"
    if "OPENBLAS_CORETYPE" in os.environ:
        text += f", OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}"
    return text


@pytest.fixture(scope="session")
def blas() -> dict:
    return _blas()


def pytest_report_header(config):
    return f"fuzzfolio: {_versions()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header, so a failing run names its versions again at the end
    if exitstatus != 0:
        terminalreporter.write_line(f"fuzzfolio: these tests ran on {_versions()}")
