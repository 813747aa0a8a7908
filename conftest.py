"""Test-session setup shared by every test directory.

BLAS and OpenMP pools are pinned to one thread before anything imports
numpy (pytest loads this file first, and numpy reads these variables when
it loads its BLAS), as perfbench/run.py does: the tests then run the
benchmark's arithmetic, and training's helper thread does not share the
cores with a BLAS pool.

A watchdog ends the session with every thread's stack when one test phase
(setup, call or teardown) runs longer than 600 seconds, so a deadlock
fails the suite with its place instead of hanging it. The slowest phase
takes under a minute on a 2-vCPU host.
"""
import faulthandler
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

_stderr_fd = None     # the terminal's stderr, which a phase's output capture replaces


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr_fd)


def _watched():
    faulthandler.dump_traceback_later(600, exit=True, file=_stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _watched()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _watched()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    yield from _watched()
