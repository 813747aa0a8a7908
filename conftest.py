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

The process has one helper thread (fgcnn.nn), shared by every test. After
each test that has it running, a marker job queued at the back must be run
by that thread within 10 seconds, so a test that leaves a job blocking the
helper fails its own teardown rather than slowing or stalling later tests.
"""
import faulthandler
import os
import sys
import threading

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


@pytest.fixture(autouse=True)
def _helper_is_free():
    yield
    nn = sys.modules.get("fgcnn.nn")
    if nn is None or nn._thread is None:
        return
    ran_on, ran = [], threading.Event()

    def marker():
        ran_on.append(threading.current_thread())
        ran.set()
    job = nn.fork(marker, first=False)
    assert ran.wait(10.0), "a job left by this test blocks the helper thread"
    job.wait()
    assert ran_on == [nn._thread]
