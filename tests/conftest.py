"""Per-test hang guard.

A test that runs longer than HANG_LIMIT_S seconds, counting its setup
and teardown, dumps the traceback of every thread to stderr and ends
the whole run with exit code 1, so a loop that never exits shows where
it is instead of stalling the suite.
"""

import faulthandler
import os

import pytest

# well above the slowest test, the Monte Carlo acceptance test A10
# (about 25 s on 2 cores, and bounded at 600 s by its own check)
HANG_LIMIT_S = 900

_stderr = {}


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output is not
    # captured, so that the dump is not lost in a test's captured output
    _stderr["fd"] = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr.pop("fd"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=_stderr["fd"])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
