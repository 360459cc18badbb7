"""A time limit on every test of both test paths, `tests` and `bench`.

A test that runs longer than LIMIT_S seconds, set-up and teardown
included, dumps the stack of every thread to the terminal's stderr and
ends the whole run with exit code 1.  A change that never terminates
then fails the suite instead of stalling it.  The slowest test takes
about 3 s.
"""

import faulthandler
import os
import sys

import pytest

LIMIT_S = 60
_STDERR = pytest.StashKey[int]()  # a copy of the terminal's stderr, which no capture replaces


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(LIMIT_S, exit=True, file=item.config.stash[_STDERR])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
