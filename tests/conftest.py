import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from walkup import catalog

settings.register_profile(
    "suite", deadline=None, max_examples=40, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

FIVE_COMPLEXES = ("A5_21", "B5_21", "B5_26", "A5_41")
FOUR_MANIFOLDS = ("M4_21", "N4_21", "N4_26", "M4_41")

# the wall-clock limit of each phase of a test (setup, call, teardown), so a
# test or fixture that hangs fails with its name instead of stalling the
# suite; the slowest test, slow ones included, takes about 2 s
TEST_SECONDS = 30


class DeadlineExceeded(BaseException):
    """Raised in a test phase that runs past its limit.  Not an
    ``Exception``, so neither an ``except Exception`` in the code under test
    nor Hypothesis, which would shrink and so run the test again, catches
    it."""


@contextmanager
def deadline(item, phase):
    def expire(signum, frame):
        raise DeadlineExceeded(
            f"{item.nodeid} ran past its limit of {TEST_SECONDS} s in {phase}")

    previous = signal.signal(signal.SIGALRM, expire)
    enclosing = signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:  # a test that runs pytest in-process gets its own timer back
        signal.setitimer(signal.ITIMER_REAL, *enclosing)
        signal.signal(signal.SIGALRM, previous)


# each phase runs inside pytest's own call wrapper, so an expired limit is
# reported as that phase's failure or error, never as an internal error
@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with deadline(item, "setup"):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with deadline(item, "call"):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    with deadline(item, "teardown"):
        yield


@pytest.fixture(scope="session")
def five_complexes():
    return {name: catalog.get(name) for name in FIVE_COMPLEXES}


@pytest.fixture(scope="session")
def four_manifolds():
    return {name: catalog.get(name) for name in FOUR_MANIFOLDS}
