"""The per-test time limit of ``conftest.py``: a test or fixture that loops
fails."""

import time
from pathlib import Path

pytest_plugins = ["pytester"]


def test_a_looping_test_fails_within_its_limit(pytester):
    conftest = Path(__file__).with_name("conftest.py").read_text()
    assert "TEST_SECONDS = 30\n" in conftest
    pytester.makeconftest(conftest.replace("TEST_SECONDS = 30\n", "TEST_SECONDS = 0.2\n"))
    pytester.makepyfile(test_loop="""
        import pytest

        @pytest.fixture
        def looping():
            while True:
                pass

        def test_loops():
            while True:
                pass

        def test_loops_in_setup(looping):
            pass

        def test_returns():
            pass
    """)
    t0 = time.perf_counter()
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider", "-W", "ignore")
    assert time.perf_counter() - t0 < 1.5
    result.assert_outcomes(passed=1, failed=1, errors=1)
    result.stdout.fnmatch_lines_random([
        "*DeadlineExceeded: test_loop.py::test_loops ran past its limit of 0.2 s in call*",
        "*DeadlineExceeded: test_loop.py::test_loops_in_setup ran past its limit of 0.2 s in setup*",
    ])
