"""A failing Hypothesis test under warnings-as-errors reports its failure:
printing the failing example must not raise a warning inside pytest's hooks."""

FAILING_TEST = """
import pytest
from hypothesis import given, settings, strategies as st


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, database=None)
@given(st.integers())
def test_always_fails(n):
    assert n is None
"""


def test_failing_hypothesis_test_under_warnings_as_errors_is_a_failure(pytester):
    pytester.makepyfile(FAILING_TEST)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    assert not [line for line in result.outlines + result.errlines if "INTERNALERROR" in line]
    result.assert_outcomes(failed=1)
