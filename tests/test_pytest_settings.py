"""The project's pytest settings must let a failing property test fail alone.

With every warning an error, a deprecation warning raised in hypothesis'
report hook when a ``@given`` test fails turns into INTERNALERROR, and the
run stops before the tests after it.  This runs one failing property test
and one passing test in a fresh pytest process under the project's own
``filterwarnings``.
"""

pytest_plugins = ["pytester"]

FAILING_THEN_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_property_fails(n):
    assert n != n


def test_runs_after_the_failure():
    assert True
"""


def test_failing_property_test_does_not_abort_the_run(pytester, pytestconfig):
    lines = "".join(f"    {w}\n" for w in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{lines}")
    pytester.makepyfile(test_pair=FAILING_THEN_PASSING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.assert_outcomes(failed=1, passed=1)
