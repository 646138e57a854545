from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_lets_the_rest_of_the_suite_run(pytester):
    # Hypothesis's failure report imports modules that warn on import; under the project's
    # warning filters that must not end the run before the passing test reports.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(
        test_pair="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_pair.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
