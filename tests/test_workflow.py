"""CI's workflow loads as YAML, every step's shell script parses under ``bash -n``, and its lowest
Python is the package's minimum."""
import re
import subprocess
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def run_steps():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return {f"{job}/{step['name']}": step["run"]
            for job, spec in jobs.items() for step in spec["steps"] if "run" in step}


@pytest.mark.parametrize("step", sorted(run_steps()))
def test_step_script_parses_as_bash(step):
    # GitHub replaces each ``${{ expression }}`` with its value before the shell sees the script.
    script = re.sub(r"\$\{\{.*?\}\}", "value", run_steps()[step])
    done = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_lowest_ci_python_is_the_requires_python_minimum():
    # A regex, not tomllib, which Python 3.10 lacks.
    minimum = re.search(r'^requires-python = ">=(\d+\.\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    versions = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["strategy"]["matrix"]["python-version"]
    assert minimum and min(versions, key=lambda v: tuple(map(int, v.split(".")))) == minimum[1]
