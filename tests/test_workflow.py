"""CI's workflow loads as YAML, and every step's shell script parses under ``bash -n``."""
import re
import subprocess
from pathlib import Path

import pytest
import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


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
