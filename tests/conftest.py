import os
import subprocess
import sys

import pytest

import wordlab


@pytest.fixture
def run_python_O():
    """Run a python source string under `python -O`, which strips `assert`,
    with this checkout's wordlab importable; returns the CompletedProcess."""
    def run(code):
        env = dict(os.environ)
        env.pop("PYTHONOPTIMIZE", None)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(wordlab.__file__))
        return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
