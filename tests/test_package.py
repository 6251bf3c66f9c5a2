"""The package as its README presents it: the documented example runs, and
the version the package reports is the one it is built with."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relay_rtm

_ROOT = Path(__file__).resolve().parents[1]
_EXAMPLES = re.findall(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def test_readme_examples_run_as_written():
    # each in a fresh interpreter with every warning an error, so the
    # import line and each call are checked as a user would run them
    src = str(Path(relay_rtm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    assert _EXAMPLES
    for code in _EXAMPLES:
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert math.isfinite(float(done.stdout.split()[-1]))


def test_version_is_the_built_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert relay_rtm.__version__ == project["version"]
