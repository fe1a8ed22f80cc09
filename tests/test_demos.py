"""Every demo runs to completion with nothing on stderr."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(
    glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "demos", "*.py"))
)


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, src_env, tmp_path):
    result = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, env=src_env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
    assert list(tmp_path.iterdir()) == []
