"""Every demo runs to exit 0, with warnings as errors, and prints the same
bytes under any hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path, hash_seed):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    # pytest's -W error does not reach a subprocess, so the demo gets its own
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(filter(None, paths)),
        PYTHONDEVMODE="1",
        PYTHONWARNINGS="error",
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=60
    )


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_is_independent_of_the_hash_seed(demo):
    first, second = run_demo(demo, "1"), run_demo(demo, "2")
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout
