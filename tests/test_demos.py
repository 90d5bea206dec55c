"""Every demo runs to exit 0, with warnings as errors, and prints the same
bytes under any hash seed: the bytes pinned here by their sha256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; a change to what a demo prints, such as a
# repr that leaks into it, must update its pin here
STDOUT_SHA256 = {
    "01_words_and_normal_forms": "35162a8b6345ce8015ec008c870d98496d6b231e35cfde9ffba3464564329721",
    "02_deciding_identities": "68e131acfb0ba20622e7def1ad463fdc52b6e84ff06c28e76730adb403054c7d",
    "03_finite_models": "06483ad0267f67fec232c5ffc01a4bd49a9bb20cf923727cf324903a3a33d4a6",
    "04_lattice_tour": "a5bf84b635389912181ce7d5308770353a20196aac3def21efba6b0f27f1392f",
    "05_enumeration_census": "745121f4d3011d8652eba4632090afd0e943b2d35825c6ec4e1c22c2b363fa3d",
    "06_derivation_replay": "a475ecb6239e7347e17304ef90eaee126107e0a207d0e183107ff7d2595392af",
}


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
    assert [path.stem for path in DEMOS] == list(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_is_independent_of_the_hash_seed(demo):
    first, second = run_demo(demo, "1"), run_demo(demo, "2")
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
