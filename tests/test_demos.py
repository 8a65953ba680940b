"""The demos print what they printed before: the stdout of each one is
pinned by digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    # 2 x 100,000 Monte Carlo permutations: a full-size byte check of the
    # batch permutation kernel
    "01_randomization_bias.py": "0cae701cd8545141c628c7f2eca446522d11ca306ae362af4e962ff84d369313",
    # template, presets and cross-validation at three stimulus intervals
    "02_synthetic_recordings.py": "a82d1248109235fc210c33a4c82f0c04b288ea7e01127ad4cda5c88ce4dbf6fd",
    # closed-form channel arithmetic
    "03_channel_capacity.py": "558433c9561735d9e6491762c91ef474cdecafe15d80c9831d59c70a59a19b56",
    # calibration, final fit and a closed-loop session for two subjects
    "04_closed_loop_session.py": "63bfb7388dbe2fbd6148b948518358f4ff8165db057c27bc0bca0e6a36cbc706",
}


@pytest.mark.parametrize("demo, digest", sorted(PINNED.items()), ids=sorted(PINNED))
def test_demo_output_is_pinned(demo, digest):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == digest
