"""The demos print what they printed before: their stdout is pinned by digest.

Demos 02 and 03 are not pinned: each prints a line that depends on whether
matplotlib is installed, and each writes a PNG into the working directory.
"""

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
