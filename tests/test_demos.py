"""The demos print what they printed before: their stdout is pinned by digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_randomization_bias_demo_output_is_pinned():
    # 2 x 100,000 Monte Carlo permutations: a full-size byte check of the
    # batch permutation kernel
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_randomization_bias.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
    )
    digest = hashlib.sha256(result.stdout).hexdigest()
    assert digest == "0cae701cd8545141c628c7f2eca446522d11ca306ae362af4e962ff84d369313"
