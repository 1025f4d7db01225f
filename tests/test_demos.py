import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
