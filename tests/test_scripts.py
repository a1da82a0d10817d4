"""The scripts the README lists run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
LAST_LINES = {
    "arith_demo.py": "none found: the successor sentences already force an infinite carrier",
    "validity_scan.py": "no axiom instance was refuted, as it should be",
}


@pytest.mark.parametrize("script, last_line", LAST_LINES.items(), ids=LAST_LINES)
def test_documented_script_runs(script, last_line):
    assert f"`scripts/{script}`" in (ROOT / "README.md").read_text(encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == last_line
