import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ("demo_congruences.py", "demo_identities.py",
                                  "demo_sequences.py", "demo_suite.py"))
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, timeout=120)
    assert "No module named" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
