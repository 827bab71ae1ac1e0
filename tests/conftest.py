import os
import sys
from pathlib import Path

# allow running the tests from a fresh checkout without installation, in
# this process and in every child process a test starts
_src = str(Path(__file__).resolve().parent.parent / "src")
if _src not in sys.path:
    sys.path.insert(0, _src)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_src, os.environ.get("PYTHONPATH"))))
# a warning in a child process (a demo, a CLI run) fails its test too, as
# pyproject's filterwarnings = ["error"] makes it fail in this one
os.environ["PYTHONWARNINGS"] = "error"
