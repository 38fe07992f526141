"""Make ``ledger`` and ``repro`` importable for the ledger's own tests.

These tests are outside tier-1's ``testpaths``; run them with
``python3 -m pytest ledger/tests -q`` from the repository root.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
# mesh workers are child interpreters: they need the path too
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
