"""Make ``tools.analysis`` importable when tests run with PYTHONPATH=src.

The analysis framework lives at the repo root (``tools/``), outside the
``src`` layout, so the test process needs the root on ``sys.path``.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)
