import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))
