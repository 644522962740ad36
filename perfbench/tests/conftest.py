import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402  (needs the path above; imports no numpy)

# As in run.main: numpy must first load with the children's BLAS thread
# count, or the in-process traced pass writes other bytes than the children.
os.environ.update(run.PINNED_ENV)
