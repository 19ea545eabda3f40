"""scripts/digests.py: the same bytes at any BLAS thread count.

The moments sum each bin's samples by numpy reductions, never by a BLAS
product, so a fit's arrays do not depend on how many threads the BLAS
library runs.  The small set's bins hold tens of thousands of samples,
enough for a threaded BLAS reduction to split its sums."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digests.py"


def digests(threads: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--set", "small", "--threads", str(threads)],
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


def test_small_set_same_bytes_at_one_and_two_blas_threads():
    one, two = digests(1), digests(2)
    assert one[-1].endswith("  total") and len(one) == 7
    assert one == two
