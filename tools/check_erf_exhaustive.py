"""Check the GELU's ``erf`` against scipy on every float32 bit pattern.

    python3 tools/check_erf_exhaustive.py [--workers 2]

Runs ``dnamlm.model.network._erf`` and ``scipy.special.erf`` on all 2**32
float32 bit patterns (both signs, subnormals, inf and every NaN) and
compares the outputs byte for byte.  Prints the numpy and scipy versions,
the mismatch count and the first mismatching inputs; exits 1 on any
mismatch and 0 otherwise; with 2 workers it took about 70 s on a 2-core
x86-64 VM.  Needs scipy, which the program itself does not.
Rerun it when numpy changes: the |x| > 1 branch rounds numpy's float64
``exp``.  The tier-1 suite checks a strided sample and all of [1, 4) against
a digest instead.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy
from scipy.special import erf as scipy_erf

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from dnamlm.model.network import _erf  # noqa: E402

TASK = 1 << 26  # bit patterns per worker task
BLOCK = 1 << 22  # bit patterns per array


def check(start: int) -> tuple[int, list[str]]:
    """Mismatches among the patterns [start, start + TASK), and the first few."""
    mismatches, first = 0, []
    for lo in range(start, start + TASK, BLOCK):
        x = np.arange(lo, lo + BLOCK, dtype=np.uint64).astype(np.uint32).view(np.float32)
        with np.errstate(invalid="ignore"):  # signalling NaNs warn when widened
            got = _erf(x, np.empty_like(x)).view(np.uint32)
            want = scipy_erf(x).view(np.uint32)
        bad = np.flatnonzero(got != want)
        mismatches += bad.size
        first += [f"0x{lo + i:08x}: 0x{got[i]:08x} != scipy 0x{want[i]:08x}" for i in bad[:3]]
    return mismatches, first[:3]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    t0 = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=args.workers, mp_context=spawn) as pool:
        results = list(pool.map(check, range(0, 1 << 32, TASK)))
    mismatches = sum(n for n, _ in results)
    print(f"numpy {np.__version__}, scipy {scipy.__version__}: {mismatches} mismatches "
          f"in {1 << 32} float32 bit patterns ({time.perf_counter() - t0:.0f} s, "
          f"{args.workers} workers)")
    for n, first in results:
        for line in first:
            print("  " + line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
