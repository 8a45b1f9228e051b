#!/usr/bin/env python3
"""Compare g17.Formatter with CPython's '%.17g' on random float64 bit patterns.

    python3 scripts/check_g17.py [--count N] [--seed S]

Draws N uniformly random 64-bit patterns (default 10^7) from numpy's PCG64
seeded with S, formats them with Formatter.cells, 4,608 cells a block, and
prints the cells whose text differs from CPython's, the first few of them,
and the share of cells the kernel left to CPython: zeros, subnormals,
infinities, nans, scaled values whose fraction lies within 2^-7 of 1/2, and
those whose integer part lies outside [10^16, 10^17 - 1), where the decimal
exponent was one off or the 17 digits could round up. Exits 1 if any cell
differs. 10^7 cells take about 8 s on a 2-core machine, most of it CPython's
side.
"""

import argparse
import sys

import numpy as np

from qdelta.g17 import Formatter

BLOCK = 512 * 9             # the cells of one sweep CSV block
CHUNK = BLOCK * 200


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=10 ** 7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    fmt = Formatter(BLOCK, 1)
    done = fallbacks = 0
    mismatches = []
    while done < args.count:
        size = min(CHUNK, args.count - done)
        x = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64)
        cells = fmt.cells(x)
        fallbacks += fmt.fallbacks
        mismatches += [(value, got) for value, got in zip(x.tolist(), cells, strict=True)
                       if got != "%.17g" % value]
        done += size
    print(f"{done} random bit patterns (seed {args.seed}): {len(mismatches)} mismatches, "
          f"{fallbacks} ({100.0 * fallbacks / done:.2f} %) formatted by CPython")
    for value, got in mismatches[:10]:
        print(f"  {value!r}: {got!r} != {'%.17g' % value!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
