#!/usr/bin/env python3
"""Compare g17.Formatter with CPython's '%.17g' on random float64 values.

    python3 scripts/check_g17.py [--count N] [--seed S]

Draws N uniformly random 64-bit patterns (default 10^7) from numpy's PCG64
seeded with S, and then N log-uniform values of both signs over [1e-11, 1e17),
the decimal exponents -11 to 16 where 10^p is exact and the kernel rounds all
but the exact ties itself; only about 4.6 % of the bit patterns fall there.
Each set is formatted with Formatter.text, 4,608 cells a block, and gets one
line: the cells whose text differs from CPython's, and the share of cells the
kernel left to CPython: zeros, subnormals, infinities, nans, exact ties,
scaled values whose fraction lies within 2^-7 of 1/2 where 10^p is inexact,
and those whose integer part lies outside [10^16, 10^17 - 1), where the
decimal exponent was one off or the 17 digits could round up. The first few
mismatches follow. Exits 1 if any cell differs. 10^7 cells a set take about
8 s on a 2-core machine, most of it CPython's side.
"""

import argparse
import math
import sys

import numpy as np

from qdelta.g17 import Formatter

BLOCK = 512 * 9             # the cells of one sweep CSV block
CHUNK = BLOCK * 200


def check(what: str, draw, count: int) -> list[tuple[float, str]]:
    """Format count values of draw(size) and print the result line of what;
    returns the mismatches, each a value and its kernel text."""
    fmt = Formatter(BLOCK, 1)
    done = fallbacks = 0
    mismatches = []
    while done < count:
        size = min(CHUNK, count - done)
        x = draw(size)
        cells = []
        for start in range(0, size, BLOCK):
            cells += fmt.text(x[start:start + BLOCK, None])[:-1].split("\n")
            fallbacks += fmt.fallbacks
        mismatches += [(value, got) for value, got in zip(x.tolist(), cells, strict=True)
                       if got != "%.17g" % value]
        done += size
    print(f"{done} {what}: {len(mismatches)} mismatches, "
          f"{fallbacks} ({100.0 * fallbacks / max(done, 1):.2f} %) formatted by CPython")
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=10 ** 7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    lo, hi = math.log(1e-11), math.log(1e17)
    mismatches = check(f"random bit patterns (seed {args.seed})",
                       lambda size: rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64),
                       args.count)
    mismatches += check(f"log-uniform values in [1e-11, 1e17) (seed {args.seed})",
                        lambda size: np.exp(rng.uniform(lo, hi, size)) * rng.choice([-1.0, 1.0], size),
                        args.count)
    for value, got in mismatches[:10]:
        print(f"  {value!r}: {got!r} != {'%.17g' % value!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
