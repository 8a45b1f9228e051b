#!/usr/bin/env python3
"""Print the sha256 of the verify report for each seed of a range.

    python3 scripts/verify_digests.py [--first A] [--last B] [--trials N]

Prints one line `seed trials sha256` per seed from A to B inclusive (default
0 to 9, 10^4 trials): the digest of the bytes that `qdelta verify --seed=SEED
--trials=N` writes to stdout. Run it on two trees and diff the outputs to see
whether a change moved any report. The reports are computed in this process,
about 15 ms each at 10^4 trials on a 2-core machine.
"""

import argparse
import hashlib

from qdelta.verify import run_and_render


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--last", type=int, default=9, help="last seed, included")
    parser.add_argument("--trials", type=int, default=10000)
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be positive")
    for seed in range(args.first, args.last + 1):
        _, text = run_and_render(seed, args.trials)
        print(seed, args.trials, hashlib.sha256(text.encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
