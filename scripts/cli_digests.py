#!/usr/bin/env python3
"""Print the sha256 and exit code of each command of a seeded CLI census.

    python3 scripts/cli_digests.py [--seed S] [--count N]

Draws N commands of each kind from random.Random(S) (default seed 0, N 20)
and runs them in this process through qdelta.cli.main:

- `scan` over random boxes at unit scale and at 1e-150, 1e150 and 1e200
  (where the closed forms overflow: exit 3), on grids of up to 40x300 cells
  and on 2-3 v1 rows of more than 8,192 cells;
- `ss`, `ss --json` and `ss --json --out` on eight fixed pairs with a zero,
  degenerate, equal, subnormal or overflowing strength, on log-uniform
  strengths of either sign within 1e±3 or 1e±300 (some far enough apart in
  scale to fail), and on unit-scale pairs from the lossy quadrant and the
  v2 > 0 band, whose reports confirm one and two double roots;
- `sweep` as CSV and as `--format=json`;
- `plot --out`, whose SVG file is part of its digest, as the JSON file is
  of `ss --json --out`.

Prints one line `sha256 exit-code command` per command: the digest of the
bytes it wrote to stdout, a NUL, those it wrote to stderr, a NUL and those of
its --out file (empty without one). Run it on two trees and diff the outputs
to see which command's bytes a change moved. The census holds 10 N + 24
commands: the default of 224 takes about 0.35 s on a 2-core machine.
"""

import argparse
import contextlib
import hashlib
import io
import os
import random
import tempfile
from pathlib import Path
from typing import Iterator

from qdelta.cli import main as cli_main
from qdelta.singular import KAPPA

# Pairs whose branches have a zero g^2 or beta, or a degenerate sum; equal
# strengths; subnormal strengths, whose g^2 underflows; and strengths whose
# g^2 overflows when scaled back (both exit 3).
_EDGE_PAIRS = ((-1.0, 0.0), (0.0, 2.0), (-0.0, -1.0), (0.0, 0.0), (-0.5, 3.0),
               (-2.0, -2.0), (-5e-324, -1e-321), (-1e200, -2e200))


def _strength(rng: random.Random, span: float = 3.0) -> float:
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-span, span)


def _axis(rng: random.Random, scale: float) -> tuple[float, float]:
    lo, hi = sorted(rng.uniform(-10.0, 10.0) * scale for _ in range(2))
    return lo, hi if hi > lo else lo + scale


def _unit_pair(rng: random.Random, k: int) -> tuple[float, float]:
    """A lossy-quadrant pair for even k, a v2 > 0 band pair for odd k."""
    if k % 2 == 0:
        return -10.0 * (1.0 - rng.random()), -10.0 * (1.0 - rng.random())
    v2 = 0.1 + 9.9 * (1.0 - rng.random())
    return KAPPA * v2 * (1.0 - rng.random()), v2


def census(rng: random.Random, count: int, plot_path: str,
           ss_path: str) -> Iterator[list[str]]:
    """The argv of each command, count of each kind (three per ss pair), scans first."""
    for k in range(count):
        scale = (1.0, 1e-150, 1e150, 1e200)[k % 4]
        n1, n2 = (rng.randint(2, 3), rng.randint(8_193, 20_000)) if k % 5 == 4 else (
            rng.randint(2, 40), rng.randint(2, 300))
        (a, b), (c, d) = _axis(rng, scale), _axis(rng, scale)
        yield ["scan", f"--v1-min={a!r}", f"--v1-max={b!r}", f"--v2-min={c!r}",
               f"--v2-max={d!r}", f"--n1={n1}", f"--n2={n2}"]
    spans = (3.0, 300.0)
    pairs = [*_EDGE_PAIRS, *((_strength(rng, spans[k % 2]), _strength(rng, spans[k % 2]))
                             for k in range(count))]
    pairs += [_unit_pair(rng, k) for k in range(count)]
    for v1, v2 in pairs:
        yield ["ss", f"--v1={v1!r}", f"--v2={v2!r}"]
        yield ["ss", f"--v1={v1!r}", f"--v2={v2!r}", "--json"]
        yield ["ss", f"--v1={v1!r}", f"--v2={v2!r}", "--json", f"--out={ss_path}"]
    for _ in range(count):
        e_min = 10.0 ** rng.uniform(-3.0, 1.0)
        argv = ["sweep", f"--v1={_strength(rng)!r}", f"--v2={_strength(rng)!r}",
                f"--g2={10.0 ** rng.uniform(-3.0, 3.0)!r}", f"--emin={e_min!r}",
                f"--emax={e_min * 10.0 ** rng.uniform(0.1, 3.0)!r}",
                f"--steps={rng.randint(2, 2_000)}"]
        yield argv
        yield [*argv, "--format=json"]
    for _ in range(count):
        yield ["plot", f"--v1={_strength(rng)!r}", f"--v2={_strength(rng)!r}",
               f"--g2={10.0 ** rng.uniform(-2.0, 2.0)!r}", f"--out={plot_path}"]


def digest(argv: list[str], out_path: str | None) -> tuple[str, int]:
    """(sha256, exit code) of one command run through qdelta.cli.main."""
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    written = Path(out_path).read_bytes() if out_path and os.path.exists(out_path) else b""
    text = out.getvalue().encode() + b"\0" + err.getvalue().encode() + b"\0" + written
    return hashlib.sha256(text).hexdigest(), code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20, help="commands of each kind")
    args = parser.parse_args()
    if args.count < 0:
        parser.error("--count must not be negative")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {os.path.join(tmp, "plot.svg"): "PLOT.svg",
                 os.path.join(tmp, "ss.json"): "SS.json"}
        for argv in census(random.Random(args.seed), args.count, *paths):
            out_path = next((path for path in paths if f"--out={path}" in argv), None)
            sha, code = digest(argv, out_path)
            shown = [arg.replace(out_path, paths[out_path]) if out_path else arg for arg in argv]
            print(sha, code, " ".join(shown), flush=True)


if __name__ == "__main__":
    main()
