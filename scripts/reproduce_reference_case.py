#!/usr/bin/env python3
"""Reproduce the reference resonance curves at desk scale.

Recovers the strength pair (v1, v2) from the published singularity constants,
prints both closed-form branches with oracle confirmation, and writes one CSV
and one SVG per branch into the output directory.
"""

import argparse
from pathlib import Path

from qdelta.cli import _output, rows_to_csv, ss_report
from qdelta.oracle import minimize_dsq, potential_from_ss_pairs
from qdelta.scatter import DeltaPotential, sweep
from qdelta.singular import classify_region, ss_closed_form
from qdelta.svgplot import render_curves_svg
from qdelta.verify import REFERENCE_PAIRS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--emin", type=float, default=0.05)
    parser.add_argument("--emax", type=float, default=4.0)
    parser.add_argument("--steps", type=int, default=4000)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    v1, v2 = potential_from_ss_pairs(*REFERENCE_PAIRS)
    print(f"strength pair recovered from the singularity constants: "
          f"v1={v1:g}, v2={v2:g}")
    print(f"region classification: {classify_region(v1, v2).value}")

    plus, minus = ss_closed_form(v1, v2)
    oracle = ss_report(v1, v2)["oracle"]
    for sol in (plus, minus):
        pot = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
        beta_star, dsq = minimize_dsq(pot)
        confirm = oracle[sol.branch.value]
        print(f"{sol.branch.value:>5} branch: g2={sol.g_squared:.12g} "
              f"beta={sol.beta:.12g} E={sol.energy:.12g}")
        print(f"       |D(beta)| = {confirm['abs_denominator']:.3e}, "
              f"min |D|^2 = {dsq:.3e} at beta = {beta_star:.12f}, "
              f"double root at beta = {confirm['double_root_beta']:.12f} "
              f"(x{confirm['double_root_multiplicity']})")

        res = sweep(pot, args.emin, args.emax, args.steps)
        csv_path = outdir / f"curves_{sol.branch.value}.csv"
        with _output(csv_path) as fh:
            rows_to_csv(res, fh)
        markers = [s.energy for s in (plus, minus)
                   if s.feasible and args.emin <= s.energy <= args.emax]
        svg_path = outdir / f"curves_{sol.branch.value}.svg"
        with _output(svg_path) as fh:
            fh.write(render_curves_svg(res.energy.tolist(), res.big_r.tolist(),
                                       res.big_t.tolist(), markers,
                                       f"v1={v1:g} v2={v2:g} g2={sol.g_squared:.6g} "
                                       f"({sol.branch.value} branch)"))
        print(f"       wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
