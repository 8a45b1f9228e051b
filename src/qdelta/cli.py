"""Command-line front end: energy sweeps, singularity search, region scans,
the verification suite, and CSV/JSON/SVG emission.

Exit codes: 0 success, 1 I/O failure, 2 invalid arguments, 3 numerical or
assertion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import verify
from .oracle import (MatchMode, NumericalError, matching_arrays, quartic_roots,
                     real_double_root)
from .scatter import (DeltaPotential, ScatteringResult, denominator,
                      energy_grid, sweep)
from .singular import (RegionScan, SSBranchSolution, quartic_coeffs, region_of,
                       scan_region, ss_closed_form)
from .svgplot import render_curves_svg

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

CSV_COLUMNS = ("E", "beta", "re_r", "im_r", "re_t", "im_t", "R", "T", "absD")

_NUM_OR_NULL = {"type": ["number", "null"]}
_BRANCH_SCHEMA = {
    "type": "object",
    "required": ["branch", "g_squared", "beta", "energy", "feasible", "reason"],
    "additionalProperties": False,
    "properties": {
        "branch": {"enum": ["plus", "minus"]},
        "g_squared": _NUM_OR_NULL,
        "beta": _NUM_OR_NULL,
        "energy": _NUM_OR_NULL,
        "feasible": {"type": "boolean"},
        "reason": {"enum": ["OK", "NegativeGSquared", "NonPositiveBeta",
                            "ComplexSqrt", "DegenerateSum"]},
    },
}
_ORACLE_SCHEMA = {
    "type": ["object", "null"],
    "required": ["abs_denominator", "double_root_beta", "double_root_multiplicity"],
    "additionalProperties": False,
    "properties": {
        "abs_denominator": {"type": "number"},
        "double_root_beta": _NUM_OR_NULL,
        "double_root_multiplicity": {"type": ["integer", "null"]},
    },
}

# Fixed schema of the singularity JSON report.
SS_REPORT_SCHEMA = {
    "type": "object",
    "required": ["v1", "v2", "g2_plus", "g2_minus", "E_plus", "E_minus",
                 "beta_plus", "beta_minus", "classification", "branches", "oracle"],
    "additionalProperties": False,
    "properties": {
        "v1": {"type": "number"},
        "v2": {"type": "number"},
        "g2_plus": _NUM_OR_NULL,
        "g2_minus": _NUM_OR_NULL,
        "E_plus": _NUM_OR_NULL,
        "E_minus": _NUM_OR_NULL,
        "beta_plus": _NUM_OR_NULL,
        "beta_minus": _NUM_OR_NULL,
        "classification": {"enum": ["BothBranches", "PlusOnly", "MinusOnly", "None"]},
        "branches": {
            "type": "object",
            "required": ["plus", "minus"],
            "additionalProperties": False,
            "properties": {"plus": _BRANCH_SCHEMA, "minus": _BRANCH_SCHEMA},
        },
        "oracle": {
            "type": "object",
            "required": ["plus", "minus"],
            "additionalProperties": False,
            "properties": {"plus": _ORACLE_SCHEMA, "minus": _ORACLE_SCHEMA},
        },
    },
}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _num_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


class _Parser(argparse.ArgumentParser):
    """argparse takes "-1e-3" for an option, since its negative-number pattern
    has no exponent; this one reads it as a value, as it does "-0.001"."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdelta",
        description="Scattering and spectral singularities of a quaternionic "
                    "point interaction with a complex i-channel strength.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_potential(p: argparse.ArgumentParser, with_branch: bool = False) -> None:
        p.add_argument("--v1", type=float, required=True,
                       help="real part of the i-channel strength")
        p.add_argument("--v2", type=float, required=True,
                       help="imaginary part of the i-channel strength")
        p.add_argument("--g2", type=float, default=None,
                       help="j,k strength squared; implies V2=sqrt(g2), V3=0")
        p.add_argument("--V2", type=float, default=None, dest="cap_v2",
                       help="j-channel strength")
        p.add_argument("--V3", type=float, default=None, dest="cap_v3",
                       help="k-channel strength")
        if with_branch:
            p.add_argument("--branch", choices=["plus", "minus"], default=None,
                           help="take g2 from this closed-form branch")

    def add_grid(p: argparse.ArgumentParser, emin: float | None = None,
                 emax: float | None = None, steps: int | None = None) -> None:
        required = emin is None
        p.add_argument("--emin", type=float, required=required, default=emin)
        p.add_argument("--emax", type=float, required=required, default=emax)
        p.add_argument("--steps", type=int, required=required, default=steps)

    p_sweep = sub.add_parser("sweep", help="tabulate amplitudes over an energy grid")
    add_potential(p_sweep)
    add_grid(p_sweep)
    p_sweep.add_argument("--model", choices=["closed-form", "physical"],
                         default="closed-form",
                         help="closed-form amplitudes, or the literal "
                              "real-quaternion junction model")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")

    p_ss = sub.add_parser("ss", help="closed-form singularity branches with "
                                     "oracle confirmation")
    p_ss.add_argument("--v1", type=float, required=True)
    p_ss.add_argument("--v2", type=float, required=True)
    p_ss.add_argument("--json", action="store_true", dest="as_json")
    p_ss.add_argument("--out", default=None)

    p_scan = sub.add_parser("scan", help="classify a (v1, v2) grid")
    p_scan.add_argument("--v1-min", type=float, required=True, dest="v1_min")
    p_scan.add_argument("--v1-max", type=float, required=True, dest="v1_max")
    p_scan.add_argument("--v2-min", type=float, required=True, dest="v2_min")
    p_scan.add_argument("--v2-max", type=float, required=True, dest="v2_max")
    p_scan.add_argument("--n1", type=int, required=True)
    p_scan.add_argument("--n2", type=int, required=True)
    p_scan.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=10000)
    p_verify.add_argument("--out", default=None)

    p_plot = sub.add_parser("plot", help="render log-scaled R, T curves as SVG")
    add_potential(p_plot, with_branch=True)
    add_grid(p_plot, emin=0.05, emax=4.0, steps=1200)
    p_plot.add_argument("--out", required=True)
    return parser


def _require_finite(**values: float | None) -> None:
    for name, val in values.items():
        if val is not None and not math.isfinite(val):
            raise UsageError(f"--{name} must be finite")


def _resolve_potential(args: argparse.Namespace) -> DeltaPotential:
    _require_finite(v1=args.v1, v2=args.v2, g2=args.g2,
                    V2=args.cap_v2, V3=args.cap_v3)
    branch = getattr(args, "branch", None)
    picked = [name for name, val in (("--g2", args.g2), ("--V2/--V3", args.cap_v2),
                                     ("--branch", branch)) if val is not None]
    if args.cap_v3 is not None and args.cap_v2 is None:
        raise UsageError("--V3 requires --V2")
    if len(picked) > 1:
        raise UsageError(f"{' and '.join(picked)} are mutually exclusive")
    if not picked:
        raise UsageError("give the quaternionic strength as --g2, --V2 [--V3]"
                         + (" or --branch" if hasattr(args, "branch") else ""))
    if args.g2 is not None:
        if args.g2 < 0.0:
            raise UsageError("--g2 must be non-negative")
        return DeltaPotential.from_g_squared(args.v1, args.v2, args.g2)
    if args.cap_v2 is not None:
        return DeltaPotential(args.v1, args.v2, args.cap_v2, args.cap_v3 or 0.0)
    plus, minus = ss_closed_form(args.v1, args.v2)
    sol = plus if branch == "plus" else minus
    if not sol.feasible:
        raise UsageError(f"the {branch} branch is infeasible here "
                         f"({sol.reason.value}); give --g2 or --V2 explicitly")
    return DeltaPotential.from_g_squared(args.v1, args.v2, sol.g_squared)


def _check_grid(args: argparse.Namespace) -> None:
    if not (0.0 < args.emin < args.emax):
        raise UsageError("need 0 < --emin < --emax")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _physical_sweep(p: DeltaPotential, energies: np.ndarray) -> ScatteringResult:
    """Conjugate-mode matching over the energy grid; d_value holds the
    junction-system determinant magnitude, which plays the role of |D| here."""
    m = matching_arrays(p.v1, p.v2, p.cap_v2, p.cap_v3, energies, MatchMode.CONJUGATE)
    # |r|^2 as abs(r) ** 2 takes it, as amplitude_arrays does.
    big_r, big_t = (np.where(m.singular_system, np.inf,
                             np.float_power(np.hypot(z.real, z.imag), 2.0)) for z in (m.r, m.t))
    return ScatteringResult(energies, np.sqrt(2.0 * energies), m.r, m.t, big_r, big_t,
                            m.det_mag, m.singular_system)


def _check_finite(res: ScatteringResult) -> None:
    """Raise NumericalError at the first row off the singularities with a
    non-finite cell, which would otherwise print as a silent nan or inf."""
    finite = np.logical_and.reduce([np.isfinite(col) for col in (
        res.beta, res.r, res.t, res.big_r, res.big_t, res.d_value)])
    bad = np.flatnonzero(~(finite | res.at_singularity))
    if bad.size:
        raise NumericalError(f"non-finite amplitudes at E={_fmt(res.energy[bad[0]])} "
                             "off the singularities")


def _columns(res: ScatteringResult) -> list[list[float]]:
    """The CSV_COLUMNS of a sweep, as lists of Python floats."""
    d = res.d_value
    return [col.tolist() for col in (
        res.energy, res.beta, res.r.real, res.r.imag, res.t.real, res.t.imag,
        res.big_r, res.big_t, np.hypot(np.real(d), np.imag(d)))]


# Row templates in _fmt's format; one % operation per row.
_CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS))
_CSV_SINGULAR_ROW = "%.17g,%.17g,nan,nan,nan,nan,inf,inf,0e0"


def rows_to_csv(res: ScatteringResult) -> str:
    """Sweep CSV; rows on a singularity get the literal nan/inf/0e0 cells."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [_CSV_SINGULAR_ROW % cells[:2] if singular else _CSV_ROW % cells
              for cells, singular in zip(zip(*_columns(res)), res.at_singularity.tolist())]
    return "\n".join(lines) + "\n"


def _rows_to_json(res: ScatteringResult, p: DeltaPotential, args: argparse.Namespace) -> str:
    out_rows = [
        {**{key: _num_or_none(x) for key, x in zip(CSV_COLUMNS, cells)},
         "at_singularity": singular}
        for cells, singular in zip(zip(*_columns(res)), res.at_singularity.tolist())]
    doc = {
        "model": args.model,
        "potential": {"v1": p.v1, "v2": p.v2, "cap_v2": p.cap_v2,
                      "cap_v3": p.cap_v3, "g_squared": p.g_squared},
        "grid": {"e_min": args.emin, "e_max": args.emax, "steps": args.steps},
        "rows": out_rows,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def run_sweep(args: argparse.Namespace) -> int:
    p = _resolve_potential(args)
    _check_grid(args)
    if args.model == "closed-form":
        res = sweep(p, args.emin, args.emax, args.steps)
    else:
        res = _physical_sweep(p, energy_grid(args.emin, args.emax, args.steps))
    _check_finite(res)
    text = rows_to_csv(res) if args.format == "csv" else _rows_to_json(res, p, args)
    _write_text(args.out, text)
    return EXIT_OK


def _oracle_confirmation(v1: float, v2: float, sol: SSBranchSolution) -> dict | None:
    if not sol.feasible:
        return None
    pot = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
    absd = abs(denominator(pot, sol.beta))
    coeffs = quartic_coeffs(pot)
    if not all(math.isfinite(x) for x in (coeffs.b, coeffs.c, coeffs.d, coeffs.e)):
        raise NumericalError(f"the quartic of the {sol.branch.value} branch overflows")
    double_beta, double_mult = (real_double_root(quartic_roots(coeffs), sol.beta)
                                or (None, None))
    return {"abs_denominator": absd, "double_root_beta": double_beta,
            "double_root_multiplicity": double_mult}


def _branch_record(sol: SSBranchSolution) -> dict:
    return {
        "branch": sol.branch.value,
        "g_squared": _num_or_none(sol.g_squared),
        "beta": _num_or_none(sol.beta),
        "energy": _num_or_none(sol.energy),
        "feasible": sol.feasible,
        "reason": sol.reason.value,
    }


def ss_report(v1: float, v2: float) -> dict:
    """The singularity report emitted by the ss command (SS_REPORT_SCHEMA)."""
    plus, minus = ss_closed_form(v1, v2)
    return {
        "v1": v1, "v2": v2,
        "g2_plus": _num_or_none(plus.g_squared),
        "g2_minus": _num_or_none(minus.g_squared),
        "E_plus": _num_or_none(plus.energy),
        "E_minus": _num_or_none(minus.energy),
        "beta_plus": _num_or_none(plus.beta),
        "beta_minus": _num_or_none(minus.beta),
        "classification": region_of(plus.feasible, minus.feasible).value,
        "branches": {"plus": _branch_record(plus), "minus": _branch_record(minus)},
        "oracle": {"plus": _oracle_confirmation(v1, v2, plus),
                   "minus": _oracle_confirmation(v1, v2, minus)},
    }


def _ss_text(report: dict) -> str:
    lines = [f"strengths: v1={report['v1']:g} v2={report['v2']:g}",
             f"classification: {report['classification']}"]
    for name in ("plus", "minus"):
        rec = report["branches"][name]
        if rec["feasible"]:
            confirm = report["oracle"][name]
            lines.append(
                f"{name:>5}: feasible  g2={rec['g_squared']:.12g} "
                f"beta={rec['beta']:.12g} E={rec['energy']:.12g} "
                f"|D|={confirm['abs_denominator']:.3e} "
                f"double-root multiplicity={confirm['double_root_multiplicity']}")
        else:
            g2 = rec["g_squared"]
            extra = f" g2={g2:.12g}" if g2 is not None else ""
            lines.append(f"{name:>5}: infeasible ({rec['reason']}){extra}")
    return "\n".join(lines) + "\n"


def run_ss(args: argparse.Namespace) -> int:
    _require_finite(v1=args.v1, v2=args.v2)
    report = ss_report(args.v1, args.v2)
    if args.as_json:
        _write_text(args.out, json.dumps(report, indent=2, allow_nan=False) + "\n")
    else:
        _write_text(args.out, _ss_text(report))
    return EXIT_OK


# Cell tails "label,E_plus,E_minus" with no energy filled in, indexed by
# 2 * plus.feasible + minus.feasible; a feasible plus branch leaves its
# E_plus cell and the comma after it to be appended.
_SCAN_TAILS = np.array([region_of(plus, minus).value + ("," if plus else ",,")
                        for plus in (False, True) for minus in (False, True)], dtype=object)


def scan_to_csv(scan: RegionScan) -> str:
    """Scan CSV, joined in one pass from pre-formatted pieces: each v1 and v2
    value is formatted once, and only feasible energies are formatted."""
    plus, minus = scan.plus.feasible, scan.minus.feasible
    tails = _SCAN_TAILS[2 * plus + minus]
    tails[plus] += np.array([f"{e:.17g}," for e in scan.plus.energy[plus].tolist()],
                            dtype=object)
    tails[minus] += np.array([f"{e:.17g}" for e in scan.minus.energy[minus].tolist()],
                             dtype=object)
    # Cell (i, j) is the line "\n" + "v1[i]," + "v2[j]," + tail.
    pieces = np.empty(tails.shape + (3,), dtype=object)
    pieces[..., 0] = np.array([f"\n{v1:.17g}," for v1 in scan.v1.tolist()], dtype=object)[:, None]
    pieces[..., 1] = np.array([f"{v2:.17g}," for v2 in scan.v2.tolist()], dtype=object)
    pieces[..., 2] = tails
    return "v1,v2,classification,E_plus,E_minus" + "".join(pieces.ravel().tolist()) + "\n"


def run_scan(args: argparse.Namespace) -> int:
    _require_finite(**{"v1-min": args.v1_min, "v1-max": args.v1_max,
                       "v2-min": args.v2_min, "v2-max": args.v2_max})
    for axis, lo, hi in (("v1", args.v1_min, args.v1_max), ("v2", args.v2_min, args.v2_max)):
        if lo < hi and math.isinf(hi - lo):
            raise NumericalError(f"the {axis} span --{axis}-max - --{axis}-min overflows")
    scan = scan_region((args.v1_min, args.v1_max), (args.v2_min, args.v2_max),
                       args.n1, args.n2)
    _write_text(args.out, scan_to_csv(scan))
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    passed, text = verify.run_and_render(args.seed, args.trials)
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args.out, text)
    return EXIT_OK if passed else EXIT_NUMERICAL


def run_plot(args: argparse.Namespace) -> int:
    p = _resolve_potential(args)
    _check_grid(args)
    res = sweep(p, args.emin, args.emax, args.steps)
    _check_finite(res)
    markers = [sol.energy for sol in ss_closed_form(args.v1, args.v2)
               if sol.feasible and args.emin <= sol.energy <= args.emax]
    title = (f"v1={p.v1:g} v2={p.v2:g} g2={p.g_squared:.6g}")
    svg = render_curves_svg(res.energy.tolist(), res.big_r.tolist(),
                            res.big_t.tolist(), markers, title)
    _write_text(args.out, svg)
    return EXIT_OK


_HANDLERS = {
    "sweep": run_sweep,
    "ss": run_ss,
    "scan": run_scan,
    "verify": run_verify,
    "plot": run_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
