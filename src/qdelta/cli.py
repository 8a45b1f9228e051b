"""Command-line front end: energy sweeps, singularity search, region scans,
the verification suite, and CSV/JSON/SVG emission.

Exit codes: 0 success, 1 I/O failure, 2 invalid arguments, 3 numerical or
assertion failure. main returns the code for every outcome, argparse's
rejections, --help and --version included.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys
from typing import Iterator, TextIO

from . import __version__
from ._lazy import np
from .oracle import MatchMode, NumericalError, certify_double_root, matching_solver
from .scatter import (DeltaPotential, ScatteringResult, denominator,
                      energy_grid, sweep, uniform_grid)
from .singular import (SSBranchSolution, region_of, ss_branches, ss_closed_form,
                       unit_scale_underflows)

# verify, g17 and svgplot are imported by the commands that use them, so that ss
# neither compiles them nor executes the numpy their module-level code reads.

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

CSV_COLUMNS = ("E", "beta", "re_r", "im_r", "re_t", "im_t", "R", "T", "absD")

# The least normal float: a feasible branch's g^2 or E below it underflowed.
_TINY = sys.float_info.min
# _require_usable's failures, in the order of its checks.
_UNUSABLE = ("the strengths (v1, v2) = ({}, {}) differ too much in scale: scaled to unit size, "
             "the smaller falls below 2^-1022",
             *(f"the closed forms of the {branch} branch {how} at (v1, v2) = ({{}}, {{}})"
               for how in ("overflow", "underflow") for branch in ("plus", "minus")))

_NUM_OR_NULL = {"type": ["number", "null"]}
_BRANCH_SCHEMA = {
    "type": "object",
    "required": ["branch", "g_squared", "beta", "energy", "feasible", "reason"],
    "additionalProperties": False,
    "properties": {
        "branch": {"enum": ["plus", "minus"]},
        **dict.fromkeys(("g_squared", "beta", "energy"), _NUM_OR_NULL),
        "feasible": {"type": "boolean"},
        "reason": {"enum": ["OK", "NegativeGSquared", "ZeroGSquared", "NonPositiveBeta",
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
        **dict.fromkeys(("g2_plus", "g2_minus", "E_plus", "E_minus", "beta_plus", "beta_minus"),
                        _NUM_OR_NULL),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command, built once per process and shared
    by every call of main; callers must not change the returned parser."""
    parser = _Parser(
        prog="qdelta",
        description="Scattering and spectral singularities of a quaternionic "
                    "point interaction with a complex i-channel strength.")
    parser.add_argument("--version", action="version", version=f"qdelta {__version__}")
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
    p_verify.add_argument("--seed", type=int, default=42,
                          help="drawn check k draws the numbers of random.Random(SEED + k)")
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
    _require_usable(args.v1, args.v2, plus, minus)
    sol = plus if branch == "plus" else minus
    if not sol.feasible:
        raise UsageError(f"the {branch} branch is infeasible here "
                         f"({sol.reason.value}); give --g2 or --V2 explicitly")
    return DeltaPotential.from_g_squared(args.v1, args.v2, sol.g_squared)


def _require_usable(v1, v2, plus: SSBranchSolution, minus: SSBranchSolution) -> None:
    """Raise NumericalError at the first (v1, v2), in row-major order, where the
    branches plus and minus (floats for a pair, arrays for a scan block) are unusable,
    naming the first check that fails there: unit_scale lost a strength (see
    singular.unit_scale_underflows); a feasible g^2 or E overflowed, to print as
    inf; one underflowed to 0 or a subnormal, a wrong value; plus before minus."""
    lost = unit_scale_underflows(v1, v2)
    outside = [sol.feasible & ((sol.g_squared == math.inf) | (sol.energy == math.inf))
               for sol in (plus, minus)]
    outside += [sol.feasible & ((sol.g_squared < _TINY) | (sol.energy < _TINY))
                for sol in (plus, minus)]
    hit = outside[0] | outside[1] | outside[2] | outside[3] | lost
    if not (hit if isinstance(hit, bool) else hit.any()):
        return
    first = [v1, v2, lost, *outside]
    if not isinstance(hit, bool):  # a grid's first unusable cell
        first = [np.broadcast_to(x, hit.shape)[hit][0] for x in first]
    raise NumericalError(_UNUSABLE[first[2:].index(True)].format(*map(_fmt, first[:2])))


def _check_grid(args: argparse.Namespace) -> None:
    _require_finite(emin=args.emin, emax=args.emax)
    if not (0.0 < args.emin < args.emax):
        raise UsageError("need 0 < --emin < --emax")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")


@contextlib.contextmanager
def _output(path: str | os.PathLike | None) -> Iterator[TextIO]:
    """The text stream a command writes to: stdout, or the file at path,
    overwritten in place and cut to the bytes written, also if the command
    raises (O_TRUNC would first free every block, slow where freed blocks are
    discarded). Devices and FIFOs are not cut."""
    if path is None:
        yield sys.stdout
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8", newline="") as fh:
        try:
            yield fh
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), fh.tell())


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _check_finite(res: ScatteringResult) -> None:
    """Raise NumericalError at the first row off the singularities with a
    non-finite cell, which would otherwise print as a silent nan or inf."""
    finite = np.logical_and.reduce([np.isfinite(col) for col in (
        res.beta, res.r, res.t, res.big_r, res.big_t, res.abs_d)])
    bad = np.flatnonzero(~(finite | res.at_singularity))
    if bad.size:
        raise NumericalError(f"non-finite amplitudes at E={_fmt(res.energy[bad[0]])} "
                             "off the singularities")


_CSV_SINGULAR_ROW = "%(E).17g,%(beta).17g,nan,nan,nan,nan,inf,inf,0e0\n"
# Rows as json.dumps(indent=2) lays them out, each led by a comma; %r is its float text.
_JSON_ROW, _JSON_SINGULAR_ROW = (
    ",\n    {\n" + "".join(f'      "{key}": {cell},\n' for key, cell in zip(CSV_COLUMNS, cells))
    + f'      "at_singularity": {flag}\n    }}'
    for cells, flag in ((["%r"] * 9, "false"),
                        (["%(E)r", "%(beta)r", *["null"] * 6, "%(absD)r"], "true")))

# The sweep rows, and the scan cells (in whole v1 rows, at least one), formatted
# per block: one block's strings, and a scan block's branches, are freed before
# the next. A sweep block's cells and each formatter's workspace, about 250 bytes
# a cell, are allocated once per command and reused; the scan's takes half a
# block's energies, minus and plus.
_SWEEP_BLOCK, _SCAN_BLOCK = 512, 8192


def _sweep_texts(res: ScatteringResult, text, singular_row: str) -> Iterator[str]:
    """The sweep's rows, _SWEEP_BLOCK at a time: text(cells) of a block's CSV_COLUMNS
    cells off the singularities, and singular_row % {column: cell} of one on them."""
    cells = np.empty((_SWEEP_BLOCK, len(CSV_COLUMNS)))
    singular = np.flatnonzero(res.at_singularity).tolist()
    for start in range(0, res.energy.size, _SWEEP_BLOCK):
        rows = slice(start, min(start + _SWEEP_BLOCK, res.energy.size))
        block = cells[:rows.stop - start]
        for j, col in enumerate((res.energy, res.beta, res.r.real, res.r.imag, res.t.real,
                                 res.t.imag, res.big_r, res.big_t, res.abs_d)):
            block[:, j] = col[rows]
        first = 0
        for i in singular[bisect.bisect_left(singular, start):
                          bisect.bisect_left(singular, rows.stop)]:
            yield text(block[first:i - start])
            yield singular_row % dict(zip(CSV_COLUMNS, block[i - start].tolist()))
            first = i - start + 1
        yield text(block[first:])


def rows_to_csv(res: ScatteringResult, out: TextIO) -> None:
    """Write the sweep CSV to the text stream out, each cell as '%.17g' formats
    it (g17.Formatter); rows on a singularity get the literal nan/inf/0e0 cells."""
    from .g17 import Formatter
    out.write(",".join(CSV_COLUMNS) + "\n")
    out.writelines(_sweep_texts(res, Formatter(_SWEEP_BLOCK, len(CSV_COLUMNS)).text,
                                _CSV_SINGULAR_ROW))


def _rows_to_json(res: ScatteringResult, p: DeltaPotential, args: argparse.Namespace,
                  out: TextIO) -> None:
    """Write the sweep JSON to the text stream out, the bytes json.dumps(indent=2)
    gives the whole document; _check_finite left no nan or inf off the singularities."""
    head = json.dumps({"model": args.model, "potential": {**vars(p), "g_squared": p.g_squared},
                       "grid": {"e_min": args.emin, "e_max": args.emax, "steps": args.steps}},
                      indent=2, allow_nan=False)
    texts = _sweep_texts(res, lambda cells: "".join(
        [_JSON_ROW % row for row in map(tuple, cells.tolist())]), _JSON_SINGULAR_ROW)
    out.write(head[:-2] + ',\n  "rows": [' + next(filter(None, texts))[1:])  # row 0: no comma
    out.writelines(texts)
    out.write("\n  ]\n}\n")


def run_sweep(args: argparse.Namespace) -> int:
    p = _resolve_potential(args)
    _check_grid(args)
    res = (sweep(p, args.emin, args.emax, args.steps) if args.model == "closed-form" else
           matching_solver(p, energy_grid(args.emin, args.emax, args.steps), MatchMode.CONJUGATE))
    _check_finite(res)
    with _output(args.out) as out:
        if args.format == "json":
            _rows_to_json(res, p, args, out)
        else:
            rows_to_csv(res, out)
    return EXIT_OK


def _oracle_confirmation(v1: float, v2: float, sol: SSBranchSolution) -> dict | None:
    if not sol.feasible:
        return None
    absd = abs(denominator(DeltaPotential.from_g_squared(v1, v2, sol.g_squared), sol.beta))
    if not math.isfinite(absd):
        raise NumericalError(f"the |D| of the {sol.branch.value} branch overflows")
    radius, root = certify_double_root(v1, v2, sol)
    if math.isnan(radius):
        raise NumericalError(f"the double root of the {sol.branch.value} branch cannot be "
                             f"certified at (v1, v2) = ({_fmt(v1)}, {_fmt(v2)})")
    return {"abs_denominator": absd, "double_root_beta": root, "double_root_multiplicity": 2}


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
    _require_usable(v1, v2, plus, minus)
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


# The ss report as json.dumps(indent=2) lays it out, a %s slot for each value,
# indexed by 2 * (plus oracle record present) + (minus one present); an absent
# record is one slot, for its null.
_SS_JSON = [json.dumps({**dict.fromkeys(SS_REPORT_SCHEMA["required"][:-2]),
                        "branches": dict.fromkeys(("plus", "minus"), dict.fromkeys(
                            _BRANCH_SCHEMA["required"])),
                        "oracle": {"plus": plus, "minus": minus}}, indent=2
                       ).replace(": null", ": %s") + "\n"
            for plus in (None, dict.fromkeys(_ORACLE_SCHEMA["required"]))
            for minus in (None, dict.fromkeys(_ORACLE_SCHEMA["required"]))]
# Renders a list of values as json does, C-encoded, split at the NULs (a string's
# own NUL is escaped): float.__repr__, int.__repr__, null, true, false.
_json_values = json.JSONEncoder(allow_nan=False, separators=("\0", ":")).encode


def _ss_json(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2, allow_nan=False) + "\\n", and its
    ValueError for a nan or an inf."""
    *values, branches, confirmed = report.values()
    for rec in (*branches.values(), *confirmed.values()):
        values += [None] if rec is None else rec.values()
    try:
        texts = _json_values(values)[1:-1].split("\0")
    except ValueError:  # named as json.dumps(indent=2) names it
        bad = next(x for x in values if isinstance(x, float) and not math.isfinite(x))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}") from None
    return _SS_JSON[2 * (confirmed["plus"] is not None)
                    + (confirmed["minus"] is not None)] % tuple(texts)


def run_ss(args: argparse.Namespace) -> int:
    _require_finite(v1=args.v1, v2=args.v2)
    report = ss_report(args.v1, args.v2)
    _write_text(args.out, _ss_json(report) if args.as_json else _ss_text(report))
    return EXIT_OK


# Nonzero scan axis values of binary exponent (math.frexp) -450 to 450: on
# their grid _require_usable passes at every cell. A zero strength loses no
# scale and leaves both branches infeasible, so let v1 and v2 be nonzero, m the
# smaller of |v1| and |v2|, and u1 = 2^-k v1, u2 = 2^-k v2 as ss_branches
# scales them, the larger in [0.5, 1): m >= 2^-451 and k <= 450, so the smaller
# |u| is at least 2^-901, normal. With s = u1 + u2, a = u1 - u2 and
# q = -2 u1 u2, a branch's h is a root of h^2 - a h + q, whose roots' product is q:
# - The exponents differ by at most 900, not more than 1021: no scale is lost.
# - |s|, |a| <= 2 and the square root is at most sqrt 8, so |h| < 2.42,
#   g^2 = -s h 4^k < 5 4^k and E = (h 2^k)^2 / 2 < 3 4^k: none overflows
#   below k = 511.
# - |s| or |a| is |u1| + |u2| >= 2 |u1 u2|, so the farther root is at least
#   |u1 u2| and the nearer, q over it, at least 0.8 |u1 u2| >= 0.4 m 2^-k:
#   beta >= 0.4 m and E >= 0.08 m^2 > 2^-906.
# - A feasible branch has s^2 + 4 u1 u2 >= 0: |s| >= 0.5 for strengths of one
#   sign, and for strengths of opposite signs the smaller is at most 3 - 2 sqrt 2
#   of the larger, so |s| >= 0.4. So |s h| >= 0.16 m 2^-k, normal at unit scale,
#   and g^2 >= 0.16 m 2^k > 0.16 m^2 > 2^-905.
_USABLE_AXES = (2.0 ** -451, 2.0 ** 450)


def _axes_usable(v1: np.ndarray, v2: np.ndarray) -> bool:
    """Whether every nonzero value of the scan axes v1 and v2 lies in
    _USABLE_AXES, which proves _require_usable passes at every cell."""
    axes = np.abs(np.concatenate((v1, v2)))
    lo, hi = _USABLE_AXES
    return bool(((axes == 0.0) | (lo <= axes) & (axes < hi)).all())


def _scan_blocks(v1: np.ndarray, v2: np.ndarray) -> Iterator[tuple]:
    """(rows, plus, minus) of each block of the scan of axes v1 and v2:
    _SCAN_BLOCK cells in whole v1 rows, at least one, in row-major order, with
    the branches of its cells (rows[i], v2[j])."""
    step = max(1, _SCAN_BLOCK // v2.size)
    for start in range(0, v1.size, step):
        rows = v1[start:start + step]
        yield rows, *ss_branches(rows[:, None], v2)


# Cell tails "label,E_plus,E_minus" with no energy filled in, indexed by
# 2 * plus.feasible + minus.feasible; a feasible E_plus and its comma are appended.
_SCAN_TAILS = [region_of(plus, minus).value + ("," if plus else ",,")
               for plus in (False, True) for minus in (False, True)]


def scan_to_csv(v1: np.ndarray, v2: np.ndarray, out: TextIO) -> None:
    """Write the CSV of the scan of axes v1 and v2 to the text stream out, a
    block (_scan_blocks) at a time. Cell (i, j) is its head "v2[j],tail" from a
    table of 4 n2, picked by its two flags, then its feasible energies,
    formatted a block at once (g17.Formatter)."""
    from .g17 import Formatter
    size, n2 = _SCAN_BLOCK // 2, v2.size
    fmt = Formatter(size, 1)
    v2_texts = [f"{x:.17g}," for x in v2.tolist()]
    heads = np.array([x + tail for tail in _SCAN_TAILS for x in v2_texts], dtype=object)
    out.write("v1,v2,classification,E_plus,E_minus")
    for rows, plus_branch, minus_branch in _scan_blocks(v1, v2):
        plus, minus = plus_branch.feasible, minus_branch.feasible
        cells = heads.take((2 * plus + minus) * n2 + np.arange(n2))
        energies = np.concatenate((minus_branch.energy[minus], plus_branch.energy[plus]))
        text = "".join([fmt.text(energies[i:i + size, None])
                        for i in range(0, energies.size, size)])
        # Minus energies first; a plus one's "\n" becomes ",", as E_minus follows.
        *minus_texts, plus_text = text.split("\n", np.count_nonzero(minus))
        cells[plus] += np.array(plus_text.replace("\n", ",\n").split("\n")[:-1], dtype=object)
        cells[minus] += np.array(minus_texts, dtype=object)   # after E_plus
        # Row i is "\nv1[i]," + cells[i, 0] + ... + "\nv1[i]," + cells[i, n2 - 1].
        out.writelines(lead + lead.join(row) for lead, row in zip(
            [f"\n{x:.17g}," for x in rows.tolist()], cells.tolist()))
        # Freed before the next block's branches are evaluated.
        del plus_branch, minus_branch, plus, minus, cells, energies, text, minus_texts, plus_text
    out.write("\n")


def run_scan(args: argparse.Namespace) -> int:
    _require_finite(**{"v1-min": args.v1_min, "v1-max": args.v1_max,
                       "v2-min": args.v2_min, "v2-max": args.v2_max})
    for axis, lo, hi in (("v1", args.v1_min, args.v1_max), ("v2", args.v2_min, args.v2_max)):
        if lo < hi and math.isinf(hi - lo):
            raise NumericalError(f"the {axis} span --{axis}-max - --{axis}-min overflows")
    v1 = uniform_grid(args.v1_min, args.v1_max, args.n1)
    v2 = uniform_grid(args.v2_min, args.v2_max, args.n2)
    if not _axes_usable(v1, v2):  # a gate pass, so that a failing scan writes nothing
        for rows, plus, minus in _scan_blocks(v1, v2):
            _require_usable(rows[:, None], v2, plus, minus)
    with _output(args.out) as out:
        scan_to_csv(v1, v2, out)
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    from .verify import run_and_render
    passed, text = run_and_render(args.seed, args.trials)
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args.out, text)
    return EXIT_OK if passed else EXIT_NUMERICAL


def run_plot(args: argparse.Namespace) -> int:
    from .svgplot import render_curves_svg
    p = _resolve_potential(args)
    _check_grid(args)
    res = sweep(p, args.emin, args.emax, args.steps)
    _check_finite(res)
    # The markers are the pair's closed-form branches, which fail as in ss.
    branches = ss_closed_form(args.v1, args.v2)
    _require_usable(args.v1, args.v2, *branches)
    markers = [sol.energy for sol in branches
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a rejection, --help or --version
        return exc.code
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
