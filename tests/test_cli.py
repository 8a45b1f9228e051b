import decimal
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qdelta import __version__, cli, g17, singular
from qdelta.cli import SS_REPORT_SCHEMA, build_parser, main, ss_report
from qdelta.oracle import MatchMode, NumericalError, matching_solver
from qdelta.scatter import DeltaPotential, denominator, energy_grid, sweep, uniform_grid
from qdelta.singular import KAPPA, region_of, scan_region

HEADER = "E,beta,re_r,im_r,re_t,im_t,R,T,absD"


_Row = namedtuple("_Row", "energy beta r t big_r big_t abs_d at_singularity")


def _rows(res):
    """The rows of sweep columns, each with Python scalar fields."""
    return [_Row(*row) for row in zip(
        res.energy.tolist(), res.beta.tolist(), res.r.tolist(), res.t.tolist(),
        res.big_r.tolist(), res.big_t.tolist(), res.abs_d.tolist(),
        res.at_singularity.tolist())]


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "qdelta", *args],
                          capture_output=True, text=True, env=env)


def test_sweep_stdout_free_particle():
    proc = run_cli("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
                   "--emin", "1", "--emax", "2", "--steps", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[6]) == 0.0 and float(cells[7]) == 1.0


def test_sweep_csv_roundtrip(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli("sweep", "--v1", "-0.5", "--v2", "3", "--g2", "3.75",
                   "--emin", "0.05", "--emax", "4", "--steps", "100",
                   "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 101
    p = DeltaPotential.from_g_squared(-0.5, 3.0, 3.75)
    cols = sweep(p, 0.05, 4.0, 100)
    energies = []
    for line, res in zip(lines[1:], _rows(cols)):
        cells = line.split(",")
        energies.append(float(cells[0]))
        assert float(cells[0]) == res.energy
        assert float(cells[1]) == res.beta
        assert float(cells[2]) == res.r.real
        assert float(cells[3]) == res.r.imag
        assert float(cells[4]) == res.t.real
        assert float(cells[5]) == res.t.imag
        assert float(cells[6]) == res.big_r
        assert float(cells[7]) == res.big_t
        assert float(cells[8]) == res.abs_d == abs(denominator(p, res.beta))
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_sweep_lf_line_endings(tmp_path):
    out = tmp_path / "rows.csv"
    run_cli("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
            "--emin", "1", "--emax", "2", "--steps", "3", "--out", str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_sweep_singular_row_tokens():
    for argv, energy in (
            # grid point exactly on the singularity: E = 2 for the reference pair
            (("--v1", "-0.5", "--v2", "3", "--g2", "3.75", "--emin", "1", "--emax", "3"), 2.0),
            # Conjugate-mode junction singular at beta = v2 - v1 = 3, g^2 = -2 v1 v2
            (("--v1", "-1", "--v2", "2", "--g2", "4", "--emin", "1", "--emax", "8",
              "--model", "physical"), 4.5)):
        proc = run_cli("sweep", *argv, "--steps", "3")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        row = lines[2].split(",")
        assert float(row[0]) == energy
        assert row[2:6] == ["nan", "nan", "nan", "nan"]
        assert row[6] == "inf" and row[7] == "inf"
        assert row[8] == "0e0"


def test_sweep_json_format(capsys):
    proc = run_cli("sweep", "--v1", "1", "--v2", "0", "--g2", "1",
                   "--emin", "0.5", "--emax", "1.5", "--steps", "3",
                   "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["model"] == "closed-form"
    assert doc["potential"]["g_squared"] == 1.0
    assert len(doc["rows"]) == 3
    first = doc["rows"][0]
    assert first["E"] == 0.5 and not first["at_singularity"]
    assert first["R"] + first["T"] == pytest.approx(1.0, abs=1e-12)
    # A row on the singularity, just above E = 2: r, t, R and T are null there
    # and absD is the real |D|, where the CSV prints 0e0.
    argv = ["sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=2.000000000000001",
            "--emax=3", "--steps=3"]
    assert main([*argv, "--format=json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["at_singularity"] for row in rows] == [True, False, False]
    singular = rows[0]
    assert [singular[key] for key in ("re_r", "im_r", "re_t", "im_t", "R", "T")] == [None] * 6
    absd = abs(denominator(DeltaPotential.from_g_squared(-0.5, 3.0, 3.75), singular["beta"]))
    assert singular["absD"] == absd and 0.0 < absd < 1e-10
    assert all(None not in row.values() for row in rows[1:])
    assert main(argv) == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    assert [float(cell) for cell in cells[:2]] == [singular["E"], singular["beta"]]
    assert cells[2:] == ["nan", "nan", "nan", "nan", "inf", "inf", "0e0"]


def test_sweep_physical_model_matches_closed_form_for_real_strength():
    proc = run_cli("sweep", "--v1", "1", "--v2", "0", "--V2", "1",
                   "--emin", "0.5", "--emax", "1.5", "--steps", "5",
                   "--model", "physical")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    cols = sweep(DeltaPotential(1.0, 0.0, 1.0, 0.0), 0.5, 1.5, 5)
    for line, res in zip(lines[1:], _rows(cols)):
        cells = line.split(",")
        assert float(cells[6]) == pytest.approx(res.big_r, rel=1e-9)
        assert float(cells[7]) == pytest.approx(res.big_t, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ("sweep", "--v1=1e200", "--v2=-2e200", "--g2=1e300", "--emin=1", "--emax=2", "--steps=3"),
    ("sweep", "--v1=1e200", "--v2=-2e200", "--g2=1e300", "--emin=1", "--emax=2", "--steps=3",
     "--model=physical"),
    ("ss", "--v1=-1e160", "--v2=-1e160"),
    ("plot", "--v1=1e200", "--v2=-2e200", "--g2=1e300", "--emin=1", "--emax=2", "--steps=3"),
    ("scan", "--v1-min=-1e308", "--v1-max=1e308", "--v2-min=-1", "--v2-max=1", "--n1=3", "--n2=2"),
])
def test_overflow_exits_3(argv, tmp_path):
    out = tmp_path / "out"
    proc = run_cli(*argv, f"--out={out}")
    assert proc.returncode == 3
    assert not out.exists()
    assert "numerical failure: " in proc.stderr


def test_ss_outside_the_band_at_large_scale_is_a_complex_sqrt():
    proc = run_cli("ss", "--v1=-1e160", "--v2=3e160", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["classification"] == "None"
    assert [doc["branches"][name]["reason"] for name in ("plus", "minus")] == ["ComplexSqrt"] * 2


@pytest.mark.parametrize("axis, box", [
    ("v1", ("--v1-min=-1e308", "--v1-max=1e308", "--v2-min=-1", "--v2-max=1")),
    ("v2", ("--v1-min=-1", "--v1-max=1", "--v2-min=-1.5e308", "--v2-max=1e308")),
])
def test_scan_span_overflow_prints_only_the_failure(axis, box):
    proc = run_cli("scan", *box, "--n1=3", "--n2=2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (f"numerical failure: the {axis} span --{axis}-max - --{axis}-min "
                           "overflows\n")


@pytest.mark.parametrize("box, cell", [
    # E+ overflows at the lossy cell; the cell (-2e200, 1e200) lies outside
    # the band, a complex square root.
    (("--v1-min=-2e200", "--v1-max=-1e200", "--v2-min=-2e200", "--v2-max=1e200", "--n1=2",
      "--n2=3"), "(-1.9999999999999999e+200, -1.9999999999999999e+200)"),
    # g+^2 and E+ overflow to inf at the feasible cell.
    (("--v1-min=-1e160", "--v1-max=-5e159", "--v2-min=-1e160", "--v2-max=3e160", "--n1=3",
      "--n2=3"), "(-1e+160, -1e+160)"),
])
def test_scan_overflowing_closed_forms_print_only_the_failure(box, cell):
    proc = run_cli("scan", *box)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: the closed forms of the plus branch overflow at "
                           f"(v1, v2) = {cell}\n")


def test_scan_underflowing_closed_forms_print_only_the_failure():
    proc = run_cli("scan", "--v1-min=-2e-200", "--v1-max=-1e-200", "--v2-min=-2e-200",
                   "--v2-max=-1e-200", "--n1=2", "--n2=2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: the closed forms of the plus branch underflow at "
                           "(v1, v2) = (-2e-200, -2e-200)\n")


_SCALE_GAP = ("differ too much in scale: scaled to unit size, the smaller falls below "
              "2^-1022\n")


@pytest.mark.parametrize("argv, failure", [
    # The exact plus branch has g^2 = 2e-30 and E about 5e299.
    (["ss", "--v1=-1e150", "--v2=-1e-180"],
     "the strengths (v1, v2) = (-9.9999999999999998e+149, -1e-180) "),
    # The exact plus branch is feasible with E+ = 2e-360, which underflows.
    (["ss", "--v1=-1e-180", "--v2=-1e150", "--json"],
     "the strengths (v1, v2) = (-1e-180, -9.9999999999999998e+149) "),
    (["scan", "--v1-min=-1e150", "--v1-max=-0.5e150", "--v2-min=-1e-180",
      "--v2-max=-0.5e-180", "--n1=2", "--n2=2"],
     "the strengths (v1, v2) = (-9.9999999999999998e+149, -1e-180) "),
    (["plot", "--v1=-1e150", "--v2=-1e-180", "--branch=plus"],
     "the strengths (v1, v2) = (-9.9999999999999998e+149, -1e-180) "),
    # The markers are the pair's branches: the exact plus branch has E+ = 5e19.
    (["plot", "--v1=-1e10", "--v2=-1e-320", "--g2=1", "--emin=1", "--emax=1e20", "--steps=50"],
     "the strengths (v1, v2) = (-10000000000, -9.9998886718268301e-321) "),
])
def test_strengths_too_far_apart_in_scale_exit_3(argv, failure, capsys, tmp_path):
    # Scaled to unit size, the smaller strength would be a subnormal, and the
    # branches would be decided for another pair.
    out = tmp_path / "out"
    assert main([*argv, f"--out={out}"]) == 3
    assert capsys.readouterr() == ("", "numerical failure: " + failure + _SCALE_GAP)
    assert not out.exists()


@pytest.mark.parametrize("v1, v2, failure", [
    ("-1e150", "-1e-180", "the strengths (v1, v2) = (-9.9999999999999998e+149, -1e-180) "
     + _SCALE_GAP[:-1]),
    # g+^2 = 2 sqrt(2) v^2 overflows, while V1^2 = 2i v^2 in the sweep does not.
    ("-8.5e153", "-8.5e153", "the closed forms of the plus branch overflow at (v1, v2) = "
     "(-8.4999999999999993e+153, -8.4999999999999993e+153)"),
    ("-1e-160", "-1", "the closed forms of the plus branch underflow at (v1, v2) = "
     "(-9.9999999999999999e-161, -1)"),
    # The plus branch is usable, the minus branch's E- underflows.
    ("-1e-200", "1", "the closed forms of the minus branch underflow at (v1, v2) = "
     "(-9.9999999999999998e-201, 1)"),
], ids=["scale-gap", "overflow", "underflow", "minus-underflow"])
def test_every_command_fails_an_unusable_pair_alike(v1, v2, failure, capsys, tmp_path):
    # ss, plot and scan decide a pair's branches through one gate, so they
    # print one failure for it; the scan's first cell is the pair.
    v1_max, v2_max = (repr(float(v) + abs(float(v)) / 2) for v in (v1, v2))
    out = tmp_path / "out"
    for argv in (["ss", f"--v1={v1}", f"--v2={v2}"],
                 ["ss", f"--v1={v1}", f"--v2={v2}", "--json"],
                 ["plot", f"--v1={v1}", f"--v2={v2}", "--branch=plus"],
                 ["plot", f"--v1={v1}", f"--v2={v2}", "--g2=1"],
                 ["scan", f"--v1-min={v1}", f"--v1-max={v1_max}", f"--v2-min={v2}",
                  f"--v2-max={v2_max}", "--n1=2", "--n2=2"]):
        assert main([*argv, f"--out={out}"]) == 3, argv
        assert capsys.readouterr() == ("", f"numerical failure: {failure}\n"), argv
        assert not out.exists()


@pytest.mark.parametrize("box, failure", [
    # One row a block: the one cell whose strengths differ too much in scale,
    # (2^25, just below 2^-996), lies in the third.
    (((0.5, 2.0 ** 25), (math.nextafter(2.0 ** -996, 0.0), 2.0 ** -995), 3, 8192),
     "the strengths (v1, v2) = (33554432, 1.49322178960515e-300) " + _SCALE_GAP[:-1]),
    # Every cell of the third row, v1 = -1e-160, has an underflowing plus branch.
    (((-1.0, -1e-160), (-2.0, -1.0), 3, 8192),
     "the closed forms of the plus branch underflow at (v1, v2) = (-9.9999999999999999e-161, -2)"),
])
def test_scan_fails_at_its_first_unusable_cell_past_the_first_block(box, failure, capsys,
                                                                   tmp_path):
    # Outside the axes bound a gate pass runs over the blocks before the
    # output is opened: it fails as the whole-grid gate did, writing nothing.
    v1, v2 = (uniform_grid(*box[i], box[i + 2]) for i in (0, 1))
    assert cli._SCAN_BLOCK // v2.size == 1 and not cli._axes_usable(v1, v2)
    out = tmp_path / "scan.csv"
    for argv in (_scan_argv(*box), [*_scan_argv(*box), f"--out={out}"]):
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {failure}\n")
        assert not out.exists()


def _axis_end(rng: random.Random) -> float:
    """A scan axis end: near the axes bound's exponents -450 and 450, anywhere
    in the float range, subnormal, zero or at unit scale."""
    sign, kind = rng.choice((-1.0, 1.0)), rng.random()
    if kind < 0.5:
        exponent = rng.choice((-450, 450)) + rng.randint(-2, 1)
        return sign * math.ldexp(rng.uniform(0.5, 1.0), exponent)
    if kind < 0.7:
        return sign * math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1021, 1024))
    if kind < 0.8:
        return sign * rng.randint(1, 2 ** 52) * 2.0 ** -1074
    return 0.0 if kind < 0.9 else sign * rng.uniform(0.1, 10.0)


def test_scan_axes_bound_admits_no_unusable_cell():
    # Wherever cli._axes_usable lets a scan skip its gate pass, the gate finds
    # no failing cell in any block. The safe boxes reach feasible g^2 and E
    # below 2^-890, near the floor of 2^-906 the bound proves.
    rng = random.Random(39)
    safe, unsafe, lowest = 0, 0, math.inf
    for _ in range(4000):
        (a, b), (c, d) = (sorted((_axis_end(rng), _axis_end(rng))) for _ in range(2))
        if not (a < b and c < d) or math.isinf(b - a) or math.isinf(d - c):
            continue
        v1, v2 = uniform_grid(a, b, rng.randint(2, 30)), uniform_grid(c, d, rng.randint(2, 30))
        if not cli._axes_usable(v1, v2):
            unsafe += 1
            continue
        safe += 1
        for rows, plus, minus in cli._scan_blocks(v1, v2):
            cli._require_usable(rows[:, None], v2, plus, minus)
            for sol in (plus, minus):
                lowest = min([lowest, *sol.g_squared[sol.feasible], *sol.energy[sol.feasible]])
    assert safe >= 300 and unsafe >= 300
    assert 2.0 ** -906 < lowest < 2.0 ** -890


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _exact_branches(v1: float, v2: float):
    """Per branch (plus, minus): the reason of ss_branches' closed forms taken
    exactly on the float pair (v1, v2), and, where the square root is real and
    s = v1 + v2 nonzero, (g^2, beta, E) to 80 digits."""
    x, y = Fraction(v1), Fraction(v2)
    a, s, q = x - y, x + y, -2 * x * y      # h+ + h- = a and h+ h- = q
    disc = s * s - 2 * q
    if s == 0 or disc < 0:
        reason = "DegenerateSum" if s == 0 else "ComplexSqrt"
        return [(reason, None)] * 2
    # The signs of h+ >= h-, from their sum and product.
    if q < 0:
        signs = (1, -1)
    elif q > 0:
        signs = (_sign(a), _sign(a))
    else:
        signs = (max(_sign(a), 0), min(_sign(a), 0))
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        d_a, d_s, d_q, d_disc = (decimal.Decimal(f.numerator) / decimal.Decimal(f.denominator)
                                 for f in (a, s, q, disc))
        root = d_disc.sqrt()
        far = (d_a + root.copy_sign(d_a)) / 2 if a else root / 2
        near = d_q / far if a else -far
        h = (far, near) if a >= 0 else (near, far)
        branches = []
        for t, other in ((0, 1), (1, 0)):
            beta = -h[other]
            values = (-d_s * h[t], beta, beta * beta / 2)
            if signs[t] == 0:
                reason = "ZeroGSquared"
            elif _sign(s) * signs[t] >= 0:
                reason = "NegativeGSquared"
            elif signs[other] >= 0:
                reason = "NonPositiveBeta"
            else:
                reason = "OK"
            branches.append((reason, values))
    return branches


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_ss_on_strengths_far_apart_in_scale_is_exact_or_fails(signs, capsys):
    # min/max of |v1|, |v2| log-uniform on [1e-330, 1e-290], around the scale
    # gap where unit_scale takes the smaller strength below 2^-1022; near
    # max = 1e150 a feasible branch's g^2 and E stay normal most often.
    rng = random.Random(sum(signs) + 2 * signs[0] + 11)
    confirmed = 0
    for _ in range(100):
        large = 10.0 ** rng.uniform(140.0, 160.0)
        small = large * 10.0 ** rng.uniform(-330.0, -290.0)
        pair = (large, small) if rng.random() < 0.5 else (small, large)
        v1, v2 = (sign * v for sign, v in zip(signs, pair))
        code = main(["ss", f"--v1={v1!r}", f"--v2={v2!r}", "--json"])
        out, err = capsys.readouterr()
        # The smaller strength, scaled by 2^-k, is below 2^-1022 exactly when
        # the binary exponents differ by more than 1021.
        gap = abs(math.frexp(v1)[1] - math.frexp(v2)[1])
        assert (_SCALE_GAP in err) == (v1 != 0.0 and v2 != 0.0 and gap > 1021), (v1, v2)
        if code == 3:
            assert err.startswith("numerical failure: "), (v1, v2)
            continue
        assert (code, err) == (0, ""), (v1, v2)
        confirmed += 1
        report, exact = json.loads(out), _exact_branches(v1, v2)
        feasible = [reason == "OK" for reason, _ in exact]
        assert report["classification"] == region_of(*feasible).value, (v1, v2)
        for name, (reason, values) in zip(("plus", "minus"), exact):
            rec = report["branches"][name]
            assert rec["reason"] == reason, (v1, v2, name)
            if reason != "OK":
                continue
            for got, want in zip((rec["g_squared"], rec["beta"], rec["energy"]), values):
                ulp = decimal.Decimal(math.ulp(float(want)))
                assert abs(decimal.Decimal(got) - want) <= 5 * ulp, (v1, v2, name, got, want)
    assert confirmed >= 20


@pytest.mark.parametrize("pair, failure", [
    # g+^2 and E+ underflow to 0.
    (("--v1=-1e-200", "--v2=-2e-200"), "the closed forms of the plus branch underflow at "
     "(v1, v2) = (-9.9999999999999998e-201, -2e-200)"),
    # E+ is about 2 v1^2, a subnormal, while g+^2 is about v2^2 = 1.
    (("--v1=-1e-160", "--v2=-1"), "the closed forms of the plus branch underflow at "
     "(v1, v2) = (-9.9999999999999999e-161, -1)"),
    # The plus branch is feasible, and its g+^2 and E+ overflow to inf.
    (("--v1=-1e200", "--v2=-2e200"), "the closed forms of the plus branch overflow at "
     "(v1, v2) = (-9.9999999999999997e+199, -1.9999999999999999e+200)"),
    # g+^2 = 3e154 and E+ = 1.125e308 are finite, but v1^2 in |D| overflows.
    (("--v1=-1.5e154", "--v2=-1"), "the |D| of the plus branch overflows"),
], ids=["zero", "subnormal", "overflow", "denominator"])
@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_ss_out_of_range_prints_only_the_failure(pair, failure, extra):
    proc = run_cli("ss", *pair, *extra)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"numerical failure: {failure}\n")


@pytest.mark.parametrize("argv, pair", [
    (("--v1=-1e-200", "--v2=-2e-200", "--branch=plus"), "(-9.9999999999999998e-201, -2e-200)"),
    (("--v1=-1e-160", "--v2=-1", "--branch=plus"), "(-9.9999999999999999e-161, -1)"),
    # The plus branch is no curve here, only a marker, at E+ = 2e-320.
    (("--v1=-1e-160", "--v2=-1", "--g2=1", "--emin=1e-320", "--emax=1", "--steps=50"),
     "(-9.9999999999999999e-161, -1)"),
], ids=["zero", "subnormal", "subnormal-marker"])
def test_plot_of_an_underflowing_branch_prints_only_the_failure(argv, pair, tmp_path):
    # ss reports the same branch as a numerical failure; plot must not draw
    # the potential with g^2 = 0 or at a subnormal energy, nor mark it there.
    out = tmp_path / "curves.svg"
    proc = run_cli("plot", *argv, f"--out={out}")
    failure = f"the closed forms of the plus branch underflow at (v1, v2) = {pair}"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"numerical failure: {failure}\n")
    assert not out.exists()


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_ss_confirms_a_singularity_whose_unscaled_quartic_overflows(extra):
    # (v1^2 + v2^2)^2 overflows in the unscaled quartic's coefficient e; the
    # oracle solves the quartic of the strengths scaled by a power of two.
    proc = run_cli("ss", "--v1=-1e80", "--v2=-1e80", *extra)
    assert (proc.returncode, proc.stderr) == (0, "")
    if extra:
        assert json.loads(proc.stdout)["oracle"]["plus"]["double_root_multiplicity"] == 2
    else:
        assert "double-root multiplicity=2" in proc.stdout.splitlines()[2]


def test_physical_overflow_prints_only_the_failure():
    proc = run_cli("sweep", "--model", "physical", "--v1=1e200", "--v2=-2e200", "--g2=1e300",
                   "--emin=1", "--emax=2", "--steps=3")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: non-finite amplitudes at E=1 "
                           "off the singularities\n")


@pytest.mark.parametrize("argv", [
    ("sweep",), ("sweep", "--format=json"), ("sweep", "--model=physical"), ("plot",),
])
def test_overflowing_denominator_modulus_prints_only_the_failure(argv, tmp_path):
    # At E = 3.2e307 both parts of D (and of det2) are finite, near 1.3e308,
    # but their modulus, the printed absD, overflows; both models fail there.
    out = tmp_path / "out"
    proc = run_cli(*argv, "--v1=8e153", "--v2=0", "--g2=0", "--emin=3.1e307",
                   "--emax=3.3e307", "--steps=3", f"--out={out}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "numerical failure: non-finite amplitudes at E=3.2000000000000001e+307 "
               "off the singularities\n")
    assert not out.exists()


@pytest.mark.parametrize("model", ["closed-form", "physical"])
def test_denominator_near_the_float_maximum_keeps_the_amplitudes(model, capsys):
    # |D| is about 1.75e308 here and both its parts are finite, but the scaled
    # denominator of r = -i N / D and t = beta (beta + V1) / D overflowed, and
    # every amplitude printed as 0. For real V1 the junction model's amplitudes
    # are the closed forms', so both models are checked against one reference.
    assert main(["sweep", "--v1=8e153", "--v2=0", "--g2=0", "--emin=3e307",
                 "--emax=3.1e307", "--steps=2", f"--model={model}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    v1 = Fraction(8e153)
    for line in lines[1:]:
        _, beta, *cells = map(float, line.split(","))
        # D = beta (beta + v1) + i N with N = v1^2 + v1 beta, exactly, at the
        # printed beta; |t| = beta / sqrt(beta^2 + v1^2) is about 0.7.
        b = Fraction(beta)
        bb, numer = b * (b + v1), v1 * v1 + v1 * b
        norm = bb * bb + numer * numer
        r, t = (-numer * numer / norm, -numer * bb / norm), (bb * bb / norm, -bb * numer / norm)
        want = (*r, *t, r[0] ** 2 + r[1] ** 2, t[0] ** 2 + t[1] ** 2)
        for got, exact in zip(cells, want):
            assert abs(Fraction(got) - exact) <= 8 * math.ulp(1.0), (got, float(exact))


@pytest.mark.parametrize("argv", [
    ("sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--steps=5"),
    ("sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--steps=5", "--model=physical"),
    ("plot", "--v1=-0.5", "--v2=3", "--g2=3.75", "--steps=5"),
], ids=["closed-form", "physical", "plot"])
@pytest.mark.parametrize("bounds, returncode, stderr", [
    # beta = sqrt(2 E) overflows at the last grid node.
    (("--emin=1", "--emax=1e308"), 3,
     "numerical failure: non-finite amplitudes at E=1e+308 off the singularities\n"),
    (("--emin=1", "--emax=inf"), 2, "error: --emax must be finite\n"),
    (("--emin=-inf", "--emax=2"), 2, "error: --emin must be finite\n"),
], ids=["overflow", "inf", "minus-inf"])
def test_energy_grid_out_of_range_prints_only_the_failure(argv, bounds, returncode, stderr,
                                                          tmp_path):
    out = tmp_path / "out"
    proc = run_cli(*argv, *bounds, f"--out={out}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (returncode, "", stderr)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--v1", "-1e-3", "--v2", "-2E-3", "--g2", "1e-6",
     "--emin", "1e-3", "--emax", "2", "--steps", "3"),
    ("ss", "--v1", "-1e-3", "--v2", "-2e-3", "--json"),
    ("scan", "--v1-min", "-1e-3", "--v1-max", "1e-3",
     "--v2-min", "-2.5e+0", "--v2-max", "-.5e-1", "--n1", "3", "--n2", "3"),
])
def test_negative_scientific_values_parse(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    flag = argv.index("--v1") if "--v1" in argv else argv.index("--v1-min")
    equals_form = run_cli(*argv[:flag], f"{argv[flag]}={argv[flag + 1]}", *argv[flag + 2:])
    assert proc.stdout == equals_form.stdout


@pytest.mark.parametrize("argv", [
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
     "--emin", "2", "--emax", "1", "--steps", "10"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
     "--emin", "1", "--emax", "2", "--steps", "1"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "1", "--V2", "1",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "-1",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("sweep", "--v1", "0", "--v2", "0",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
     "--emin", "1", "--emax", "2", "--steps", "5", "--bogus"),
    ("scan", "--v1-min", "-1", "--v1-max", "-0.1",
     "--v2-min", "-1", "--v2-max", "-0.1", "--n1", "1", "--n2", "5"),
    ("verify", "--trials", "0"),
    ("ss", "--v1", "nan", "--v2", "3"),
    ("sweep", "--v1", "0", "--v2", "0", "--g2", "inf",
     "--emin", "1", "--emax", "2", "--steps", "5"),
    ("nonsense",),
])
def test_invalid_arguments_exit_2(argv):
    assert run_cli(*argv).returncode == 2
    assert main(list(argv)) == 2


def test_ss_json_reference_fields():
    proc = run_cli("ss", "--v1", "-0.5", "--v2", "3", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SS_REPORT_SCHEMA)
    assert doc["g2_plus"] == 3.75
    assert doc["g2_minus"] == 5.0
    assert doc["E_plus"] == 2.0
    assert doc["E_minus"] == 1.125
    assert doc["classification"] == "BothBranches"
    assert doc["oracle"]["plus"]["abs_denominator"] <= 1e-12
    assert doc["oracle"]["plus"]["double_root_multiplicity"] == 2
    assert abs(doc["oracle"]["plus"]["double_root_beta"] - 2.0) <= 1e-6


def test_ss_json_infeasible_pair():
    proc = run_cli("ss", "--v1", "1", "--v2", "3", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SS_REPORT_SCHEMA)
    assert not doc["branches"]["plus"]["feasible"]
    assert not doc["branches"]["minus"]["feasible"]
    assert doc["oracle"]["plus"] is None and doc["oracle"]["minus"] is None
    assert doc["classification"] == "None"


def test_ss_json_degenerate_sum():
    proc = run_cli("ss", "--v1", "-1", "--v2", "1", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SS_REPORT_SCHEMA)
    for name in ("plus", "minus"):
        assert doc["branches"][name]["reason"] == "DegenerateSum"
        assert doc["branches"][name]["g_squared"] is None


def _ss_json_pairs():
    """Lossy-quadrant pairs (one oracle confirmation), v2 > 0 band pairs (two),
    the fixed edge pairs of scripts/cli_digests.py, and pairs of
    either sign with one strength near 1e300 or 1e-300 and the other within
    1e+-300, most of which exit 3."""
    rng = random.Random(34)
    lossy = [(-10.0 * (1.0 - rng.random()), -10.0 * (1.0 - rng.random())) for _ in range(200)]
    band = [(KAPPA * v2 * (1.0 - rng.random()), v2)
            for v2 in (0.1 + 9.9 * (1.0 - rng.random()) for _ in range(200))]
    edge = [(-1.0, 0.0), (0.0, 2.0), (-0.0, -1.0), (0.0, 0.0), (-0.5, 3.0),
            (-2.0, -2.0), (-5e-324, -1e-321), (-1e200, -2e200)]
    far = [(rng.choice((-1.0, 1.0)) * scale * (1.0 - rng.random()),
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0))
           for scale in (1e300, 1e-300) for _ in range(100)]
    far = [pair[::rng.choice((1, -1))] for pair in far]
    return [(1, pair) for pair in lossy] + [(2, pair) for pair in band] + [
        (None, pair) for pair in edge + far]


def test_ss_json_bytes_equal_the_indented_json_dumps(capsys):
    # run_ss fills a layout that json.dumps(indent=2) made, value by value.
    printed = 0
    for confirmations, (v1, v2) in _ss_json_pairs():
        code = main(["ss", f"--v1={v1!r}", f"--v2={v2!r}", "--json"])
        out, err = capsys.readouterr()
        if code == 3 and confirmations is None:   # a closed form out of range
            assert err.startswith("numerical failure: "), (v1, v2)
            continue
        report = ss_report(v1, v2)
        assert (code, err) == (0, ""), (v1, v2)
        assert out == json.dumps(report, indent=2, allow_nan=False) + "\n", (v1, v2)
        confirmed = sum(rec is not None for rec in report["oracle"].values())
        assert confirmations in (None, confirmed), (v1, v2)
        printed += 1
    assert printed >= 430


@pytest.mark.parametrize("path, value", [
    (("v1",), math.nan), (("E_minus",), math.inf),
    (("branches", "minus", "energy"), -math.inf),
    (("oracle", "plus", "abs_denominator"), math.nan),
    (("oracle", "plus", "double_root_beta"), math.inf)])
def test_ss_json_of_a_non_finite_value_fails_as_json_dumps(path, value, monkeypatch, capsys):
    report = ss_report(-0.5, 3.0)
    *parents, key = path
    record = report
    for name in parents:
        record = record[name]
    record[key] = value
    with pytest.raises(ValueError) as want:
        json.dumps(report, indent=2, allow_nan=False)
    monkeypatch.setattr(cli, "ss_report", lambda v1, v2: report)
    assert main(["ss", "--v1=-0.5", "--v2=3", "--json"]) == 2
    assert capsys.readouterr() == ("", f"error: {want.value}\n")


def test_ss_text_output():
    proc = run_cli("ss", "--v1", "-0.5", "--v2", "3")
    assert proc.returncode == 0
    assert "BothBranches" in proc.stdout
    assert "g2=3.75" in proc.stdout


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli("scan", "--v1-min", "-1", "--v1-max", "-0.01",
                   "--v2-min", "-1", "--v2-max", "-0.01",
                   "--n1", "10", "--n2", "10", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "v1,v2,classification,E_plus,E_minus"
    assert len(lines) == 101
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] != "None"
        assert cells[3] != ""


def test_scan_positive_quadrant_all_none():
    proc = run_cli("scan", "--v1-min", "0.1", "--v1-max", "1",
                   "--v2-min", "0.1", "--v2-max", "1", "--n1", "5", "--n2", "5")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()[1:]
    assert len(lines) == 25
    for line in lines:
        cells = line.split(",")
        assert cells[2] == "None" and cells[3] == "" and cells[4] == ""


def _scan_csv_per_cell(scan):
    """The scan CSV rendered one cell at a time: the reference for the CLI's
    assembly from pre-formatted pieces."""
    def energies(sol):
        return [f"{e:.17g}" if ok else "" for e, ok in
                zip(sol.energy.ravel().tolist(), sol.feasible.ravel().tolist())]

    cells = zip(itertools.product(scan.v1.tolist(), scan.v2.tolist()),
                (c.value for c in region_of(scan.plus.feasible, scan.minus.feasible).flat),
                energies(scan.plus), energies(scan.minus))
    lines = ["v1,v2,classification,E_plus,E_minus"]
    lines += [f"{v1:.17g},{v2:.17g},{label},{e_plus},{e_minus}"
              for (v1, v2), label, e_plus, e_minus in cells]
    return "\n".join(lines) + "\n"


def _scan_argv(v1_range, v2_range, n1, n2):
    return ["scan", f"--v1-min={v1_range[0]!r}", f"--v1-max={v1_range[1]!r}",
            f"--v2-min={v2_range[0]!r}", f"--v2-max={v2_range[1]!r}", f"--n1={n1}", f"--n2={n2}"]


def run_cli_bytes(*args):
    return subprocess.run([sys.executable, "-m", "qdelta", *args], capture_output=True)


@pytest.mark.parametrize("grid, labels", [
    # DegenerateSum cells on the anti-diagonal
    (((-4.0, 4.0), (-4.0, 4.0), 41, 41), {"None", "PlusOnly", "BothBranches"}),
    # the v2 > 0 band edge v1 = kappa v2 at the cell (3 kappa, 3)
    (((3 * KAPPA - 2.0, 3 * KAPPA), (-3.0, 3.0), 21, 31), {"None", "PlusOnly", "BothBranches"}),
    # every label a scan reaches, on an n1 != n2 grid
    (((-2.0, 1.0), (-2.0, 2.0), 13, 17), {"None", "PlusOnly", "BothBranches"}),
    # a 1e-3-scale box
    (((-1e-3, 1e-3), (-2e-3, 1e-3), 9, 11), {"None", "PlusOnly"}),
    # 8,190 plus energies in the first block, more than the scan formatter's
    # workspace of 4,096 cells, and 2,610 in the second
    (((-2.0, -0.01), (-2.0, -0.01), 120, 90), {"PlusOnly"}),
    # energies from 6e-302 to 4e-300 and from 3e269 to 4e300: 3-digit exponents
    (((-2e-150, 1e-150), (-2e-150, 2e-150), 13, 17), {"None", "PlusOnly", "BothBranches"}),
    (((-2e150, 1e150), (-2e150, 2e150), 13, 17), {"None", "PlusOnly", "BothBranches"}),
    # 1,092 BothBranches cells, whose E_plus must come before their E_minus
    (((-0.3, -0.01), (1.0, 3.0), 30, 40), {"None", "BothBranches"}),
    # one block of 3,600 BothBranches cells: 7,200 energies, more than the
    # formatter's 4,096, so one text call holds minus and plus energies both
    (((-0.15, -0.01), (1.0, 2.0), 40, 90), {"BothBranches"}),
    # two v1 rows a block: 6,000 energies in the first, none in the second
    (((-0.1, 0.5), (1.0, 2.0), 4, 3000), {"None", "BothBranches"}),
])
def test_scan_csv_bytes_equal_the_per_cell_rendering(grid, labels, tmp_path, capsys,
                                                     monkeypatch):
    expected = _scan_csv_per_cell(scan_region(*grid))
    assert {line.split(",")[2] for line in expected.splitlines()[1:]} == labels
    proc = run_cli_bytes(*_scan_argv(*grid))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()
    out = tmp_path / "scan.csv"
    assert run_cli_bytes(*_scan_argv(*grid), f"--out={out}").stdout == b""
    assert out.read_bytes() == proc.stdout
    # The same bytes with every energy left to CPython by g17's fallback.
    scaled = g17._scaled

    def near_everywhere(bits, pidx, u, near, off):
        digits = scaled(bits, pidx, u, near, off)
        near[:] = True
        return digits

    monkeypatch.setattr(g17, "_scaled", near_everywhere)
    assert main(_scan_argv(*grid)) == 0
    assert capsys.readouterr().out == expected


def test_scan_formats_exactly_its_feasible_energies_through_g17(monkeypatch, capsys):
    # The axis values stay f-strings, formatted once each; every feasible
    # energy, and nothing else, goes through g17.Formatter, a block's minus and
    # plus energies together in as few calls as its workspace allows. Of the
    # 250x250 box's 8 blocks, 4 hold 4,288-4,934 energies and 4 none; the
    # 30x40 grid's one block holds 1,092 of each branch, one call, not two.
    size = cli._SCAN_BLOCK // 2
    passed = []
    text = g17.Formatter.text

    def spy(self, cells):
        passed.append(np.size(cells))
        return text(self, cells)

    monkeypatch.setattr(g17.Formatter, "text", spy)
    for grid, energies, calls in [(((-9.3, 10.7), (-10.7, 9.3), 250, 250), 17_798, 8),
                                  (((-0.3, -0.01), (1.0, 3.0), 30, 40), 2_184, 1)]:
        scan = scan_region(*grid)
        passed.clear()
        assert main(_scan_argv(*grid)) == 0
        assert capsys.readouterr().out == _scan_csv_per_cell(scan)
        assert sum(passed) == np.count_nonzero(scan.plus.feasible) + np.count_nonzero(
            scan.minus.feasible) == energies
        n1, n2 = grid[2:]
        step = max(1, cli._SCAN_BLOCK // n2)
        per_block = [np.count_nonzero(scan.plus.feasible[i:i + step])
                     + np.count_nonzero(scan.minus.feasible[i:i + step])
                     for i in range(0, n1, step)]
        assert len(passed) == sum(-(-k // size) for k in per_block) == calls
        assert max(passed) <= size


def test_scan_reads_no_branch_reason(monkeypatch, capsys):
    # A scan prints labels and energies only, so it never names a branch's
    # failed check; ss does.
    class Lookups:
        def __init__(self, table):
            self.table, self.codes = table, []

        def __getitem__(self, code):
            self.codes.append(code)
            return self.table[code]

    lookups = Lookups(singular._REASONS)
    monkeypatch.setattr(singular, "_REASONS", lookups)
    assert main(_scan_argv((-9.3, 10.7), (-10.7, 9.3), 250, 250)) == 0
    assert capsys.readouterr().out.count("\n") == 62_501
    assert lookups.codes == []
    assert main(["ss", "--v1=-0.5", "--v2=3"]) == 0
    assert len(lookups.codes) == 2


def test_benchmark_sized_sweep_and_scan_leave_no_cell_to_cpython(monkeypatch, tmp_path):
    # Every sweep cell and scan energy here has X in [-11, 16], where g17 takes
    # the 17 digits from an exact product: only an exact tie, which none of
    # them is, would go to CPython's '%.17g'.
    fallbacks = []
    text = g17.Formatter.text

    def spy(self, cells):
        out = text(self, cells)
        fallbacks.append(self.fallbacks)
        return out

    monkeypatch.setattr(g17.Formatter, "text", spy)
    assert main(["sweep", *_REF_GRID, "--steps=50000", f"--out={tmp_path / 'sweep.csv'}"]) == 0
    sweep_calls = len(fallbacks)
    assert main([*_scan_argv((-9.3, 10.7), (-10.7, 9.3), 250, 250),
                 f"--out={tmp_path / 'scan.csv'}"]) == 0
    assert sweep_calls >= 98 and len(fallbacks) > sweep_calls
    assert sum(fallbacks) == 0


def test_scan_full_size_output_is_pinned():
    # 62,500 cells of a box shifted off [-10, 10]^2; the digest is that of the
    # per-cell rendering that the assembly from pieces replaced.
    proc = run_cli_bytes(*_scan_argv((-9.3, 10.7), (-10.7, 9.3), 250, 250))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "2096b880c8b4e44ea4188610478dfd2c36a1cb441d900f07269ab532e832d599"


# The sweep CSV is written in blocks of 512 rows (2,048 before) and the scan
# CSV in blocks of whole v1 rows of about 8,192 cells, so these pin the bytes on
# either side of the block edges: steps around one and two blocks, a singular
# row at the last row of a block and at the first of the next (0-based rows
# 2047 and 2048, 511 and 512), and a 3x9000 scan, one v1 row a block. The
# digests are those of the rendering that built the whole table before writing
# it, and, for the 512-row edges, of the per-row '%.17g' formatting that
# g17.Formatter replaced.
_REF_GRID = ("--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=0.05", "--emax=4")


@pytest.mark.parametrize("argv, singular_row, digest", [
    (("sweep", *_REF_GRID, "--steps=2"), None,
     "0c000f63480cf206418b70fc2a04927f6b9cdbb712ae59dd0f170410c9d74f1a"),
    (("sweep", *_REF_GRID, "--steps=2047"), None,
     "618f2f4a4e80c8992d4942f1bc15e85088f9947a5082cab39f3687e1b54e90a0"),
    (("sweep", *_REF_GRID, "--steps=2048"), None,
     "ba6665d7a0f745abdd80ed29a27f214ac3327d1fbb989eeeb8610c60d253d68f"),
    (("sweep", *_REF_GRID, "--steps=2049"), None,
     "ba88b88605676922a1570b22ceb4dc73535c0dbef115fa880cf47d7ca378d0a6"),
    (("sweep", *_REF_GRID, "--steps=4097"), None,
     "baa1b1254b83c461bbb2a1a01cafe756f89c428d3452ed2f1c4b4708fc55e700"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=2"), None,
     "cd6839610473e89f317a9b49688555089696e1075ebce3c349944430e01602d8"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=2047"), None,
     "2014e22e56c1eff05f3dd164ae966f458d93cc9e986e978a0f98eb5df8cb82c8"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=2048"), None,
     "c4f2c9aac8c198cb45f873cb50b2f42db93a7cf8c5709b4a55da9ad07dc13aed"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=2049"), None,
     "bf5d381354d48d00236916fca7347ba53da0387d3fe58a2fb7a0cdd483da28db"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=4097"), None,
     "c90a6a46d96d86abb0583f1999968a5a2e7c5fdc5ec7d6c653273997e2bc6515"),
    # E = 2, the plus branch's singular energy, on grid node 2047 or 2048.
    (("sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=0.05",
      "--emax=3.9519052271616997", "--steps=4097"), 2047,
     "4a3a2500b2a7284ad983a821974af1399acefad0117fd16ad28f53cbc45cc13c"),
    (("sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=0.05",
      "--emax=3.9499999999999997", "--steps=4097"), 2048,
     "be08c8a57b600cafa611e3af8b68f4c37be7802f39f40a6640b4ad6a393f170d"),
    # The junction's singularity at E = 4.5 on grid node 2047 or 2048.
    (("sweep", "--model=physical", "--v1=-1", "--v2=2", "--g2=4", "--emin=0.05",
      "--emax=8.954347826086957", "--steps=4097"), 2047,
     "92c0d16d50ad32c7e7194fff4e363ecb3e349362111559b100432b5cae573f34"),
    (("sweep", "--model=physical", "--v1=-1", "--v2=2", "--g2=4", "--emin=0.05",
      "--emax=8.950000000000001", "--steps=4097"), 2048,
     "8d96e26a06bfdf4b9a129bbf2693f79db248133b613acbb8a93d01e70c2188e1"),
    (tuple(_scan_argv((-9.3, 10.7), (-10.7, 9.3), 250, 250)), None,
     "2096b880c8b4e44ea4188610478dfd2c36a1cb441d900f07269ab532e832d599"),
    (tuple(_scan_argv((-4.0, 4.0), (-4.0, 4.0), 41, 20)), None,
     "704061c833a877fba0f5e88159a61a052e247cce0346120ea8d64381f2f25fd9"),
    (tuple(_scan_argv((-4.0, 4.0), (-4.0, 4.0), 3, 9000)), None,
     "0bf10da8491797f95167af0f75bafe5f3bb498b2c02b31b55d15de7f450136ed"),
    (("sweep", *_REF_GRID, "--steps=511"), None,
     "8061415f6c99ff3f0bc2dbcfeb10adaa46ff7c2d634d2582591d23f8b90df8cc"),
    (("sweep", *_REF_GRID, "--steps=512"), None,
     "4723f0bce59dc9b9aaaafde99d566040504ff8f301ea03032007b5c37ca37e85"),
    (("sweep", *_REF_GRID, "--steps=513"), None,
     "db2299377dc73b59121edd4e9909a0e09b220fe9289c058981d64f992b9309c8"),
    (("sweep", *_REF_GRID, "--steps=1025"), None,
     "cd30d7e95ff287c362d0851bd091946b2ff8b629f50724ccc8575b5e3d0f49b1"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=511"), None,
     "fa92525cb5fbf6e99596c7e733c7b0d43719d25a3722667588280b046eb943ff"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=512"), None,
     "37eb47efd628cfd9b75f4e822fb6f4985203c24376e7ae0466ce2cf4ed4cd354"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=513"), None,
     "91d4beab3b628534796b714ff95485eb3c30c575dc5a62d4d1edffe7fb13c4ce"),
    (("sweep", "--model=physical", *_REF_GRID, "--steps=1025"), None,
     "35acce71369d4ffe321d87fc2572784ab4cd503b97e9a977b85dc4d8ac08aa69"),
    # E = 2 and the junction's E = 4.5 on grid node 511 or 512.
    (("sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=0.05",
      "--emax=3.9576320939334635", "--steps=1025"), 511,
     "8524bfca8573c0baa09996605719c209df249e151aa48edb127f5d29a4b18429"),
    (("sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=0.05",
      "--emax=3.9499999999999997", "--steps=1025"), 512,
     "bc90e44035708c3a5ea762640b57eedb7d898fab4d2b4e6fffc8e86073383f58"),
    (("sweep", "--model=physical", "--v1=-1", "--v2=2", "--g2=4", "--emin=0.05",
      "--emax=8.967416829745599", "--steps=1025"), 511,
     "cca414502c723a19e6bc883ccabcb639afcb4809e2df17ff89dd55e174155875"),
    (("sweep", "--model=physical", "--v1=-1", "--v2=2", "--g2=4", "--emin=0.05",
      "--emax=8.950000000000001", "--steps=1025"), 512,
     "9ab98921377352d39af5dba3dd2b54351962349ae188add6c0ad969034b0be9a"),
])
def test_csv_bytes_across_block_edges_are_pinned(argv, singular_row, digest, capsys,
                                                  tmp_path):
    assert main(list(argv)) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    rows = text.splitlines()[1:]
    assert [i for i, row in enumerate(rows) if ",nan," in row] == (
        [] if singular_row is None else [singular_row])
    out = tmp_path / "out.csv"
    assert main([*argv, f"--out={out}"]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == text.encode()


def _sweep_json_per_row(argv: list[str]) -> str:
    """The sweep JSON of argv built as a whole document: one dict per row, null
    for each non-finite cell, and json.dumps(indent=2) of the lot."""
    args = build_parser().parse_args(argv)
    p = (DeltaPotential.from_g_squared(args.v1, args.v2, args.g2) if args.g2 is not None else
         DeltaPotential(args.v1, args.v2, args.cap_v2, args.cap_v3 or 0.0))
    res = (sweep(p, args.emin, args.emax, args.steps) if args.model == "closed-form" else
           matching_solver(p, energy_grid(args.emin, args.emax, args.steps),
                           MatchMode.CONJUGATE))
    columns = [res.energy, res.beta, res.r.real, res.r.imag, res.t.real, res.t.imag,
               res.big_r, res.big_t, res.abs_d]
    rows = [{**{key: x if math.isfinite(x) else None for key, x in zip(HEADER.split(","), cells)},
             "at_singularity": singular}
            for cells, singular in zip(zip(*(col.tolist() for col in columns)),
                                       res.at_singularity.tolist())]
    doc = {"model": args.model,
           "potential": {"v1": p.v1, "v2": p.v2, "cap_v2": p.cap_v2, "cap_v3": p.cap_v3,
                         "g_squared": p.g_squared},
           "grid": {"e_min": args.emin, "e_max": args.emax, "steps": args.steps},
           "rows": rows}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_PHYSICAL_REF = ("--model=physical", "--v1=-1", "--v2=2", "--g2=4")
_TINY_REF = ("--v1=-5e-151", "--v2=3e-150", "--g2=3.75e-300", "--emin=5e-302", "--emax=4e-300")
_HUGE_REF = ("--v1=-5e149", "--v2=3e150", "--g2=3.75e300", "--emin=5e298", "--emax=4e300")


# The JSON rows are written in the CSV's 512-row blocks, so these cover steps
# around one and two blocks, a singular row first, last and on nodes 511-513,
# signed zeros, and strengths near 1e-150 (every row singular: the floor of
# scatter's singular test is absolute) and 1e150. singular_rows is None where
# the rows are not placed by hand.
@pytest.mark.parametrize("argv, singular_rows", [
    *(((*model, *_REF_GRID, f"--steps={n}"), None)
      for model in ((), ("--model=physical",)) for n in (2, 511, 512, 513, 1025)),
    (("--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=2", "--emax=4", "--steps=3"), [0]),
    (("--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=0.05", "--emax=2", "--steps=513"), [512]),
    *((("--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=0.05", f"--emax={emax}", "--steps=1025"),
       [node]) for node, emax in ((511, 3.9576320939334635), (512, 3.9499999999999997),
                                  (513, 3.9423976608187132))),
    ((*_PHYSICAL_REF, "--emin=4.5", "--emax=8", "--steps=512"), [0]),
    ((*_PHYSICAL_REF, "--emin=0.05", "--emax=4.5", "--steps=511"), [510]),
    *(((*_PHYSICAL_REF, "--emin=0.05", f"--emax={emax}", "--steps=1025"), [node])
      for node, emax in ((511, 8.967416829745599), (512, 8.950000000000001),
                         (513, 8.932651072124758))),
    *(((*model, *zeros, "--emin=1", "--emax=2", "--steps=5"), [])
      for model in ((), ("--model=physical",))
      for zeros in (("--v1=-0.0", "--v2=-0.0", "--V2=-0.0", "--V3=-0.0"),
                    ("--v1=-0.0", "--v2=3", "--g2=-0.0"))),
    *(((*model, *ref, "--steps=513"), None)
      for model in ((), ("--model=physical",)) for ref in (_TINY_REF, _HUGE_REF)),
    (("--v1=-5e149", "--v2=3e150", "--g2=3.75e300", "--emin=2e300", "--emax=4e300",
      "--steps=3"), [0]),
])
def test_sweep_json_bytes_equal_the_whole_document_rendering(argv, singular_rows, capsys,
                                                              tmp_path):
    argv = ["sweep", *argv, "--format=json"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == _sweep_json_per_row(argv)
    if singular_rows is not None:
        rows = json.loads(text)["rows"]
        assert [i for i, row in enumerate(rows) if row["at_singularity"]] == singular_rows
    out = tmp_path / "sweep.json"
    assert main([*argv, f"--out={out}"]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == text.encode()


def _traced_peak_per_byte(argv: list[str], warm_up: list[str], out: Path) -> float:
    """The traced peak allocation of an in-process command writing to out, over
    the bytes it wrote; a small command of the same kind runs first, so lazy
    imports and caches are not counted."""
    assert main([*warm_up, f"--out={out}"]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, f"--out={out}"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.stat().st_size


def test_sweep_csv_memory_does_not_grow_with_the_table(tmp_path):
    # The result arrays take 89 bytes a row and the CSV about 170, so the peak
    # is about the bytes written (0.93 times them); rendering the whole table
    # before writing it peaked at 3.8 times them, and 2,048-row blocks, with
    # four times g17.Formatter's workspace, at 1.18.
    ratio = _traced_peak_per_byte(["sweep", *_REF_GRID, "--steps=50000"],
                                  ["sweep", *_REF_GRID, "--steps=3"], tmp_path / "sweep.csv")
    assert ratio <= 1.0


def test_sweep_json_memory_does_not_grow_with_the_table(tmp_path):
    # The JSON rows go through the CSV's 512-row blocks, so the peak is the
    # sweep's own arrays, 0.48 times the bytes written; one dict per row and
    # json.dumps of the whole document peaked at 7.75 times them.
    argv = ["sweep", *_REF_GRID, "--format=json"]
    ratio = _traced_peak_per_byte([*argv, "--steps=50000"], [*argv, "--steps=3"],
                                  tmp_path / "sweep.json")
    assert ratio <= 0.6


def test_physical_sweep_memory_holds_no_matching_temporaries(tmp_path):
    # 1.30 times the bytes written; 1.76 while oracle.matching_solver kept its
    # elimination temporaries alive through the quotients.
    argv = ["sweep", "--model=physical", *_REF_GRID]
    ratio = _traced_peak_per_byte([*argv, "--steps=50000"], [*argv, "--steps=3"],
                                  tmp_path / "sweep.csv")
    assert ratio <= 1.4


def test_scan_csv_memory_does_not_grow_with_the_table(tmp_path):
    # 0.79 times the bytes written: one block's branches and strings, and the
    # energies' g17.Formatter workspace of 4,096 cells, 0.30 of them. Evaluating
    # the branches of the whole grid before writing peaked at 1.80, with a
    # Reason array per branch and a 3-piece array per cell at 2.07, and
    # rendering the whole table before writing it at 4.4.
    ratio = _traced_peak_per_byte(_scan_argv((-9.3, 10.7), (-10.7, 9.3), 250, 250),
                                  _scan_argv((-1.0, 1.0), (-1.0, 1.0), 3, 3),
                                  tmp_path / "scan.csv")
    assert ratio <= 1.0


def test_scan_traced_peak_does_not_grow_with_the_grid(tmp_path):
    # A 2000x2000 scan writes 209 MB and peaks at 4.6 MB traced, about one
    # block; evaluating the branches of the whole grid first peaked at 376 MB.
    out = tmp_path / "scan.csv"
    ratio = _traced_peak_per_byte(_scan_argv((-9.3, 10.7), (-10.7, 9.3), 2000, 2000),
                                  _scan_argv((-1.0, 1.0), (-1.0, 1.0), 3, 3), out)
    peak = ratio * out.stat().st_size
    out.unlink()
    assert peak <= 8e6


@pytest.mark.parametrize("seed, returncode, digest", [
    (42, 0, "76fcff6276925278e0030b20dbdefa70fdaf67ddb3fcf82746b8427e36cf44b8"),
    (7, 0, "0195c6d4e45534e4773d35f13b0d5328fba648209b290b46a669553e99cc0b76"),
    # Failed double-root-boundary while the quartic's e cancelled; it passes
    # since e is a sum of squares.
    (1070767975, 0, "c7057d4284665a263c9334bc03de18eb0bdf2a99325a864fb7f76be2df4fbc97"),
    # The check seeds run from -4 to 4, across 0.
    (-5, 0, "d4fa6856db86f172d6a809ef0282a26fd3875e71a1c33614aae91e3715dc2ed5"),
    (0, 0, "171faced0947306cf75778cba67b6c5af04aea94c0897b69d43912407663881a"),
    # 2^40 + 7: every check seed is a two-word key.
    (1099511627783, 0, "e4dc286408540c1f80b09fcc2ab0a08944bea19f14f18d7c1e137708bd87125e"),
])
def test_verify_report_is_pinned(seed, returncode, digest):
    proc = run_cli_bytes("verify", f"--seed={seed}", "--trials=10000")
    assert proc.returncode == returncode, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_verify_deterministic_and_small(tmp_path):
    out = tmp_path / "report.txt"
    a = run_cli("verify", "--seed", "7", "--trials", "200", "--out", str(out))
    b = run_cli("verify", "--seed", "7", "--trials", "200")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "result: PASS" in a.stdout
    assert out.read_text(encoding="utf-8") == a.stdout


def test_verify_failure_exits_3(monkeypatch):
    from qdelta import verify
    monkeypatch.setattr(verify, "run_and_render", lambda seed, trials: (False, "forced failure\n"))
    assert main(["verify", "--trials", "10"]) == 3


def test_plot_reference_branch(tmp_path):
    out = tmp_path / "curves.svg"
    proc = run_cli("plot", "--v1", "-0.5", "--v2", "3", "--branch", "plus",
                   "--out", str(out))
    assert proc.returncode == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert 'class="ss-marker" data-energy="2"' in svg
    assert 'class="ss-marker" data-energy="1.125"' in svg
    assert 'class="curve-r"' in svg and 'class="curve-t"' in svg


def test_plot_free_potential_no_markers(tmp_path):
    out = tmp_path / "flat.svg"
    proc = run_cli("plot", "--v1", "0", "--v2", "0", "--g2", "0",
                   "--out", str(out))
    assert proc.returncode == 0
    svg = out.read_text(encoding="utf-8")
    assert "ss-marker" not in svg
    assert 'class="curve-t" points="' in svg


def test_plot_infeasible_pair_without_markers(tmp_path):
    out = tmp_path / "nomark.svg"
    proc = run_cli("plot", "--v1", "1", "--v2", "3", "--g2", "1",
                   "--out", str(out))
    assert proc.returncode == 0
    assert "ss-marker" not in out.read_text(encoding="utf-8")


def test_plot_infeasible_branch_rejected(tmp_path):
    proc = run_cli("plot", "--v1", "1", "--v2", "3", "--branch", "plus",
                   "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 2


def test_plot_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out_a, out_b):
        run_cli("plot", "--v1", "-0.5", "--v2", "3", "--branch", "minus",
                "--out", str(out))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_io_failure_exit_1(tmp_path, capsys):
    proc = run_cli("sweep", "--v1", "0", "--v2", "0", "--g2", "0",
                   "--emin", "1", "--emax", "2", "--steps", "2",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"))
    assert proc.returncode == 1
    # A directory cannot be opened for writing.
    assert main(["ss", "--v1=-0.5", "--v2=3", f"--out={tmp_path}"]) == 1
    assert capsys.readouterr().err.startswith("i/o failure: ")


# Every command's --out goes through cli._output; a plot writes only there.
_OUT_COMMANDS = {
    "sweep-csv": ["sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=1", "--emax=3",
                  "--steps=1200"],
    "sweep-json": ["sweep", "--v1=-0.5", "--v2=3", "--g2=3.75", "--emin=1", "--emax=3",
                   "--steps=600", "--format=json"],
    "scan": ["scan", "--v1-min=-1", "--v1-max=1", "--v2-min=-1", "--v2-max=1", "--n1=40",
             "--n2=30"],
    "ss-text": ["ss", "--v1=-0.5", "--v2=3"],
    "ss-json": ["ss", "--v1=-0.5", "--v2=3", "--json"],
    "verify": ["verify", "--seed=1", "--trials=50"],
    "plot": ["plot", "--v1=-0.5", "--v2=3", "--branch=plus", "--steps=300"],
}


def _fresh_output(argv, path, capsys):
    """The bytes a command prints to stdout, or, for plot, writes to a fresh path."""
    if argv[0] == "plot":
        assert main([*argv, f"--out={path}"]) == 0
        capsys.readouterr()
        return path.read_bytes()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("target", ["missing", "longer", "shorter"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_out_overwrites_an_existing_file_in_place(command, target, tmp_path, capsys,
                                                  monkeypatch):
    # An existing file is written from its start and cut to the bytes written,
    # never truncated on open (O_TRUNC frees all its disk blocks first).
    argv = _OUT_COMMANDS[command]
    want = _fresh_output(argv, tmp_path / "fresh", capsys)
    out = tmp_path / "out"
    if target != "missing":
        size = 2 * len(want) + 5000 if target == "longer" else len(want) // 2
        out.write_bytes((b"junk\xff\n" * size)[:size])
        inode = out.stat().st_ino
    flags = []
    os_open = os.open

    def spy(path, flag, *rest):
        flags.append(flag)
        return os_open(path, flag, *rest)

    monkeypatch.setattr(os, "open", spy)
    assert main([*argv, f"--out={out}"]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out == (want.decode() if command == "verify" else "")
    assert out.read_bytes() == want
    assert flags and not any(flag & os.O_TRUNC for flag in flags)
    if target != "missing":
        assert out.stat().st_ino == inode


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_out_to_dev_null(command):
    assert main([*_OUT_COMMANDS[command], "--out=/dev/null"]) == 0


def test_a_writer_that_raises_leaves_exactly_its_partial_text(tmp_path, capsys, monkeypatch):
    def rows_to_csv(res, out):
        out.write("E,beta\n1,")
        raise NumericalError("stopped partway")

    monkeypatch.setattr(cli, "rows_to_csv", rows_to_csv)
    out = tmp_path / "out.csv"
    out.write_bytes(b"old text, longer than the partial one\n" * 1000)
    assert main([*_OUT_COMMANDS["sweep-csv"], f"--out={out}"]) == 3
    assert capsys.readouterr() == ("", "numerical failure: stopped partway\n")
    assert out.read_bytes() == b"E,beta\n1,"


def test_main_callable_in_process(capsys):
    code = main(["ss", "--v1", "-0.5", "--v2", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["E_plus"] == 2.0


# The free particle at E = 1e-12 prints a singular row today: |D| = 2e-12 falls
# under scatter's TOL_SINGULAR * max(1, beta^2) floor, which is absolute for
# beta < 1, so the verdict depends on the units.
@pytest.mark.xfail(strict=True, reason="scatter's singular floor has a scale")
def test_free_particle_below_the_singular_floor_keeps_its_amplitudes(capsys):
    # |D| = beta^2 = 2E, so R = 0, T = 1 and absD = 2E on every row.
    assert main(["sweep", "--v1=0", "--v2=0", "--g2=0",
                 "--emin=1e-12", "--emax=1e-10", "--steps=3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == HEADER and len(lines) == 4
    for line in lines[1:]:
        cells = [float(cell) for cell in line.split(",")]
        assert (cells[6], cells[7]) == (0.0, 1.0), line
        assert cells[8] == pytest.approx(2.0 * cells[0], rel=1e-12), line


def _oracle_at(report):
    """Per branch, the oracle's (multiplicity, double root), or None."""
    return [None if rec is None else (rec["double_root_multiplicity"], rec["double_root_beta"])
            for rec in (report["oracle"]["plus"], report["oracle"]["minus"])]


def test_ss_confirms_lossy_singularities_at_every_scale(capsys):
    # The certificate takes the strengths scaled by a power of two
    # (unit_scale), so it confirms the double root at beta+ at small
    # (v = -1e-8) and large (v = -1e10) strengths alike.
    for pair in (["--v1=-1e-8", "--v2=-2e-8"], ["--v1=-1e10", "--v2=-1e10"]):
        assert main(["ss", *pair, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "PlusOnly", pair
        assert doc["oracle"]["plus"]["double_root_multiplicity"] == 2, pair
    # Scaling v by 2^k scales each double root by exactly 2^k, in the lossy
    # quadrant and in the v2 > 0 band.
    rng = random.Random(21)
    lossy = [(-10.0 * rng.random(), -10.0 * rng.random()) for _ in range(4)]
    band = [(KAPPA * v2 * rng.random(), v2) for v2 in (0.1 + 9.9 * rng.random() for _ in range(4))]
    for v1, v2 in lossy + band:
        unit = ss_report(v1, v2)
        assert all(rec is None or rec[0] == 2 for rec in _oracle_at(unit)), (v1, v2)
        for k in range(-300, 301, 25):
            scaled = ss_report(math.ldexp(v1, k), math.ldexp(v2, k))
            assert scaled["classification"] == unit["classification"], (v1, v2, k)
            assert _oracle_at(scaled) == [
                None if rec is None else (rec[0], math.ldexp(rec[1], k))
                for rec in _oracle_at(unit)], (v1, v2, k)


@pytest.mark.parametrize("v1, v2", [("-1", "0"), ("0", "2"), ("-0.0", "-1")])
def test_ss_prints_a_zero_branch_as_plus_zero(v1, v2, capsys):
    # g^2 = -s h and beta = -h' of a zero h or h' are 0, not -0.
    assert main(["ss", f"--v1={v1}", f"--v2={v2}"]) == 0
    text = capsys.readouterr().out
    assert main(["ss", f"--v1={v1}", f"--v2={v2}", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    values = [report[f"{key}_{name}"] for key in ("g2", "beta") for name in ("plus", "minus")]
    values += [rec[key] for rec in report["branches"].values() for key in ("g_squared", "beta")]
    zeros = [math.copysign(1.0, x) for x in values if x == 0.0]
    assert zeros and zeros == [1.0] * len(zeros)
    assert "g2=0\n" in text and "g2=-0\n" not in text
    # The branch of the zero g^2 fails as ZeroGSquared, not as NegativeGSquared.
    jsonschema.validate(report, SS_REPORT_SCHEMA)
    assert text.count("(ZeroGSquared) g2=0\n") == 1
    assert [rec["reason"] == "ZeroGSquared" for rec in report["branches"].values()] == [
        rec["g_squared"] == 0.0 for rec in report["branches"].values()]


def test_ss_prints_no_numpy_warning():
    # beta+ = 2e-20 is too small against the strengths for the rounded g^2 to
    # keep a double root within 1e-6 beta+ of it: a numerical failure, on one
    # line and with no numpy warning.
    proc = run_cli("ss", "--v1=-1e-20", "--v2=-1e100")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("numerical failure: the double root of the plus branch cannot be "
                           "certified at (v1, v2) = (-9.9999999999999995e-21, -1e+100)\n")


def test_ss_on_log_uniform_lossy_pairs_confirms_or_fails_honestly(capsys):
    # v1 and v2 drawn as -10^U, U in [-300, 300]: every report confirms the
    # plus branch's double root within 1e-6 beta+ of beta+, or exits 3 on a
    # closed form out of range, on strengths too far apart in scale or on a
    # double root the certificate cannot reach, and no command warns.
    rng = random.Random(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            v1, v2 = (-10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
            code = main(["ss", f"--v1={v1!r}", f"--v2={v2!r}", "--json"])
            out, err = capsys.readouterr()
            if code == 3:
                assert err.startswith(("numerical failure: the closed forms of the plus branch",
                                       "numerical failure: the strengths (v1, v2) = ",
                                       "numerical failure: the double root of the plus branch "
                                       "cannot be certified at (v1, v2) = ")), err
            else:
                assert (code, err) == (0, ""), (v1, v2)
                report = json.loads(out)
                confirm, beta = report["oracle"]["plus"], report["beta_plus"]
                assert confirm["double_root_multiplicity"] == 2, (v1, v2)
                assert abs(confirm["double_root_beta"] - beta) <= 1e-6 * beta, (v1, v2)


def test_usage_errors_return_2_in_process(capsys):
    for argv in (["nonsense"], ["ss", "--v1=1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qdelta") and "error:" in err


def test_help_returns_0_in_process(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith(
        "usage: qdelta [-h] [--version] {sweep,ss,scan,verify,plot} ...\n")


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"qdelta {__version__}\n"
    proc = run_cli("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"qdelta {__version__}\n", "")


def test_parser_is_built_once(capsys, tmp_path):
    for argv in (["ss", "--v1=-0.5", "--v2=3"], ["verify", "--trials=5"],
                 ["scan", "--v1-min=-1", "--v1-max=1", "--v2-min=-1", "--v2-max=1",
                  "--n1=2", "--n2=2"],
                 ["sweep", "--v1=0", "--v2=0", "--g2=0", "--emin=1", "--emax=2", "--steps=2"],
                 ["plot", "--v1=-0.5", "--v2=3", "--branch=plus", "--steps=20",
                  f"--out={tmp_path / 'x.svg'}"],
                 ["ss", "--v1=-0.5", "--v2=3", "--json"], ["--version"], ["nonsense"]):
        main(argv)
    capsys.readouterr()
    assert build_parser.cache_info().misses == 1


def test_shared_parser_keeps_no_state_between_commands(capsys, tmp_path):
    """One process runs commands whose options differ from the previous
    command's, and a rejection among them; each output is byte-identical to
    a fresh process's."""
    pair = ["--v1=-0.5", "--v2=3"]
    potential = [*pair, "--g2=3.75", "--emin=1", "--emax=2", "--steps=7"]
    sequence = [
        ["ss", *pair, "--json"],
        ["ss", *pair],
        ["sweep", *potential, "--model", "physical", "--format", "json"],
        ["ss", *pair, "--bogus"],
        ["sweep", *potential],
        ["plot", *pair, "--branch=plus", "--steps=50", "--out={out}"],
        ["plot", *pair, "--branch=plus", "--out={out}"],
    ]
    for n, argv in enumerate(sequence):
        out = tmp_path / f"in_process_{n}.svg"
        code = main([arg.format(out=out) for arg in argv])
        captured = capsys.readouterr()
        fresh_out = tmp_path / f"fresh_{n}.svg"
        fresh = run_cli_bytes(*(arg.format(out=fresh_out) for arg in argv))
        assert (code, captured.out.encode(), captured.err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        if "--out={out}" in argv:
            assert out.read_bytes() == fresh_out.read_bytes(), argv
    # plot's default 1200 steps came back after --steps=50.
    assert (tmp_path / "in_process_5.svg").read_bytes() != (
        tmp_path / "in_process_6.svg").read_bytes()
    assert build_parser().parse_args(["ss", *pair]).as_json is False


def test_reproduce_reference_case_script(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_reference_case.py"),
         "--outdir", str(tmp_path), "--steps", "200"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for branch in ("plus", "minus"):
        for ext in ("csv", "svg"):
            assert (tmp_path / f"curves_{branch}.{ext}").is_file()
    assert "v1=-0.5, v2=3" in proc.stdout
    assert proc.stdout.count("(x2)") == 2


def test_census_script_hashes_what_each_command_wrote(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "cli_digests.py"),
                           "--seed=3", "--count=4"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert [line[2] for line in lines] == (["scan"] * 4 + ["ss"] * 3 * (8 + 2 * 4)
                                           + ["sweep"] * 2 * 4 + ["plot"] * 4 + ["scan"] * 2 * 4)
    assert {line[1] for line in lines} == {"0", "3"}      # the 1e200-scale scan fails
    # The late-failing scans fail, the boxes about the axes bound do not.
    assert [line[1] for line in lines[-2 * 4:]] == ["3", "0"] * 4
    files = {"PLOT.svg": tmp_path / "plot.svg", "SS.json": tmp_path / "ss.json"}
    for sha, code, *argv in lines:
        name, out = next(((name, out) for name, out in files.items() if f"--out={name}" in argv),
                         ("", tmp_path / "none"))
        out.unlink(missing_ok=True)
        got = main([arg.replace(name, str(out)) if name else arg for arg in argv])
        printed = capsys.readouterr()
        written = out.read_bytes() if out.exists() else b""
        text = printed.out.encode() + b"\0" + printed.err.encode() + b"\0" + written
        assert (hashlib.sha256(text).hexdigest(), got) == (sha, int(code)), argv
    assert lines[-2 * 4 - 1][-1] == "--out=PLOT.svg" and files["PLOT.svg"].stat().st_size > 0
    assert sum(line[-1] == "--out=SS.json" for line in lines) == 8 + 2 * 4
    assert files["SS.json"].stat().st_size > 0
