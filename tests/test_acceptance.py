"""Acceptance gate: one test per contract criterion, printing a pass/fail
line each. The numeric tolerances live in qdelta.verify next to the checks
the verify command runs; this module drives them at full scale and enforces
the runtime budgets."""

import json
import subprocess
import sys
import time

from qdelta import verify
from qdelta.oracle import potential_from_ss_pairs
from qdelta.scatter import DeltaPotential, amplitudes, denominator, sweep
from qdelta.singular import ss_closed_form

TRIALS = 10_000
SEED = 42


def _report(n, name, result):
    status = "PASS" if result else "FAIL"
    print(f"criterion {n:02d} [{name}]: {status}")
    return result


def test_c01_reference_constants_from_rederived_pair():
    start = time.perf_counter()
    v1, v2 = potential_from_ss_pairs(*verify.REFERENCE_PAIRS)
    assert abs(v1 - (-0.5)) <= 1e-12 and abs(v2 - 3.0) <= 1e-12
    plus, minus = ss_closed_form(v1, v2)
    assert abs(plus.g_squared - 15 / 4) <= 1e-12
    assert abs(minus.g_squared - 5.0) <= 1e-12
    assert abs(plus.energy - 2.0) <= 1e-12
    assert abs(minus.energy - 9 / 8) <= 1e-12
    for sol in (plus, minus):
        pot = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
        assert abs(denominator(pot, sol.beta)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    check = verify.check_reference_constants()
    assert _report(1, "reference constants", check.passed), check.detail


def test_c02_resonance_curves():
    start = time.perf_counter()
    e_min, e_max, steps = 0.05, 4.0, 4000
    h = (e_max - e_min) / (steps - 1)
    for g2, e_ss in ((15 / 4, 2.0), (5.0, 9 / 8)):
        pot = DeltaPotential.from_g_squared(-0.5, 3.0, g2)
        res = sweep(pot, e_min, e_max, steps)
        assert len(res.energy) == steps
        i_r = max(range(steps), key=lambda i: res.big_r[i])
        i_t = max(range(steps), key=lambda i: res.big_t[i])
        assert abs(res.energy[i_r] - e_ss) <= h + 1e-12
        assert abs(res.energy[i_t] - e_ss) <= h + 1e-12
        for probe in (e_ss - 1e-7, e_ss + 1e-7):
            res = amplitudes(pot, probe)
            assert res.big_r > 1e6 and res.big_t > 1e6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, "resonance curves", True)


def test_c03_algebraic_identity_suite():
    check = verify.check_algebraic_identities(verify.stream(SEED + 1), TRIALS)
    assert _report(3, "algebraic identities", check.passed), check.detail


def test_c04_unitarity_of_real_strength_family():
    check = verify.check_unitarity(verify.stream(SEED + 2), TRIALS)
    assert _report(4, "unitarity at v2=0", check.passed), check.detail


def test_c05_matching_oracle_equivalence():
    check = verify.check_matching_equivalence(verify.stream(SEED + 3), TRIALS,
                                              verify.mode_divergence_at_probe())
    assert _report(5, "matching equivalence", check.passed), check.detail
    assert verify.mode_divergence_at_probe() > 1e-12


def test_c06_double_root_boundary():
    check = verify.check_double_root_boundary(verify.stream(SEED + 4), 100)
    assert _report(6, "double-root boundary", check.passed), check.detail


def test_c07_lossy_quadrant_always_singular():
    check = verify.check_lossy_quadrant(verify.stream(SEED + 5), TRIALS)
    assert _report(7, "lossy quadrant", check.passed), check.detail


def test_c08_region_boundary_at_kappa():
    check = verify.check_region_boundary()
    assert _report(8, "region boundary", check.passed), check.detail


def test_c09_small_v1_limits():
    check = verify.check_small_v1_limits()
    assert _report(9, "small-v1 limits", check.passed), check.detail


def test_c10_no_singularity_on_v2_zero_axis():
    check = verify.check_no_ss_anti_hermitian(verify.stream(SEED + 6), 1000)
    assert _report(10, "no SS at v2=0", check.passed), check.detail


def test_c11_cli_contract(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "qdelta", *args],
                              capture_output=True, text=True)

    proc = run("ss", "--v1", "-0.5", "--v2", "3", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["g2_plus"] - 15 / 4) <= 1e-12
    assert abs(doc["g2_minus"] - 5.0) <= 1e-12
    assert abs(doc["E_plus"] - 2.0) <= 1e-12
    assert abs(doc["E_minus"] - 9 / 8) <= 1e-12
    assert doc["classification"] == "BothBranches"
    assert doc["oracle"]["plus"]["abs_denominator"] <= 1e-12
    assert doc["oracle"]["minus"]["abs_denominator"] <= 1e-12

    steps = 500
    out = tmp_path / "curve.csv"
    proc = run("sweep", "--v1", "-0.5", "--v2", "3", "--g2", "3.75",
               "--emin", "0.05", "--emax", "4", "--steps", str(steps),
               "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == steps + 1

    start = time.perf_counter()
    proc = run("verify", "--seed", str(SEED), "--trials", str(TRIALS))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 10.0, f"verify took {elapsed:.1f}s"
    _report(11, "cli contract", True)
