import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelta.scatter import DeltaPotential, denominator, dr_di
from qdelta.singular import (KAPPA, Branch, QuarticCoeffs, Reason, RegionClass,
                             RootNature, classify_region,
                             discriminant_expanded, discriminant_factored,
                             pq_classifiers, pq_simplified, quartic_coeffs,
                             root_nature, scan_region, ss_branches, ss_closed_form)

FIG_COEFFS = QuarticCoeffs(-7.0, 24.5, -46.0, 34.0)

strengths = st.floats(min_value=-10, max_value=10, allow_nan=False)
g_squares = st.floats(min_value=1e-6, max_value=100, allow_nan=False)


def test_kappa_is_the_band_edge():
    # kappa solves k^2 + 6k + 1 = 0, the vanishing square-root boundary
    assert abs(KAPPA ** 2 + 6 * KAPPA + 1) < 1e-14
    assert -1 < KAPPA < 0


def test_quartic_coeffs_examples():
    q = quartic_coeffs(DeltaPotential.from_g_squared(-0.5, 3.0, 3.75))
    assert q.b == -7.0 and q.c == 24.5
    assert q.d == pytest.approx(-46.0, abs=1e-12)
    assert q.e == pytest.approx(34.0, abs=1e-12)
    assert FIG_COEFFS.value_at(2.0) == 0.0

    exact = quartic_coeffs(DeltaPotential(1.0, 0.0, 1.0, 0.0))
    assert exact == QuarticCoeffs(2.0, 2.0, 4.0, 4.0)
    d = 2 + 3j
    assert exact.value_at(1.0) == 13.0 == d.real ** 2 + d.imag ** 2

    g_only = quartic_coeffs(DeltaPotential(0.0, 0.0, 3.0, 0.0))
    assert g_only == QuarticCoeffs(0.0, 0.0, 0.0, 81.0)


@given(strengths, strengths, g_squares)
def test_c_is_half_b_squared(v1, v2, g2):
    q = quartic_coeffs(DeltaPotential.from_g_squared(v1, v2, g2))
    assert q.c == q.b * q.b / 2.0


def test_discriminant_expanded_examples():
    assert discriminant_expanded(FIG_COEFFS) == 0.0
    assert discriminant_expanded(QuarticCoeffs(0, 0, 0, 2.0)) == 256 * 8.0
    assert discriminant_expanded(QuarticCoeffs(2.0, 2.0, 4.0, 4.0)) == 2304.0


def test_discriminant_factored_examples():
    a, b, delta = discriminant_factored(DeltaPotential(1.0, 0.0, 1.0, 0.0))
    assert (a, b, delta) == (4.0, 9.0, 2304.0)
    a, b, delta = discriminant_factored(DeltaPotential.from_g_squared(-0.5, 3.0, 3.75))
    assert abs(a) <= 1e-12 and abs(delta) <= 1e-10
    assert b == pytest.approx(10.5625, abs=1e-12)
    g2 = 4.0
    a, b, delta = discriminant_factored(DeltaPotential(0.0, 0.0, 2.0, 0.0))
    assert (a, b, delta) == (g2 ** 4, 4 * g2 ** 2, 256 * g2 ** 6)


def test_pq_examples():
    assert pq_classifiers(FIG_COEFFS) == (49.0, -575.0)
    assert pq_classifiers(QuarticCoeffs(0, 0, 0, 5.0)) == (0.0, 320.0)
    assert pq_classifiers(QuarticCoeffs(2.0, 2.0, 4.0, 4.0)) == (4.0, 144.0)
    p = DeltaPotential(1.0, 0.0, 1.0, 0.0)
    assert pq_simplified(p) == (4.0, 144.0)


@given(strengths, strengths, g_squares)
def test_pq_raw_matches_simplified(v1, v2, g2):
    p = DeltaPotential.from_g_squared(v1, v2, g2)
    coeffs = quartic_coeffs(p)
    p_raw, q_raw = pq_classifiers(coeffs)
    p_simple, q_simple = pq_simplified(p)
    b, c, d, e = coeffs.b, coeffs.c, coeffs.d, coeffs.e
    p_scale = max(1.0, 8 * abs(c), 3 * b * b)
    q_scale = max(1.0, 64 * abs(e), 16 * c * c, 16 * abs(b * d), 3 * b ** 4,
                  16 * b * b * abs(c))
    assert abs(p_raw - p_simple) <= 1e-10 * p_scale
    assert abs(q_raw - q_simple) <= 1e-10 * q_scale


def test_root_nature_examples():
    assert root_nature(FIG_COEFFS) is RootNature.BOUNDARY_DOUBLE_ROOT
    # (x-1)(x-2)(x-3)(x-4)
    assert root_nature(QuarticCoeffs(-10.0, 35.0, -50.0, 24.0)) is RootNature.ALL_FOUR_REAL
    assert pq_classifiers(QuarticCoeffs(-10.0, 35.0, -50.0, 24.0)) == (-20.0, -64.0)
    assert root_nature(QuarticCoeffs(2.0, 2.0, 4.0, 4.0)) is RootNature.NO_REAL
    # (x^2-1)(x^2-4): two pairs of distinct real roots has delta > 0, P < 0, Q < 0
    assert root_nature(QuarticCoeffs(0.0, -5.0, 0.0, 4.0)) is RootNature.ALL_FOUR_REAL
    # (x^2+1)(x^2-1): delta < 0
    assert root_nature(QuarticCoeffs(0.0, 0.0, 0.0, -1.0)) is RootNature.TWO_DISTINCT_REAL


def test_quartic_invariants_unitary_case():
    p = DeltaPotential(1.0, 0.0, 1.0, 0.0)
    coeffs = quartic_coeffs(p)
    a_factor, b_factor, _ = discriminant_factored(p)
    delta = discriminant_expanded(coeffs)
    assert coeffs == QuarticCoeffs(2.0, 2.0, 4.0, 4.0)
    assert delta == 2304.0
    assert delta == 64.0 * a_factor * b_factor
    assert pq_classifiers(coeffs) == (4.0, 144.0)
    assert root_nature(coeffs) is RootNature.NO_REAL


@given(strengths, strengths, g_squares)
def test_discriminant_identity_and_signs(v1, v2, g2):
    p = DeltaPotential.from_g_squared(v1, v2, g2)
    coeffs = quartic_coeffs(p)
    a_factor, b_factor, delta_fact = discriminant_factored(p)
    delta_exp = discriminant_expanded(coeffs)
    assert a_factor >= 0.0
    assert b_factor >= -1e-9 * max(1.0, 4 * p.g_squared ** 2,
                                   (v1 * v1 + v2 * v2) ** 2)
    scale = max(abs(delta_exp), abs(delta_fact),
                256 * abs(coeffs.e) ** 3, 27 * coeffs.d ** 4)
    assert abs(delta_exp - delta_fact) <= max(1e-8, 1e-6 * scale)


def test_ss_closed_form_reference_pair():
    plus, minus = ss_closed_form(-0.5, 3.0)
    assert plus.branch is Branch.PLUS and minus.branch is Branch.MINUS
    assert plus.feasible and minus.feasible
    assert (plus.g_squared, plus.beta, plus.energy) == (3.75, 2.0, 2.0)
    assert (minus.g_squared, minus.beta, minus.energy) == (5.0, 1.5, 1.125)
    assert plus.reason is Reason.OK and minus.reason is Reason.OK


def test_ss_closed_form_positive_real_part():
    # potential real part -v2 = +1 > 0 still supports a singularity
    plus, minus = ss_closed_form(-1.0, -1.0)
    assert plus.feasible
    assert plus.g_squared == 2 * math.sqrt(2.0)
    assert plus.beta == math.sqrt(2.0)
    assert plus.energy == pytest.approx(1.0, rel=1e-15)
    assert not minus.feasible and minus.reason is Reason.NEGATIVE_G_SQUARED
    assert minus.g_squared == -2 * math.sqrt(2.0)


def test_ss_closed_form_infeasible_pair():
    plus, minus = ss_closed_form(1.0, 3.0)
    assert not plus.feasible and plus.reason is Reason.NEGATIVE_G_SQUARED
    assert plus.g_squared == pytest.approx(-6.583005244258363, rel=1e-12)
    assert not minus.feasible and minus.reason is Reason.NON_POSITIVE_BETA
    assert minus.beta == pytest.approx(-1.6457513110645907, rel=1e-12)


def test_ss_closed_form_degenerate_sum():
    for sol in ss_closed_form(-1.0, 1.0):
        assert not sol.feasible
        assert sol.reason is Reason.DEGENERATE_SUM
        assert math.isnan(sol.g_squared)


def test_ss_closed_form_complex_sqrt():
    for sol in ss_closed_form(KAPPA * 3 - 1e-3, 3.0):
        assert not sol.feasible
        assert sol.reason is Reason.COMPLEX_SQRT


def test_ss_branches_reason_is_the_first_failed_check():
    # On this grid every reason occurs, and on the minus branch hundreds of
    # cells fail both the g^2 and the beta check.
    v1, v2 = np.meshgrid(np.linspace(-4.0, 4.0, 41), np.linspace(-4.0, 4.0, 41), indexing="ij")
    scale = np.maximum(1.0, np.maximum(np.abs(v1), np.abs(v2)))
    degenerate = np.abs(v1 + v2) <= 1e-12 * scale
    complex_sqrt = (v1 + v2) ** 2 + 4.0 * v1 * v2 < 0.0
    for sol in ss_branches(v1, v2):
        with np.errstate(invalid="ignore"):
            checks = [degenerate, complex_sqrt, sol.g_squared <= 1e-12 * scale * scale,
                      sol.beta <= 1e-12 * scale]
        want = np.select(checks, ["DegenerateSum", "ComplexSqrt", "NegativeGSquared",
                                  "NonPositiveBeta"], "OK")
        assert [r.value for r in sol.reason.flat] == want.ravel().tolist()
        assert (sol.feasible == (want == "OK")).all()
    assert (checks[2] & checks[3]).sum() > 100


def test_classify_region_examples():
    assert classify_region(-0.5, 3.0) is RegionClass.BOTH_BRANCHES
    assert classify_region(-1.0, -1.0) is RegionClass.PLUS_ONLY
    assert classify_region(-20.0, 3.0) is RegionClass.NONE
    plus, minus = ss_closed_form(-20.0, 3.0)
    assert plus.g_squared == -136.0 and minus.g_squared == -255.0


@given(st.floats(min_value=-10, max_value=-1e-3, allow_nan=False),
       st.floats(min_value=-10, max_value=-1e-3, allow_nan=False))
def test_lossy_quadrant_always_supports_ss(v1, v2):
    plus, _ = ss_closed_form(v1, v2)
    assert plus.feasible
    assert classify_region(v1, v2) in (RegionClass.PLUS_ONLY,
                                       RegionClass.BOTH_BRANCHES)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False).filter(
    lambda x: abs(x) > 1e-6))
def test_no_ss_on_v2_zero_axis(v1):
    assert classify_region(v1, 0.0) is RegionClass.NONE


@given(st.floats(min_value=-10, max_value=-1e-3, allow_nan=False),
       st.floats(min_value=-10, max_value=-1e-3, allow_nan=False))
def test_feasible_branch_kills_both_denominator_parts(v1, v2):
    for sol in ss_closed_form(v1, v2):
        if not sol.feasible:
            continue
        p = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
        d_r, d_i = dr_di(p, sol.beta)
        scale = max(1.0, sol.beta ** 2, sol.g_squared, v1 * v1, v2 * v2)
        assert abs(d_r) <= 1e-10 * scale
        assert abs(d_i) <= 1e-10 * scale
        assert abs(denominator(p, sol.beta)) <= 1e-10 * scale


@given(st.floats(min_value=-10, max_value=-1e-3, allow_nan=False),
       st.floats(min_value=-10, max_value=-1e-3, allow_nan=False))
def test_feasible_branch_zeroes_a_factor(v1, v2):
    plus, _ = ss_closed_form(v1, v2)
    p = DeltaPotential.from_g_squared(v1, v2, plus.g_squared)
    a_factor, _, _ = discriminant_factored(p)
    assert abs(a_factor) <= 1e-8 * max(1.0, plus.g_squared ** 2)


@given(strengths, strengths)
def test_branch_betas_are_quadratic_roots(v1, v2):
    """The branch beta from the g-substituted form must match the quadratic
    formula applied to the real-part condition."""
    s = v1 + v2
    disc = s * s + 4 * v1 * v2
    if abs(s) <= 1e-9 * max(1.0, abs(v1), abs(v2)) or disc < 1e-9:
        return
    root = math.sqrt(disc)
    plus, minus = ss_closed_form(v1, v2)
    for sol, sign in ((plus, 1.0), (minus, -1.0)):
        expected = 0.5 * (-(v1 - v2) + sign * root)
        assert abs(sol.beta - expected) <= 1e-10 * max(1.0, abs(expected))


def _rows(scan):
    """Cells of a scan in row-major order, with None for infeasible energies."""
    def energy(sol, i, j):
        return float(sol.energy[i, j]) if sol.feasible[i, j] else None
    return [SimpleNamespace(v1=v1, v2=v2, classification=scan.classification[i, j],
                            e_plus=energy(scan.plus, i, j), e_minus=energy(scan.minus, i, j))
            for i, v1 in enumerate(scan.v1.tolist())
            for j, v2 in enumerate(scan.v2.tolist())]


def test_scan_region_grid_contract():
    rows = _rows(scan_region((-1.0, -0.01), (-1.0, -0.01), 10, 10))
    assert len(rows) == 100
    assert all(r.classification is not RegionClass.NONE for r in rows)
    assert all(r.classification in (RegionClass.PLUS_ONLY, RegionClass.BOTH_BRANCHES)
               for r in rows)
    # row-major, v1 outermost
    assert rows[0].v1 == -1.0 and rows[0].v2 == -1.0
    assert rows[1].v1 == -1.0 and rows[1].v2 != -1.0
    assert rows[-1].v1 == -0.01 and rows[-1].v2 == -0.01
    # feasible energies recorded, infeasible empty
    for r in rows:
        assert (r.e_plus is not None)
        assert (r.e_minus is not None) == (r.classification is RegionClass.BOTH_BRANCHES)


def test_scan_region_positive_quadrant_empty():
    rows = _rows(scan_region((0.1, 1.0), (0.1, 1.0), 5, 5))
    assert all(r.classification is RegionClass.NONE for r in rows)
    assert all(r.e_plus is None and r.e_minus is None for r in rows)


def test_scan_region_rejects_bad_grid():
    with pytest.raises(ValueError):
        scan_region((-1.0, -0.1), (-1.0, -0.1), 1, 10)
    with pytest.raises(ValueError):
        scan_region((-1.0, -0.1), (-1.0, -0.1), 10, 1)
    with pytest.raises(ValueError):
        scan_region((-0.1, -1.0), (-1.0, -0.1), 10, 10)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("grid", [
    # lossy quadrant, and DegenerateSum cells on the anti-diagonal
    ((-4.0, 4.0), (-4.0, 4.0), 41, 41),
    # the v2 > 0 band edge v1 = kappa v2 at the cell (3 kappa, 3)
    ((3 * KAPPA - 2.0, 3 * KAPPA), (-3.0, 3.0), 21, 31),
])
def test_scan_region_matches_scalar_loop(grid):
    scan = scan_region(*grid)
    for i, v1 in enumerate(scan.v1.tolist()):
        for j, v2 in enumerate(scan.v2.tolist()):
            assert scan.classification[i, j] is classify_region(v1, v2)
            for sol, cols in zip(ss_closed_form(v1, v2), (scan.plus, scan.minus)):
                assert cols.branch is sol.branch
                assert cols.reason[i, j] is sol.reason
                assert bool(cols.feasible[i, j]) is sol.feasible
                for got, want in ((cols.g_squared, sol.g_squared),
                                  (cols.beta, sol.beta), (cols.energy, sol.energy)):
                    assert _same(float(got[i, j]), want)


def test_scan_region_equivalence_grids_hold_the_edge_cases():
    diagonal = scan_region((-4.0, 4.0), (-4.0, 4.0), 41, 41)
    assert sum(r is Reason.DEGENERATE_SUM for r in diagonal.plus.reason.flat) >= 39
    assert any(c is RegionClass.PLUS_ONLY for c in diagonal.classification.flat)
    edge = scan_region((3 * KAPPA - 2.0, 3 * KAPPA), (-3.0, 3.0), 21, 31)
    assert (edge.v1[-1], edge.v2[-1]) == (3 * KAPPA, 3.0)
    assert any(r is Reason.COMPLEX_SQRT for r in edge.plus.reason.flat)


def test_boundary_double_root_seeded_ensemble():
    rng = random.Random(20240810)
    for _ in range(200):
        v1 = -10.0 * (1.0 - rng.random())
        v2 = -10.0 * (1.0 - rng.random())
        plus, _ = ss_closed_form(v1, v2)
        assert plus.feasible
        p = DeltaPotential.from_g_squared(v1, v2, plus.g_squared)
        assert root_nature(quartic_coeffs(p)) is RootNature.BOUNDARY_DOUBLE_ROOT
