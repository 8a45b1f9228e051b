import json
import math
import random
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelta import cli, oracle, qalg, scatter, singular
from qdelta.scatter import DeltaPotential, denominator, dr_di
from qdelta.singular import (BOUNDARY_DELTA_RTOL, KAPPA, Branch, QuarticCoeffs, Reason,
                             RegionClass, RootNature, _discriminant_terms, classify_region,
                             discriminant_bounded, discriminant_expanded, discriminant_factored,
                             pq_classifiers, pq_simplified, quartic_coeffs, region_of,
                             root_nature, scan_region, ss_branches, ss_closed_form,
                             unit_scale, unit_scale_underflows)

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
    # (x-0.1)(x-0.2)(x-0.3)(x-0.4): delta = 1.44e-10 is far above the rounding
    # of its largest monomial, so no absolute floor may call it a boundary.
    assert root_nature(QuarticCoeffs(-1.0, 0.35, -0.05, 0.0024)) is RootNature.ALL_FOUR_REAL


EXAMPLE_QUARTICS = (FIG_COEFFS, QuarticCoeffs(-10.0, 35.0, -50.0, 24.0),
                    QuarticCoeffs(2.0, 2.0, 4.0, 4.0), QuarticCoeffs(0.0, -5.0, 0.0, 4.0),
                    QuarticCoeffs(0.0, 0.0, 0.0, -1.0))


@pytest.mark.parametrize("k", range(-20, 21))
def test_root_nature_ignores_power_of_two_scaling(k):
    # beta -> 2^k beta scales every discriminant monomial by 2^(12k) exactly.
    for q in EXAMPLE_QUARTICS:
        scaled = QuarticCoeffs(math.ldexp(q.b, k), math.ldexp(q.c, 2 * k),
                               math.ldexp(q.d, 3 * k), math.ldexp(q.e, 4 * k))
        assert root_nature(scaled) is root_nature(q)


def _drawn_branch_potentials(n):
    """The n potentials of both branches of n / 2 drawn pairs on [-10, 10]^2,
    with a drawn g^2 in (0, 100] where a branch is infeasible."""
    rng = np.random.default_rng(2048)
    v1, v2 = rng.uniform(-10.0, 10.0, (2, n // 2))
    g2 = [np.where(sol.feasible, sol.g_squared, 100.0 * (1.0 - rng.random(n // 2)))
          for sol in ss_branches(v1, v2)]
    return DeltaPotential(np.tile(v1, 2), np.tile(v2, 2), np.sqrt(np.concatenate(g2)), 0.0)


def _drawn_branch_quartics(n):
    """The quartics of _drawn_branch_potentials(n)."""
    return quartic_coeffs(_drawn_branch_potentials(n))


def _quartic_rows(q):
    return [QuarticCoeffs(*row) for row in zip(q.b.tolist(), q.c.tolist(), q.d.tolist(),
                                               q.e.tolist())]


def _root_nature_reference(q):
    """The verdicts as a chain of tests on one quartic of floats."""
    terms = _discriminant_terms(q)
    delta = math.fsum(terms)
    if abs(delta) <= BOUNDARY_DELTA_RTOL * max(abs(t) for t in terms):
        return RootNature.BOUNDARY_DOUBLE_ROOT
    if delta < 0.0:
        return RootNature.TWO_DISTINCT_REAL
    p_val, q_val = pq_classifiers(q)
    return RootNature.ALL_FOUR_REAL if p_val < 0.0 and q_val < 0.0 else RootNature.NO_REAL


def _drawn_quartics(n):
    """n quartics with coefficients uniform in [-20, 20]: every verdict but
    the boundary, which the branch quartics give."""
    return QuarticCoeffs(*np.random.default_rng(4096).uniform(-20.0, 20.0, (4, n)))


@pytest.mark.parametrize("quartics, verdicts", [
    (_drawn_branch_quartics, {RootNature.BOUNDARY_DOUBLE_ROOT, RootNature.NO_REAL}),
    (_drawn_quartics, {RootNature.TWO_DISTINCT_REAL, RootNature.ALL_FOUR_REAL,
                       RootNature.NO_REAL}),
])
def test_root_nature_arrays_equal_rows(quartics, verdicts):
    q = quartics(2048)
    labels = root_nature(q)
    assert labels.dtype == object and labels.shape == (2048,)
    rows = _quartic_rows(q)
    assert labels.tolist() == [root_nature(row) for row in rows]
    assert labels.tolist() == [_root_nature_reference(row) for row in rows]
    assert set(labels.tolist()) == verdicts


def test_discriminant_expanded_arrays_equal_rows():
    q = _drawn_branch_quartics(2048)
    got = discriminant_expanded(q)
    assert [x.hex() for x in got.tolist()] == \
        [math.fsum(_discriminant_terms(row)).hex() for row in _quartic_rows(q)]
    assert discriminant_expanded(FIG_COEFFS) == math.fsum(_discriminant_terms(FIG_COEFFS))


def _potential_rows(p):
    return [DeltaPotential(*row) for row in zip(*(np.broadcast_to(x, p.v1.shape).tolist()
                                                  for x in (p.v1, p.v2, p.cap_v2, p.cap_v3)))]


def _hexes(values):
    """Each entry of each value, as float.hex, one tuple per entry."""
    return list(zip(*([x.hex() for x in np.asarray(v).tolist()] for v in values)))


@pytest.mark.parametrize("form, draws, rows", [
    (discriminant_bounded, _drawn_branch_quartics, _quartic_rows),
    (discriminant_bounded, _drawn_quartics, _quartic_rows),
    (pq_classifiers, _drawn_branch_quartics, _quartic_rows),
    (pq_classifiers, _drawn_quartics, _quartic_rows),
    (discriminant_factored, _drawn_branch_potentials, _potential_rows),
    (pq_simplified, _drawn_branch_potentials, _potential_rows),
], ids=lambda x: getattr(x, "__name__", None))
def test_quartic_forms_on_arrays_equal_rows(form, draws, rows):
    # QuarticCoeffs promises each entry the bits of the call on its row's floats.
    drawn = draws(2048)
    assert _hexes(form(drawn)) == [tuple(x.hex() for x in form(row)) for row in rows(drawn)]


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
    # On this grid every reason occurs, g^2 = 0 on the axes v1 = 0 and v2 = 0,
    # and on the minus branch hundreds of cells fail both the g^2 and the
    # beta check.
    v1, v2 = np.meshgrid(np.linspace(-4.0, 4.0, 41), np.linspace(-4.0, 4.0, 41), indexing="ij")
    degenerate = v1 + v2 == 0.0
    complex_sqrt = (v1 + v2) ** 2 + 4.0 * v1 * v2 < 0.0
    zero = 0
    for sol in ss_branches(v1, v2):
        with np.errstate(invalid="ignore"):
            checks = [degenerate, complex_sqrt, sol.g_squared == 0.0, sol.g_squared < 0.0,
                      sol.beta <= 0.0]
        want = np.select(checks, ["DegenerateSum", "ComplexSqrt", "ZeroGSquared",
                                  "NegativeGSquared", "NonPositiveBeta"], "OK")
        assert [r.value for r in sol.reason.flat] == want.ravel().tolist()
        assert (sol.feasible == (want == "OK")).all()
        assert (sol.code == 0).tolist() == sol.feasible.tolist()
        zero += np.count_nonzero(want == "ZeroGSquared")
    assert (checks[3] & checks[4]).sum() > 100
    assert zero == np.count_nonzero(((v1 == 0.0) | (v2 == 0.0)) & ~degenerate)


@pytest.mark.parametrize("v1, v2, reasons", [
    (-1.0, 0.0, (Reason.ZERO_G_SQUARED, Reason.NEGATIVE_G_SQUARED)),
    (0.0, 2.0, (Reason.ZERO_G_SQUARED, Reason.NON_POSITIVE_BETA)),
    (-0.0, -1.0, (Reason.NON_POSITIVE_BETA, Reason.ZERO_G_SQUARED)),
    (0.0, 0.0, (Reason.DEGENERATE_SUM, Reason.DEGENERATE_SUM)),
])
def test_a_zero_strength_reports_a_zero_g_squared(v1, v2, reasons):
    # One h of h^2 - a h - 2 v1 v2 is 0, so its branch has g^2 = -s h = 0:
    # neither negative nor feasible.
    branches = ss_closed_form(v1, v2)
    assert tuple(sol.reason for sol in branches) == reasons
    for sol in branches:
        assert not sol.feasible
        assert (sol.g_squared == 0.0) == (sol.reason is Reason.ZERO_G_SQUARED)


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


@given(strengths)
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


def test_small_strengths_keep_their_regions():
    assert classify_region(-0.7e-6, -0.4e-6) is RegionClass.PLUS_ONLY
    assert classify_region(-0.5e-7, 3e-7) is RegionClass.BOTH_BRANCHES


# Strengths whose multiples 2^k v, |k| <= 400, are all exact: zero or normal.
scalable = strengths.filter(lambda x: x == 0.0 or abs(x) >= 1e-150)


def _normal(x):
    return math.isfinite(x) and abs(x) >= np.finfo(float).tiny


@given(scalable, scalable, st.integers(min_value=-400, max_value=400))
def test_branches_scale_exactly_with_the_strengths(v1, v2, k):
    # The model is homogeneous: v -> 2^k v takes g^2 -> 4^k g^2, beta -> 2^k beta
    # and E -> 4^k E, and leaves every verdict as it is.
    scaled = ss_closed_form(math.ldexp(v1, k), math.ldexp(v2, k))
    for sol, got in zip(ss_closed_form(v1, v2), scaled):
        assert got.reason is sol.reason
        for value, base, power in ((got.g_squared, sol.g_squared, 2), (got.beta, sol.beta, 1),
                                   (got.energy, sol.energy, 2)):
            with np.errstate(over="ignore", under="ignore"):
                want = float(np.ldexp(base, power * k))
            if math.isnan(base):
                assert math.isnan(value)
            elif _normal(base) and _normal(want):
                assert value == want


def test_every_lossy_pair_has_a_feasible_plus_branch_at_any_scale():
    # A spectral singularity is a real zero of D, a definition with no scale.
    rng = np.random.default_rng(150)
    v1, v2 = -np.power(10.0, rng.uniform(-150.0, 150.0, (2, 100_000)))
    plus, _ = ss_branches(v1, v2)
    assert plus.feasible.all()


def _exact_branches(v1, v2):
    """(g^2, beta, E) of the plus and the minus branch, from the exact values
    of the float strengths, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        d1, d2 = Decimal(v1), Decimal(v2)
        a, s = d1 - d2, d1 + d2
        root = (s * s + 4 * d1 * d2).sqrt()
        h_plus, h_minus = (a + root) / 2, (a - root) / 2
        return [(-s * h, -h_other, h_other * h_other / 2)
                for h, h_other in ((h_plus, h_minus), (h_minus, h_plus))]


def _ulps(got, exact):
    return abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact)))


def test_branches_are_within_a_few_ulps_of_the_exact_values():
    # Lossy pairs with |v| log-uniform, so |v1 v2| << max(v1^2, v2^2) on many,
    # and v2 > 0 band pairs up to halfway to the band edge, where the
    # discriminant s^2 + 4 v1 v2 does not cancel.
    rng = np.random.default_rng(60)
    lossy = -np.power(10.0, rng.uniform(-8.0, 1.0, (2, 1000)))
    v2 = np.power(10.0, rng.uniform(-8.0, 1.0, 1000))
    u = np.concatenate([rng.uniform(0.0, 0.5, 500), np.power(10.0, rng.uniform(-8.0, -0.3, 500))])
    v1, v2 = np.concatenate([lossy[0], KAPPA * v2 * u]), np.concatenate([lossy[1], v2])
    sols = ss_branches(v1, v2)
    for n, pair in enumerate(zip(v1.tolist(), v2.tolist())):
        for sol, (g2, beta, energy) in zip(sols, _exact_branches(*pair)):
            assert _ulps(sol.g_squared[n].item(), g2) <= 4, pair
            assert _ulps(sol.beta[n].item(), beta) <= 4, pair
            assert _ulps(sol.energy[n].item(), energy) <= 8, pair


def _rows(scan):
    """Cells of a scan in row-major order, with None for infeasible energies."""
    def energy(sol, i, j):
        return float(sol.energy[i, j]) if sol.feasible[i, j] else None
    labels = region_of(scan.plus.feasible, scan.minus.feasible)
    return [SimpleNamespace(v1=v1, v2=v2, classification=labels[i, j],
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
    labels = region_of(scan.plus.feasible, scan.minus.feasible)
    for i, v1 in enumerate(scan.v1.tolist()):
        for j, v2 in enumerate(scan.v2.tolist()):
            assert labels[i, j] is classify_region(v1, v2)
            for sol, cols in zip(ss_closed_form(v1, v2), (scan.plus, scan.minus)):
                assert cols.branch is sol.branch
                assert cols.reason[i, j] is sol.reason
                assert bool(cols.feasible[i, j]) is sol.feasible
                for got, want in ((cols.g_squared, sol.g_squared),
                                  (cols.beta, sol.beta), (cols.energy, sol.energy)):
                    assert _same(float(got[i, j]), want)


def test_scan_region_equivalence_grids_hold_the_edge_cases():
    diagonal = scan_region((-4.0, 4.0), (-4.0, 4.0), 41, 41)
    # Of the 41 nodes on the anti-diagonal, 25 have v1 + v2 == 0 exactly.
    degenerate = [r is Reason.DEGENERATE_SUM for r in diagonal.plus.reason.flat]
    assert degenerate == (diagonal.v1[:, None] + diagonal.v2 == 0.0).ravel().tolist()
    assert sum(degenerate) == 25
    labels = region_of(diagonal.plus.feasible, diagonal.minus.feasible)
    assert any(c is RegionClass.PLUS_ONLY for c in labels.flat)
    edge = scan_region((3 * KAPPA - 2.0, 3 * KAPPA), (-3.0, 3.0), 21, 31)
    assert (edge.v1[-1], edge.v2[-1]) == (3 * KAPPA, 3.0)
    assert any(r is Reason.COMPLEX_SQRT for r in edge.plus.reason.flat)


def _trap_pairs():
    """Pairs on which Python float arithmetic and numpy part ways unless the
    float path takes care: drawn unit-scale, lossy and band-edge pairs; zero,
    equal, opposite and ComplexSqrt pairs; subnormal pairs and pairs that
    unit_scale_underflows flags; log-uniform pairs within 1e+-300; and pairs
    whose g^2 or E overflows when scaled back."""
    rng = random.Random(35)
    unit = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(200)]
    lossy = [(-10.0 * (1.0 - rng.random()), -10.0 * (1.0 - rng.random())) for _ in range(200)]
    band = []
    for _ in range(50):
        v2 = rng.uniform(0.1, 10.0)
        for v1 in (KAPPA * v2, v2 / KAPPA):   # the two roots of s^2 + 4 v1 v2 = 0
            for step in range(-3, 4):
                band.append((v1 + step * math.ulp(v1), v2))
    fixed = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, -1.0), (-0.0, -1.0),
             (-1.0, 0.0), (2.0, 2.0), (-3.5, -3.5), (2.0, -2.0), (-0.5, 0.5), (1.0, -3.0),
             (-1.0, 3.0), (-0.5, 3.0), (math.inf, 1.0), (1.0, -math.inf), (math.nan, 2.0),
             (2.0, -math.nan)]
    tiny = [(5e-324, 5e-324), (-5e-324, -1e-321), (1e-310, -3e-315), (-2e-308, 1e-320),
            (5e-324, 1.0), (1.0, -1e-310), (1e-300, 1e300), (-1e-200, -1e200)]
    far = [(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0),
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)) for _ in range(300)]
    huge = [(-1e200, -2e200), (-1e160, -2e160), (1e155, -1.0000000001e155),
            (-1.7976931348623157e308, -1.7976931348623157e308), (1.5e308, -1.7e308)]
    return unit + lossy + band + fixed + tiny + far + huge


def _bits(x):
    return np.float64(x).tobytes()


def test_float_path_has_the_bits_of_the_array_path():
    # A pair of Python floats runs ss_branches, unit_scale and
    # unit_scale_underflows in Python float arithmetic and math; 0-d arrays
    # run the same body in numpy, which warns of the infinite inputs.
    pairs = _trap_pairs()
    seen = set()
    for v1, v2 in pairs:
        arrays = np.array(v1), np.array(v2)
        with np.errstate(invalid="ignore"):
            want_branches = ss_branches(*arrays)
        for got, want in zip(ss_branches(v1, v2), want_branches):
            fields = (got.g_squared, got.beta, got.energy, got.feasible, got.code)
            assert [type(x) for x in fields] == [float, float, float, bool, int], (v1, v2)
            assert want.code.dtype == np.uint8
            assert got.branch is want.branch
            assert [_bits(x) for x in fields[:3]] == [
                _bits(x) for x in (want.g_squared, want.beta, want.energy)], (v1, v2)
            assert (got.feasible, got.code) == (bool(want.feasible), int(want.code)), (v1, v2)
            assert got.reason is want.reason
            seen.add(got.reason)
            seen.update(name for name, x in (("g2 inf", got.g_squared), ("E inf", got.energy))
                        if x == math.inf)
        k, s1, s2 = unit_scale(v1, v2)
        k_want, s1_want, s2_want = unit_scale(*arrays)
        assert (type(k), type(s1), type(s2)) == (int, float, float)
        assert (k, _bits(s1), _bits(s2)) == (int(k_want), _bits(s1_want), _bits(s2_want))
        lost = unit_scale_underflows(v1, v2)
        assert type(lost) is bool and lost == bool(unit_scale_underflows(*arrays)), (v1, v2)
        seen.add("lost" if lost else "kept")
    assert seen == {*Reason, "g2 inf", "E inf", "lost", "kept"}
    # And one array of all the pairs gives each pair's bits as well.
    v1, v2 = np.array(pairs).T
    with np.errstate(invalid="ignore"):
        columns = ss_branches(v1, v2)
    for column, branch in zip(columns, zip(*(ss_branches(*p) for p in pairs))):
        assert column.code.dtype == np.uint8
        assert column.code.tolist() == [sol.code for sol in branch]
        for name in ("g_squared", "beta", "energy"):
            assert [_bits(x) for x in getattr(column, name)] == [
                _bits(getattr(sol, name)) for sol in branch]


class _AttributeRecorder:
    """Stands in for a module and records the name of each attribute read."""

    def __init__(self, module):
        self.module, self.names = module, []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(self.module, name)


def test_float_pairs_make_no_numpy_call(monkeypatch):
    # The ss command, its branches, gate, certificates and JSON, reads no numpy
    # attribute, so it runs without executing numpy.
    recorder = _AttributeRecorder(np)
    for module in (singular, scatter, qalg, oracle, cli):
        monkeypatch.setattr(module, "np", recorder)
    plus, minus = ss_closed_form(-1.0, -2.0)
    scaled, lost = unit_scale(-1.0, -2.0), unit_scale_underflows(-1.0, -2.0)
    report = cli.ss_report(-0.5, 3.0)   # both branches feasible
    text = cli._ss_json(report)
    assert recorder.names == []
    assert (plus.reason, minus.reason) == (Reason.OK, Reason.NEGATIVE_G_SQUARED)
    assert (scaled, lost) == ((2, -0.25, -0.5), False)
    assert report["classification"] == "BothBranches" and json.loads(text) == report
    assert None not in report["oracle"].values()
    ss_branches(np.array([-1.0]), np.array([-2.0]))
    assert {"frexp", "maximum", "ldexp", "sqrt", "where", "copysign", "errstate",
            "uint8"} <= set(recorder.names)


def test_boundary_double_root_seeded_ensemble():
    rng = random.Random(20240810)
    for _ in range(200):
        v1 = -10.0 * (1.0 - rng.random())
        v2 = -10.0 * (1.0 - rng.random())
        plus, _ = ss_closed_form(v1, v2)
        assert plus.feasible
        p = DeltaPotential.from_g_squared(v1, v2, plus.g_squared)
        assert root_nature(quartic_coeffs(p)) is RootNature.BOUNDARY_DOUBLE_ROOT


def test_boundary_double_root_on_log_uniform_lossy_pairs():
    # |v| from 1e-8 to 10: where the double root is small next to the other
    # roots, e must not cancel, or the boundary verdict is missed.
    rng = np.random.default_rng(20191)
    v1, v2 = -np.power(10.0, rng.uniform(-8.0, 1.0, (2, 20000)))
    plus, _ = ss_branches(v1, v2)
    ok = plus.feasible
    assert ok.sum() > 18000
    q = quartic_coeffs(DeltaPotential(v1[ok], v2[ok], np.sqrt(plus.g_squared[ok]), 0.0))
    labels = root_nature(q)
    assert all(label is RootNature.BOUNDARY_DOUBLE_ROOT for label in labels)
