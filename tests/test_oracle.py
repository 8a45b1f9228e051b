import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelta import verify
from qdelta.oracle import (MatchMode, NumericalError, _cramer, _reconstructs,
                           certify_double_root, matching_solver, minimize_dsq,
                           potential_from_ss_pairs, quartic_roots)
from qdelta.qalg import Quaternion, as_complex, symplectic_split
from qdelta.scatter import TOL_SINGULAR, DeltaPotential, amplitudes, denominator
from qdelta.singular import (KAPPA, QuarticCoeffs, quartic_coeffs, ss_branches, ss_closed_form,
                             unit_scale)

coeff = st.floats(min_value=-50, max_value=50, allow_nan=False)


def _sorted(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _one_quartic(q):
    """The roots of one quartic, as a list; raises NumericalError if they
    fail to reconstruct it."""
    found = quartic_roots(q)
    found.require(0)
    return found.roots[0].tolist()


def test_roots_double_plus_complex_pair():
    roots = _one_quartic(QuarticCoeffs(-7.0, 24.5, -46.0, 34.0))
    reals = [z for z in roots if z.imag == 0.0]
    assert len(reals) == 2
    assert all(abs(z.real - 2.0) <= 1e-7 for z in reals)
    pair = _sorted(z for z in roots if z.imag != 0.0)
    assert abs(pair[0] - (1.5 - 2.5j)) <= 1e-9
    assert abs(pair[1] - (1.5 + 2.5j)) <= 1e-9
    assert pair[0] == pair[1].conjugate()


def test_roots_four_distinct_real():
    roots = _one_quartic(QuarticCoeffs(-10.0, 35.0, -50.0, 24.0))
    assert all(z.imag == 0.0 for z in roots)
    for got, want in zip(roots, (1.0, 2.0, 3.0, 4.0)):
        assert abs(got.real - want) <= 1e-9


def test_roots_all_zero():
    roots = _one_quartic(QuarticCoeffs(0.0, 0.0, 0.0, 0.0))
    assert all(abs(z) <= 1e-6 for z in roots)


def test_roots_reject_non_finite():
    with pytest.raises(ValueError):
        quartic_roots(QuarticCoeffs(math.nan, 0.0, 0.0, 0.0))


@given(coeff, coeff, coeff, coeff)
def test_roots_reconstruct_coefficients(b, c, d, e):
    r1, r2, r3, r4 = _one_quartic(QuarticCoeffs(b, c, d, e))
    got_b = -(r1 + r2 + r3 + r4)
    got_c = r1 * r2 + r1 * r3 + r1 * r4 + r2 * r3 + r2 * r4 + r3 * r4
    got_d = -(r1 * r2 * r3 + r1 * r2 * r4 + r1 * r3 * r4 + r2 * r3 * r4)
    got_e = r1 * r2 * r3 * r4
    scale = max(1.0, abs(b), abs(c), abs(d), abs(e))
    for got, want in ((got_b, b), (got_c, c), (got_d, d), (got_e, e)):
        assert abs(got - want) <= 1e-8 * scale


@given(coeff, coeff, coeff, coeff)
def test_roots_probe_reconstruction(b, c, d, e):
    q = QuarticCoeffs(b, c, d, e)
    roots = _one_quartic(q)
    rng = random.Random(4321)
    bound = 1.0 + max(abs(b), abs(c), abs(d), abs(e))
    for _ in range(10):
        x = rng.uniform(-bound, bound)
        prod = 1.0 + 0.0j
        for z in roots:
            prod *= (x - z)
        want = q.value_at(x)
        assert abs(prod - want) <= 1e-8 * max(1.0, abs(want), x ** 4, abs(e))


@given(coeff, coeff, coeff, coeff)
def test_roots_conjugate_closed(b, c, d, e):
    roots = _one_quartic(QuarticCoeffs(b, c, d, e))
    assert _sorted(z.conjugate() for z in roots) == _sorted(roots)


def test_branch_betas_appear_as_double_roots():
    rng = random.Random(1234)
    pairs = []
    for _ in range(50):
        v2 = 0.1 + 9.9 * rng.random()
        pairs.append((KAPPA * v2 * (0.05 + 0.9 * rng.random()), v2))
    # Minus branch with a double root at beta ~ 1.5246 whose two eigenvalues
    # split along the real axis, each about 5e-8 beta from it.
    pairs.append((-0.590572670391422, 4.1463089405197096))
    for v1, v2 in pairs:
        for sol in ss_closed_form(v1, v2):
            if not sol.feasible:
                continue
            p = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
            roots = _one_quartic(quartic_coeffs(p))
            hits = [z for z in roots if abs(z - sol.beta) <= 1e-6 * sol.beta]
            assert len(hits) == 2, (v1, v2, sol)


def _exact_shifted_quartic(v1, v2, sol):
    """The coefficients c0..c3 of |D(beta + w)|^2, exact in fractions, for the
    unit-scaled floats the certificate takes: v, g^2 and beta scaled by 2^-k."""
    k, v1, v2 = unit_scale(v1, v2)
    v1, v2 = Fraction(v1), Fraction(v2)
    beta, g2 = Fraction(math.ldexp(sol.beta, -k)), Fraction(math.ldexp(sol.g_squared, -2 * k))
    a, s = v1 - v2, v1 + v2
    dr0, dr1 = beta * beta + a * beta - 2 * v1 * v2, 2 * beta + a
    di0 = s * beta + g2 + a * s
    return k, (dr0 * dr0 + di0 * di0, 2 * (dr0 * dr1 + di0 * s),
               dr1 * dr1 + s * s + 2 * dr0, 2 * dr1)


def _certificate_pairs():
    rng = random.Random(36)
    box = [(-10.0 * (1.0 - rng.random()), -10.0 * (1.0 - rng.random())) for _ in range(300)]
    band = [(KAPPA * v2 * (1.0 - rng.random()), v2)
            for v2 in (0.1 + 9.9 * (1.0 - rng.random()) for _ in range(300))]
    log_uniform = [(-(10.0 ** rng.uniform(-150.0, 150.0)),
                    rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0))
                   for _ in range(400)]
    return box, band, log_uniform


_NAMED_PAIRS = [(-0.5, 3.0), (-1e-8, -2e-8), (-1e10, -1e10), (-1e11, -1.0)]


def test_certified_double_roots_pass_pellet_exactly():
    # Pellet's inequality at the returned radius, for the exact quartic of the
    # rounded unit-scaled inputs shifted to the exact beta; the float path has
    # the bits of the array path.
    box, band, log_uniform = _certificate_pairs()
    certified = 0
    for pairs, may_refuse in ((box + band + _NAMED_PAIRS, False), (log_uniform, True)):
        for v1, v2 in pairs:
            arrays = ss_branches(np.array([v1]), np.array([v2]))
            for sol, sol_array in zip(ss_closed_form(v1, v2), arrays):
                radius, root = certify_double_root(v1, v2, sol)
                assert repr((radius, root)) == repr(tuple(x.item() for x in certify_double_root(
                    np.array([v1]), np.array([v2]), sol_array)))
                if math.isnan(radius):
                    assert math.isnan(root) and (may_refuse or not sol.feasible), (v1, v2)
                    continue
                certified += 1
                assert sol.feasible and radius <= 1e-6 * sol.beta
                assert abs(root - sol.beta) <= radius
                k, (c0, c1, c2, c3) = _exact_shifted_quartic(v1, v2, sol)
                r = Fraction(math.ldexp(radius, -k))
                assert abs(c2) * r * r > abs(c0) + abs(c1) * r + abs(c3) * r ** 3 + r ** 4, (
                    v1, v2)
    assert certified >= 300 + 600 + 100 + 5


def test_certificate_agrees_with_the_eigenvalue_oracle():
    # On 2,000 box and 2,000 band branches, exactly two of quartic_roots'
    # eigenvalues lie within 1e-6 beta of the certificate's Newton point.
    rng = np.random.RandomState(36)
    u = 1.0 - rng.random_sample((3, 2000))
    v2_band = 0.1 + 9.9 * u[2, :1000]
    v1 = np.concatenate((-10.0 * u[0], KAPPA * v2_band * u[2, 1000:]))
    v2 = np.concatenate((-10.0 * u[1], v2_band))
    plus, minus = ss_branches(v1, v2)
    for sol, rows in ((plus, slice(None)), (minus, slice(2000, None))):
        radius, root = (x[rows] for x in certify_double_root(v1, v2, sol))
        beta, g2 = sol.beta[rows], sol.g_squared[rows]
        assert (radius <= 1e-6 * beta).all()
        found = quartic_roots(quartic_coeffs(DeltaPotential(v1[rows], v2[rows], np.sqrt(g2), 0.0)))
        near = abs(found.roots - root[:, None]) <= 1e-6 * beta[:, None]
        assert (near.sum(axis=1) == 2).all(), np.flatnonzero(near.sum(axis=1) != 2)


def _scalar_residuals(roots, q):
    """|expanded - wanted| of each coefficient when the four roots are
    multiplied out in Python complex arithmetic, and the guard they must not
    exceed, 1e-6 max(1, |coefficients|, max |z|^4)."""
    r1, r2, r3, r4 = roots
    expanded = (-(r1 + r2 + r3 + r4),
                r1 * r2 + r1 * r3 + r1 * r4 + r2 * r3 + r2 * r4 + r3 * r4,
                -(r1 * r2 * r3 + r1 * r2 * r4 + r1 * r3 * r4 + r2 * r3 * r4),
                r1 * r2 * r3 * r4)
    want = (q.b, q.c, q.d, q.e)
    scale = max(1.0, *map(abs, want), max(abs(z) for z in roots) ** 4)
    return [abs(got - w) for got, w in zip(expanded, want)], 1e-6 * scale


def _root_bits(roots):
    return [(math.copysign(1.0, z.real), z.real.hex(), math.copysign(1.0, z.imag), z.imag.hex())
            for z in roots]


def _branch_quartics(rng, count):
    """Quartics of the feasible branches at count lossy-quadrant pairs and
    count pairs from the v2 > 0 band."""
    pairs = [(-10.0 * (1.0 - rng.random()), -10.0 * (1.0 - rng.random())) for _ in range(count)]
    for _ in range(count):
        v2 = 0.1 + 9.9 * (1.0 - rng.random())
        pairs.append((KAPPA * v2 * rng.random(), v2))
    return [quartic_coeffs(DeltaPotential.from_g_squared(v1, v2, sol.g_squared))
            for v1, v2 in pairs for sol in ss_closed_form(v1, v2) if sol.feasible]


def _root_census():
    """Random quartics, those of feasible branches, and a few with repeated roots."""
    rng = random.Random(2024)
    quartics = [QuarticCoeffs(*(rng.uniform(-20.0, 20.0) for _ in range(4)))
                for _ in range(2000)]
    quartics += _branch_quartics(rng, 500)
    # Four equal roots, a triple root, and two double roots.
    quartics += [QuarticCoeffs(0.0, 0.0, 0.0, 0.0), QuarticCoeffs(-4.0, 6.0, -4.0, 1.0),
                 QuarticCoeffs(-5.0, 9.0, -7.0, 2.0), QuarticCoeffs(0.0, -2.0, 0.0, 1.0)]
    return quartics


def test_quartic_root_arrays_equal_scalar_roots():
    # Each stacked row has the bits of the eigenvalues of that row's own
    # companion matrix, sorted by (real, imag), and reconstructs its quartic.
    quartics = _root_census()
    found = quartic_roots(QuarticCoeffs(*np.array([(q.b, q.c, q.d, q.e) for q in quartics]).T))
    for n, q in enumerate(quartics):
        comp = np.array([[0.0, 0.0, 0.0, -q.e], [1.0, 0.0, 0.0, -q.d],
                         [0.0, 1.0, 0.0, -q.c], [0.0, 0.0, 1.0, -q.b]])
        roots = _sorted(complex(z) for z in np.linalg.eigvals(comp))
        assert bool(found.reconstructs[n])
        assert _root_bits(found.roots[n].tolist()) == _root_bits(roots)
        assert _root_bits(_one_quartic(q)) == _root_bits(roots)


def _moved_root(roots, q, k, ratio, rng):
    """roots with root k moved, in a random direction, so far that the largest
    scalar residual is ratio times the guard, to a relative 1e-9 (rounding
    root + move leaves about 1e-11)."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    step = complex(math.cos(angle), math.sin(angle)) * 1e-6 * max(1.0, abs(roots[k]))
    for _ in range(20):
        moved = list(roots)
        moved[k] += step
        offs, bound = _scalar_residuals(moved, q)
        if abs(max(offs) / bound / ratio - 1.0) <= 1e-9:
            return moved
        step *= ratio * bound / max(offs)
    raise AssertionError(f"no root move of {q} gives a residual of {ratio} guards")


def test_reconstruction_guard_decides_as_python_complex_arithmetic():
    # The multiply-accumulate rounds as numpy's complex product, not CPython's;
    # with one root moved so that the residual lies within a factor 2 of the
    # guard, every row still decides as the scalar reference, in a batch and
    # alone, and a residual just above the guard fails.
    rng = random.Random(34)
    quartics = _root_census()
    coeffs = np.array([(q.b, q.c, q.d, q.e) for q in quartics])
    roots = quartic_roots(QuarticCoeffs(*coeffs.T)).roots.tolist()
    ratios = [2.0 ** rng.uniform(-1.0, 1.0) for _ in quartics]
    moved = np.array([_moved_root(z, q, n % 4, ratio, rng)
                      for n, (z, q, ratio) in enumerate(zip(roots, quartics, ratios))])
    want = [not any(off > bound for off in offs) for offs, bound in (
        _scalar_residuals(z, q) for z, q in zip(moved.tolist(), quartics))]
    assert 0.4 < sum(want) / len(want) < 0.6
    got = _reconstructs(moved, coeffs)
    assert got.tolist() == want
    assert [bool(_reconstructs(moved[n:n + 1], coeffs[n:n + 1])[0])
            for n in range(len(quartics))] == want
    above = np.array([_moved_root(z, q, n % 4, 1.0 + 1e-7, rng)
                      for n, (z, q) in enumerate(zip(roots, quartics))])
    assert not _reconstructs(above, coeffs).any()


def test_failed_reconstruction_raises(monkeypatch):
    unpatched = np.linalg.eigvals

    def eigvals(comp):
        # Scales the roots of the quartic with d = -46.
        z = unpatched(comp).astype(complex)
        z[comp[:, 1, 3] == 46.0] *= 1.5
        return z

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    found = quartic_roots(QuarticCoeffs([-10.0, -7.0, 1.0], [35.0, 24.5, 2.0],
                                        [-50.0, -46.0, 3.0], [24.0, 34.0, 4.0]))
    assert found.reconstructs.tolist() == [True, False, True]
    found.require(0)
    with pytest.raises(NumericalError, match="root set fails to reconstruct the quartic"):
        found.require(1)
    with pytest.raises(NumericalError, match="root set fails to reconstruct the quartic"):
        _one_quartic(QuarticCoeffs(-7.0, 24.5, -46.0, 34.0))


def test_quartic_root_oracle_check_at_suite_seed_160():
    # verify --seed 160 runs this check with stream(160 + 9).
    assert verify.check_quartic_root_oracle(verify.stream(169), 10000).passed


def test_minimize_dsq_finds_both_branches():
    beta, val = minimize_dsq(DeltaPotential.from_g_squared(-0.5, 3.0, 3.75), 10.0)
    assert abs(beta - 2.0) <= 1e-9
    assert val <= 1e-18
    beta, val = minimize_dsq(DeltaPotential.from_g_squared(-0.5, 3.0, 5.0), 10.0)
    assert abs(beta - 1.5) <= 1e-9
    assert val <= 1e-18


def test_minimize_dsq_positive_in_unitary_case():
    _, val = minimize_dsq(DeltaPotential(1.0, 0.0, 1.0, 0.0), 10.0)
    assert val > 0.5


def test_minimize_dsq_default_bound_and_validation():
    p = DeltaPotential.from_g_squared(-0.5, 3.0, 3.75)
    beta, val = minimize_dsq(p)
    assert abs(beta - 2.0) <= 1e-9
    with pytest.raises(ValueError):
        minimize_dsq(p, -1.0)


@pytest.mark.parametrize("g2, want", [
    (3.75, (2.0, 0.0)),
    (5.0, (1.5, 7.888609052210118e-31)),
    (1.0, (2.7754499604680136, 1.6365447484455091)),
])
def test_minimize_dsq_pinned_bitwise(g2, want):
    got = minimize_dsq(DeltaPotential.from_g_squared(-0.5, 3.0, g2))
    assert [type(x) for x in got] == [float, float]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_matching_real_strength_hand_value():
    p = DeltaPotential(1.0, 0.0, 1.0, 0.0)
    for mode in (MatchMode.CONJUGATE, MatchMode.CONTINUED):
        m = matching_solver(p, 0.5, mode)
        assert not m.at_singularity
        assert abs(m.r - (-9 - 6j) / 13) <= 1e-12
        assert abs(m.t - (4 - 6j) / 13) <= 1e-12


def test_matching_free_potential():
    free = DeltaPotential(0.0, 0.0, 0.0, 0.0)
    for mode in (MatchMode.CONJUGATE, MatchMode.CONTINUED):
        m = matching_solver(free, 1.7, mode)
        assert abs(m.r) <= 1e-14 and abs(m.t - 1.0) <= 1e-14


def test_matching_singular_at_branch_point():
    p = DeltaPotential(-0.5, 3.0, math.sqrt(15.0) / 2.0, 0.0)
    m = matching_solver(p, 2.0, MatchMode.CONTINUED)
    assert m.at_singularity
    assert np.isnan(m.r) and np.isnan(m.t)
    assert m.abs_d <= 1e-10 * 4.0


def test_matching_rejects_bad_energy():
    with pytest.raises(ValueError):
        matching_solver(DeltaPotential(0, 0, 0, 0), 0.0, MatchMode.CONTINUED)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=1e-3, max_value=100, allow_nan=False),
       st.floats(min_value=1e-2, max_value=200, allow_nan=False))
def test_matching_continuity_conditions(v1, v2, g2, energy):
    p = DeltaPotential.from_g_squared(v1, v2, g2)
    for mode in (MatchMode.CONJUGATE, MatchMode.CONTINUED):
        m = matching_solver(p, energy, mode)
        if m.at_singularity:
            continue
        assert abs(1 + m.r - m.t) <= 1e-12 * max(1.0, abs(m.t))


@given(st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=1e-3, max_value=100, allow_nan=False),
       st.floats(min_value=1e-2, max_value=200, allow_nan=False))
def test_continued_mode_matches_closed_form(v1, v2, g2, energy):
    p = DeltaPotential.from_g_squared(v1, v2, g2)
    closed = amplitudes(p, energy)
    if closed.at_singularity:
        return
    m = matching_solver(p, energy, MatchMode.CONTINUED)
    assert not m.at_singularity
    assert abs(m.r - closed.r) <= 1e-9 * max(1.0, abs(closed.r))
    assert abs(m.t - closed.t) <= 1e-9 * max(1.0, abs(closed.t))


@given(st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=1e-3, max_value=100, allow_nan=False),
       st.floats(min_value=1e-2, max_value=200, allow_nan=False))
def test_conjugate_mode_matches_closed_form_for_real_strength(v1, g2, energy):
    p = DeltaPotential.from_g_squared(v1, 0.0, g2)
    closed = amplitudes(p, energy)
    if closed.at_singularity:
        return
    m = matching_solver(p, energy, MatchMode.CONJUGATE)
    assert not m.at_singularity
    assert abs(m.r - closed.r) <= 1e-9 * max(1.0, abs(closed.r))
    assert abs(m.t - closed.t) <= 1e-9 * max(1.0, abs(closed.t))


def test_modes_diverge_at_probe():
    p = DeltaPotential.from_g_squared(-0.5, 3.0, 3.75)
    r_cont = matching_solver(p, 1.0, MatchMode.CONTINUED).r
    r_conj = matching_solver(p, 1.0, MatchMode.CONJUGATE).r
    assert abs(r_cont - r_conj) > 1e-12


def test_potential_recovery_from_pairs():
    v1, v2 = potential_from_ss_pairs((3.75, 2.0), (5.0, 1.5))
    assert v1 == -0.5 and v2 == 3.0


def test_potential_recovery_rejects_inconsistent_pairs():
    with pytest.raises(NumericalError):
        potential_from_ss_pairs((1.0, 1.0), (1.0, 2.0))
    # Equal betas leave v1 - v2 and v1 v2 undetermined.
    with pytest.raises(NumericalError):
        potential_from_ss_pairs((3.75, 2.0), (5.0, 2.0))


def _channels(p, energy, mode):
    """beta and the channel strengths V1, V3 - i V2, V3 + i V2 and cj of one
    junction system, from the quaternion split in Python complex arithmetic."""
    beta = math.sqrt(2.0 * energy)
    # i (v1 + i v2) + cap_v2 j + cap_v3 k, split into complex channels.
    a_ch, b_ch = symplectic_split(Quaternion(-p.v2, p.v1, p.cap_v2, p.cap_v3))
    v1c = -1j * a_ch
    cj = v1c.conjugate() if mode is MatchMode.CONJUGATE else v1c
    return beta, v1c, -1j * b_ch.conjugate(), 1j * b_ch, cj


def _junction_system(p, energy, mode):
    """The 4x4 junction system over (r, t, rt, tt) as a complex matrix and
    right-hand side, and beta."""
    beta, v1c, c12, c21, cj = _channels(p, energy, mode)
    half_b = 0.5 * beta
    system = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
        [1j * half_b, 1j * half_b - v1c, 0.0, c12],
        [0.0, c21, half_b, half_b + cj],
    ], dtype=complex)
    return system, np.array([-1.0, 0.0, 1j * half_b, 0.0], dtype=complex), beta


def _scalar_matching(p, energy, mode):
    """One junction system solved on its own by LAPACK: a determinant and a
    solve of the 4x4 system, an independent cross-check of the oracle; the
    solution's (r, t)."""
    system, rhs, beta = _junction_system(p, energy, mode)
    abs_det = abs(np.linalg.det(system))
    if abs_det < TOL_SINGULAR * max(1.0, beta * beta):
        return (None,) * 2, True, abs_det
    return tuple(complex(z) for z in np.linalg.solve(system, rhs)[:2]), False, abs_det


def _reduced_matching(p, energy, mode):
    """One junction system in Python complex arithmetic: the continuity rows
    eliminated, the 2x2 system left solved by Cramer's rule. The reference
    each stacked row must reproduce bit for bit."""
    beta, v1c, c12, c21, cj = _channels(p, energy, mode)
    i_beta = 1j * beta
    diag = complex(beta, 0.0) + cj
    coupling = c12 * c21
    det = (i_beta - v1c) * diag - coupling
    if abs(det) < TOL_SINGULAR * max(1.0, beta * beta):
        return (None,) * 2, True, abs(det)
    return ((v1c * diag + coupling) / det, i_beta * diag / det), False, abs(det)


def _bits(z):
    return math.copysign(1.0, z.real), z.real.hex(), math.copysign(1.0, z.imag), z.imag.hex()


def _matching_rows(seed, count):
    """count seeded (v1, v2, cap_v2, cap_v3, E) rows, with v2 = 0 and
    cap_v3 = 0 among them, then rows singular in Continued mode (the
    reference branch point) and in Conjugate mode (beta = v2 - v1,
    g^2 = -2 v1 v2), and the free particle."""
    rng = random.Random(seed)
    rows = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0) if rng.random() < 0.7 else 0.0,
             rng.uniform(0.0, 10.0), rng.uniform(-5.0, 5.0) if rng.random() < 0.5 else 0.0,
             0.5 * (20.0 * (1.0 - rng.random())) ** 2) for _ in range(count)]
    return rows + [(-0.5, 3.0, math.sqrt(3.75), 0.0, 2.0), (-1.0, 2.0, 2.0, 0.0, 4.5),
                   (0.0, 0.0, 0.0, 0.0, 1.7)]


def _amplitudes(m):
    return m.r, m.t


def _solve_rows(rows, mode):
    """matching_solver over the (v1, v2, cap_v2, cap_v3, E) rows at once."""
    v1, v2, cap_v2, cap_v3, energy = np.array(rows).T
    return matching_solver(DeltaPotential(v1, v2, cap_v2, cap_v3), energy, mode)


def test_continued_determinant_is_i_times_the_closed_form_denominator():
    # det2 = (i beta - V1)(beta + V1) - (V3 - i V2)(V3 + i V2) = i D in
    # Continued mode, from a separate derivation and rounding; the two paths
    # flag the same singular rows, the reference branch point among them.
    rows = np.array(_matching_rows(2024, 2000))
    pot = DeltaPotential(*rows[:, :4].T)
    energy = rows[:, 4]
    m, closed = matching_solver(pot, energy, MatchMode.CONTINUED), amplitudes(pot, energy)
    beta, size = np.sqrt(2.0 * energy), np.hypot(pot.v1, pot.v2)
    scale = beta * beta + 2.0 * size * beta + size * size + pot.g_squared
    det2 = as_complex(*_cramer(*rows[:, :4].T, beta, MatchMode.CONTINUED)[2])
    err = np.abs(det2 - 1j * denominator(pot, beta))
    assert (err <= 4 * np.finfo(float).eps * scale).all(), (err / scale).max()
    assert np.array_equal(m.at_singularity, closed.at_singularity)
    assert m.at_singularity.tolist() == [False] * 2000 + [True, False, False]


@pytest.mark.parametrize("mode", list(MatchMode))
def test_matching_arrays_equal_scalar_solves(mode):
    # One function on one system and on the stack of all of them.
    rows = _matching_rows(2024, 2000)
    stacked = _solve_rows(rows, mode)
    singular_rows = 0
    for n, (v1, v2, cap_v2, cap_v3, energy) in enumerate(rows):
        pot = DeltaPotential(v1, v2, cap_v2, cap_v3)
        amps, singular, abs_det = _reduced_matching(pot, energy, mode)
        one = matching_solver(pot, energy, mode)
        singular_rows += singular
        assert (one.at_singularity, one.abs_d) == (singular, abs_det)
        assert (bool(stacked.at_singularity[n]), stacked.abs_d[n]) == (singular, abs_det)
        for got_one, got_row, want in zip(_amplitudes(one), _amplitudes(stacked), amps):
            got = complex(got_one), complex(got_row[n])
            if singular:
                assert all(math.isnan(z.real) and math.isnan(z.imag) for z in got)
            else:
                assert [_bits(z) for z in got] == [_bits(want)] * 2
    assert singular_rows == 1


@pytest.mark.parametrize("mode", list(MatchMode))
def test_matching_arrays_agree_with_lapack(mode):
    rows = _matching_rows(2024, 2000)
    stacked = _solve_rows(rows, mode)
    for n, (v1, v2, cap_v2, cap_v3, energy) in enumerate(rows):
        amps, singular, abs_det = _scalar_matching(DeltaPotential(v1, v2, cap_v2, cap_v3),
                                                   energy, mode)
        assert bool(stacked.at_singularity[n]) == singular
        if singular:
            continue
        assert abs(stacked.abs_d[n] - abs_det) <= 1e-13 * abs_det
        for got, want in zip(_amplitudes(stacked), amps):
            assert abs(got[n] - want) <= 1e-13 * max(1.0, abs(want))


def _exact_solve(system, rhs):
    """The exact solution of a complex linear system with float entries, by
    Gauss-Jordan elimination over pairs of Fractions (re, im)."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def div(a, b):
        norm = b[0] * b[0] + b[1] * b[1]
        return (a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm

    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in (*row, b)]
            for row, b in zip(system.tolist(), rhs.tolist())]
    for col in range(len(rows)):
        pivot = next(k for k in range(col, len(rows)) if rows[k][col] != (0, 0))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [div(x, rows[col][col]) for x in rows[col]]
        for k, row in enumerate(rows):
            if k != col and row[col] != (0, 0):
                factor = row[col]
                rows[k] = [(x[0] - y[0], x[1] - y[1])
                           for x, y in zip(row, (mul(factor, z) for z in rows[col]))]
    return [row[-1] for row in rows]


@pytest.mark.parametrize("mode", list(MatchMode))
def test_matching_arrays_within_32_ulps_of_exact_solve(mode):
    # t is a product over det2, so it stays within 32 ulps of its own
    # modulus; LAPACK's 4x4 solve of the same systems is off by up
    # to about 90 ulps here. r's numerator V1 (beta + cj) + (V3 - i V2)(V3 + i V2)
    # cancels near a reflectionless energy, so r is held to 32 ulps of the
    # larger of |r| and its terms' scale (|V1| |beta + cj| + |V3 - i V2|^2) / |det2|.
    rows = _matching_rows(2024, 2000)
    stacked = _solve_rows(rows, mode)
    checked = 0
    for n, (v1, v2, cap_v2, cap_v3, energy) in enumerate(rows):
        if stacked.at_singularity[n]:
            continue
        pot = DeltaPotential(v1, v2, cap_v2, cap_v3)
        exact = _exact_solve(*_junction_system(pot, energy, mode)[:2])
        beta, v1c, c12, c21, cj = _channels(pot, energy, mode)
        r_terms = (abs(v1c) * abs(beta + cj) + abs(c12 * c21)) / stacked.abs_d[n]
        for got, (re, im), scale in zip(_amplitudes(stacked), exact[:2], (r_terms, 0.0)):
            err = math.hypot(float(Fraction(got[n].real) - re), float(Fraction(got[n].imag) - im))
            size = max(math.hypot(float(re), float(im)), scale)
            assert err <= 32 * math.ulp(size), (n, got[n])
        checked += 1
    assert checked >= 1990


@pytest.mark.parametrize("mode", list(MatchMode))
def test_matching_arrays_are_scale_free(mode):
    # v, V2, V3 -> 2^k v, 2^k V2, 2^k V3 and E -> 4^k E scale every entry of
    # the reduced system by 2^k, so r and t keep their bits. The
    # singular test keeps its max(1, beta^2) floor, so rows singular at
    # either scale are left out.
    rows = np.array(_matching_rows(2024, 2000))
    base = _solve_rows(rows, mode)
    compared = 0
    for k in range(-40, 41):
        scaled = matching_solver(DeltaPotential(*np.ldexp(rows[:, :4], k).T),
                                 np.ldexp(rows[:, 4], 2 * k), mode)
        both = ~(base.at_singularity | scaled.at_singularity)
        for got, want in zip(_amplitudes(scaled), _amplitudes(base)):
            assert np.array_equal(got[both].view(np.uint64), want[both].view(np.uint64)), k
        compared += both.sum()
    assert compared >= 40 * 2003
