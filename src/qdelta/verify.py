"""Self-contained verification suites.

Every closed form is checked against an independent numerical oracle, every
algebraic identity against seeded random draws, and the report always states
the two documented inconsistencies in the published reference values for this
model. Reports are byte-identical for equal seeds.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import oracle
from .oracle import MatchMode
from .qalg import Quaternion, qconj, qmul, symplectic_join, symplectic_split
from .scatter import (DeltaPotential, amplitude_arrays, amplitudes, denominator,
                      dr_di, sweep)
from .singular import (KAPPA, QuarticCoeffs, Reason, RegionClass, RootNature,
                       classify_region, discriminant_bounded,
                       discriminant_expanded, discriminant_factored,
                       pq_classifiers, pq_simplified, quartic_coeffs,
                       region_of, root_nature, scan_region, ss_branches,
                       ss_closed_form)

# Published singularity pairs (g^2, beta) quoted for the reference interaction.
REFERENCE_PAIRS = ((3.75, 2.0), (5.0, 1.5))
# The interaction the same source quotes alongside them, which does not
# reproduce them; the pair recovered from the constants themselves does.
REFERENCE_QUOTED_STRENGTH = "-10 - 0.5i"

# Fixed probe where the Conjugate and Continued junction models must differ.
MODE_PROBE = (-0.5, 3.0, 3.75, 1.0)   # v1, v2, g^2, energy

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, problems: list[str], detail: str) -> CheckResult:
    if problems:
        return CheckResult(name, False, problems[0])
    return CheckResult(name, True, detail)


def _open_unit(rng: random.Random) -> float:
    """Uniform in (0, 1]."""
    return 1.0 - rng.random()


def check_reference_constants() -> CheckResult:
    """Re-derive the reference strengths from the published singularity pairs,
    then confirm every branch constant and a vanishing denominator."""
    problems: list[str] = []
    v1, v2 = oracle.potential_from_ss_pairs(*REFERENCE_PAIRS)
    if abs(v1 + 0.5) > 1e-12 or abs(v2 - 3.0) > 1e-12:
        problems.append(f"recovered strengths ({v1!r},{v2!r}) != (-0.5,3)")
    plus, minus = ss_closed_form(v1, v2)
    expected = ((plus.g_squared, 3.75), (minus.g_squared, 5.0),
                (plus.energy, 2.0), (minus.energy, 1.125),
                (plus.beta, 2.0), (minus.beta, 1.5))
    for got, want in expected:
        if abs(got - want) > 1e-12:
            problems.append(f"branch constant {got!r} != {want}")
    max_absd = 0.0
    for sol in (plus, minus):
        if not sol.feasible:
            problems.append(f"{sol.branch.value} branch infeasible: {sol.reason.value}")
            continue
        pot = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
        absd = abs(denominator(pot, sol.beta))
        max_absd = max(max_absd, absd)
        if absd > 1e-12:
            problems.append(f"|D| at {sol.branch.value} branch = {absd:.3e} > 1e-12")
    detail = (f"v1={v1:g} v2={v2:g} g2+={plus.g_squared:g} g2-={minus.g_squared:g} "
              f"E+={plus.energy:g} E-={minus.energy:g} max|D|={max_absd:.3e}")
    return _result("reference-constants", problems, detail)


def check_resonance_curves() -> CheckResult:
    """Both branch sweeps must peak at the predicted energies and diverge
    beyond 1e6 within 1e-7 of them."""
    problems: list[str] = []
    details = []
    e_min, e_max, steps = 0.05, 4.0, 4000
    h = (e_max - e_min) / (steps - 1)
    for g2, e_ss in ((3.75, 2.0), (5.0, 1.125)):
        pot = DeltaPotential.from_g_squared(-0.5, 3.0, g2)
        res = sweep(pot, e_min, e_max, steps)
        energies = res.energy.tolist()
        i_r, i_t = int(np.argmax(res.big_r)), int(np.argmax(res.big_t))
        for label, idx in (("R", i_r), ("T", i_t)):
            off = abs(energies[idx] - e_ss)
            if off > h + 1e-12:
                problems.append(f"{label} peak at E={energies[idx]:.6f}, "
                                f"{off / h:.1f} grid steps from {e_ss}")
        for e_probe in (e_ss - 1e-7, e_ss + 1e-7):
            res = amplitudes(pot, e_probe)
            if not (res.big_r > 1e6 and res.big_t > 1e6):
                problems.append(f"R,T=({res.big_r:.3e},{res.big_t:.3e}) "
                                f"at E={e_probe!r} not > 1e6")
        details.append(f"g2={g2:g}: peak within {max(abs(energies[i_r] - e_ss), abs(energies[i_t] - e_ss)) / h:.2f} step of E={e_ss:g}")
    return _result("resonance-curves", problems, "; ".join(details))


def _draw_potential(rng: random.Random) -> tuple[float, float, float, float]:
    """(v1, v2, g^2, beta) on the draw box."""
    v1 = rng.uniform(-10.0, 10.0)
    v2 = rng.uniform(-10.0, 10.0)
    g2 = 100.0 * _open_unit(rng)
    beta = 20.0 * _open_unit(rng)
    return v1, v2, g2, beta


# The batched checks draw and evaluate this many samples at a time, in RNG
# order, so that their memory does not grow with the trial count.
_BLOCK = 2048


def _draw_blocks(rng: random.Random, trials: int, draw) -> Iterator[tuple[int, list]]:
    """(index of the first draw, draws) for consecutive blocks of draw(rng)."""
    for start in range(0, trials, _BLOCK):
        yield start, [draw(rng) for _ in range(min(_BLOCK, trials - start))]


def _potential_blocks(rng: random.Random, trials: int,
                      draw) -> Iterator[tuple[int, DeltaPotential, np.ndarray]]:
    """(index of the first draw, potentials, beta or E) for consecutive blocks
    of draw(rng) = (v1, v2, g^2, beta or E); the potentials are one
    DeltaPotential of arrays, each entry as from_g_squared builds it."""
    for start, draws in _draw_blocks(rng, trials, draw):
        v1, v2, g2, last = np.array(draws).T
        yield start, DeltaPotential(v1, v2, np.sqrt(g2), 0.0), last


def _maximum(*values):
    return functools.reduce(np.maximum, values)


def _first_failure(checks) -> str | None:
    """For (failed, message) pairs over one block, message(n) of the first
    check that fails at the first draw n where any fails; None if none does."""
    failing = np.flatnonzero(np.any([failed for failed, _ in checks], axis=0))
    if not failing.size:
        return None
    n = int(failing[0])
    return next(message(n) for failed, message in checks if failed[n])


def _expanded_at(coeffs: QuarticCoeffs, n: int) -> float:
    """discriminant_expanded of row n of array coefficients."""
    return discriminant_expanded(QuarticCoeffs(*(x[n].item() for x in (
        coeffs.b, coeffs.c, coeffs.d, coeffs.e))))


def _discriminant_gaps(coeffs: QuarticCoeffs,
                       delta_fact: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|delta_exp - delta_fact| and the gap allowed, per row; delta_exp is
    discriminant_expanded's fsum wherever the plain sum's error could flip
    the verdict."""
    b, c, dd, e = coeffs.b, coeffs.c, coeffs.d, coeffs.e
    # np.float_power rounds as ** on floats does; numpy's power may not.
    monomials = _maximum(np.float_power(np.abs(e), 3) * 256.0, 27.0 * np.float_power(dd, 4),
                         27.0 * np.float_power(b, 4) * e * e)

    def gaps(delta_exp):
        term_scale = _maximum(monomials, np.abs(delta_exp), np.abs(delta_fact))
        return np.abs(delta_exp - delta_fact), np.maximum(1e-8, 1e-6 * term_scale)

    delta_exp, bound = discriminant_bounded(coeffs)
    gap, allowed = gaps(delta_exp)
    # The verdict gap > allowed moves by at most (1 + 1e-6) |delta_exp - fsum|,
    # plus the rounding of gap and allowed themselves.
    unsure = np.flatnonzero(np.abs(gap - allowed) <= 2.0 * (bound + _EPS * allowed))
    for n in unsure.tolist():
        delta_exp[n] = _expanded_at(coeffs, n)
    if unsure.size:
        gap, allowed = gaps(delta_exp)
    return gap, allowed


def check_algebraic_identities(rng: random.Random, trials: int) -> CheckResult:
    """|D|^2 = Dr^2 + Di^2 = quartic(beta); discriminant = 64 A B; P, Q raw
    versus reduced; A >= 0 and B >= 0 throughout."""
    problems: list[str] = []
    for start, pot, beta in _potential_blocks(rng, trials, _draw_potential):
        d = denominator(pot, beta)
        dsq = d.real * d.real + d.imag * d.imag
        d_r, d_i = dr_di(pot, beta)
        split_sq = d_r * d_r + d_i * d_i
        coeffs = quartic_coeffs(pot)
        quartic_val = coeffs.value_at(beta)
        tol = 1e-9 * _maximum(1.0, dsq, split_sq, np.abs(quartic_val))
        a_factor, b_factor, delta_fact = discriminant_factored(pot)
        disc_gap, disc_allowed = _discriminant_gaps(coeffs, delta_fact)
        p_raw, q_raw = pq_classifiers(coeffs)
        p_simple, q_simple = pq_simplified(pot)
        b, c, dd, e = coeffs.b, coeffs.c, coeffs.d, coeffs.e
        p_scale = _maximum(1.0, 8.0 * np.abs(c), 3.0 * b * b)
        q_scale = _maximum(1.0, 64.0 * np.abs(e), 16.0 * c * c, 3.0 * np.float_power(b, 4),
                           16.0 * np.abs(b * dd), 16.0 * b * b * np.abs(c))
        problem = _first_failure((
            ((np.abs(dsq - split_sq) > tol) | (np.abs(dsq - quartic_val) > tol),
             lambda n: f"|D|^2 identity broken at draw {start + n}: {dsq[n].item()!r} "
                       f"vs {split_sq[n].item()!r} vs {quartic_val[n].item()!r}"),
            (disc_gap > disc_allowed,
             lambda n: f"discriminant identity broken at draw {start + n}: "
                       f"{_expanded_at(coeffs, n)!r} vs {delta_fact[n].item()!r}"),
            ((np.abs(p_raw - p_simple) > 1e-10 * p_scale)
             | (np.abs(q_raw - q_simple) > 1e-10 * q_scale),
             lambda n: f"P/Q reduction broken at draw {start + n}"),
            ((a_factor < 0.0) | (b_factor < 0.0),
             lambda n: f"negative discriminant factor at draw {start + n}: "
                       f"A={a_factor[n].item()!r} B={b_factor[n].item()!r}"),
        ))
        if problem is not None:
            problems.append(problem)
            break
    return _result("algebraic-identities", problems,
                   f"{trials} draws, all identities hold")


def _draw_v2_zero(rng: random.Random) -> tuple[float, float, float, float]:
    """(v1, 0, g^2, E): a potential of the probability-conserving v2 = 0
    family, and an energy."""
    v1 = rng.uniform(-10.0, 10.0)
    g2 = 100.0 * _open_unit(rng)
    energy = 0.5 * (20.0 * _open_unit(rng)) ** 2
    return v1, 0.0, g2, energy


def check_unitarity(rng: random.Random, trials: int) -> CheckResult:
    """R + T = 1 for every draw with v2 = 0 (probability-conserving family)."""
    problems: list[str] = []
    worst = 0.0
    for start, pot, energy in _potential_blocks(rng, trials, _draw_v2_zero):
        res = amplitude_arrays(pot.v1, pot.v2, pot.g_squared, energy)
        err = np.abs(res.big_r + res.big_t - 1.0)
        bad = np.flatnonzero(err > 1e-10)
        if bad.size:
            n = int(bad[0])
            problems.append(f"|R+T-1| = {err[n]:.3e} at draw {start + n}")
            break
        worst = max(worst, float(err.max()))
    return _result("unitarity-v2-zero", problems,
                   f"{trials} draws, worst |R+T-1| = {worst:.3e}")


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as abs() takes it for a complex number; numpy's abs may round otherwise."""
    return np.hypot(z.real, z.imag)


def _first_oracle_mismatch(rng: random.Random, trials: int, draw,
                           mode: MatchMode) -> int | None:
    """First (potential, energy) draw off the singularities where the matching
    oracle in this mode disagrees with the closed forms, or None."""
    for start, pot, energy in _potential_blocks(rng, trials, draw):
        closed = amplitude_arrays(pot.v1, pot.v2, pot.g_squared, energy)
        m = oracle.matching_arrays(pot.v1, pot.v2, pot.cap_v2, pot.cap_v3, energy, mode)
        agree = np.ones(energy.shape, dtype=bool)
        for got, want in ((m.r, closed.r), (m.t, closed.t)):
            agree &= _modulus(got - want) <= 1e-9 * _maximum(1.0, _modulus(got), _modulus(want))
        bad = np.flatnonzero(~closed.at_singularity & (m.singular_system | ~agree))
        if bad.size:
            return start + int(bad[0])
    return None


def _draw_at_energy(rng: random.Random) -> tuple[float, float, float, float]:
    v1, v2, g2, beta = _draw_potential(rng)
    return v1, v2, g2, 0.5 * beta * beta


def check_matching_equivalence(rng: random.Random, trials: int) -> CheckResult:
    """Continued-mode matching equals the closed forms everywhere; Conjugate
    mode equals them on the v2 = 0 subfamily; the two modes must differ at the
    fixed probe, whose magnitude is reported."""
    problems: list[str] = []
    n = _first_oracle_mismatch(rng, trials, _draw_at_energy, MatchMode.CONTINUED)
    if n is not None:
        problems.append(f"Continued mode disagrees with closed form at draw {n}")
    n = _first_oracle_mismatch(rng, trials, _draw_v2_zero, MatchMode.CONJUGATE)
    if n is not None:
        problems.append(f"Conjugate mode disagrees on v2=0 at draw {n}")
    divergence = mode_divergence_at_probe()
    if divergence <= 1e-12:
        problems.append(f"junction models coincide at probe: |dr| = {divergence:.3e}")
    return _result("matching-equivalence", problems,
                   f"2x{trials} draws agree; model divergence at probe |dr| = {divergence:.6e}")


def mode_divergence_at_probe() -> float:
    v1, v2, g2, energy = MODE_PROBE
    pot = DeltaPotential.from_g_squared(v1, v2, g2)
    r_cont = oracle.matching_solver(pot, energy, MatchMode.CONTINUED).r
    r_conj = oracle.matching_solver(pot, energy, MatchMode.CONJUGATE).r
    return abs(r_cont - r_conj)


def _lossy_draw(rng: random.Random) -> float:
    return -10.0 * _open_unit(rng)


def check_double_root_boundary(rng: random.Random, pairs: int) -> CheckResult:
    """Plus-branch singularities in the lossy quadrant are genuine double
    roots: multiplicity 2 at beta+, A ~ 0, boundary verdict."""
    problems: list[str] = []
    for n in range(pairs):
        v1, v2 = _lossy_draw(rng), _lossy_draw(rng)
        plus, _ = ss_closed_form(v1, v2)
        if not plus.feasible:
            problems.append(f"plus branch infeasible at ({v1!r},{v2!r})")
            break
        pot = DeltaPotential.from_g_squared(v1, v2, plus.g_squared)
        if oracle.real_double_root(oracle.quartic_roots(quartic_coeffs(pot)), plus.beta) is None:
            problems.append(f"no real double root at beta+={plus.beta!r} for "
                            f"({v1!r},{v2!r})")
            break
        a_factor, _, _ = discriminant_factored(pot)
        if a_factor > 1e-8 * max(1.0, plus.g_squared ** 2):
            problems.append(f"A = {a_factor:.3e} not ~0 at ({v1!r},{v2!r})")
            break
        if root_nature(quartic_coeffs(pot)) is not RootNature.BOUNDARY_DOUBLE_ROOT:
            problems.append(f"verdict is not the boundary at ({v1!r},{v2!r})")
            break
    return _result("double-root-boundary", problems,
                   f"{pairs} lossy-quadrant pairs confirmed")


def _first_region_failure(rng: random.Random, trials: int, draw, failed):
    """The first drawn (v1, v2) pair where failed(plus, minus) holds for its
    branches, with its region label; None if there is none."""
    for _, pairs in _draw_blocks(rng, trials, draw):
        plus, minus = ss_branches(*np.array(pairs).T)
        bad = np.flatnonzero(failed(plus, minus))
        if bad.size:
            n = int(bad[0])
            return pairs[n], region_of(plus.feasible[n], minus.feasible[n])
    return None


def check_lossy_quadrant(rng: random.Random, trials: int) -> CheckResult:
    """Every strictly lossy pair (v1 < 0, v2 < 0) supports a singularity."""
    # PlusOnly or BothBranches exactly where the plus branch is feasible.
    hit = _first_region_failure(rng, trials, lambda r: (_lossy_draw(r), _lossy_draw(r)),
                                lambda plus, _: ~plus.feasible)
    problems = [] if hit is None else [f"({hit[0][0]!r},{hit[0][1]!r}) classified {hit[1].value}"]
    return _result("lossy-quadrant", problems,
                   f"{trials} draws, no region without a singularity")


def check_region_boundary() -> CheckResult:
    """The feasibility band at v2 = 3 ends exactly at v1 = kappa*v2."""
    problems: list[str] = []
    v2 = 3.0
    inside = KAPPA * v2 + 1e-9
    outside = KAPPA * v2 - 1e-3
    plus_in, minus_in = ss_closed_form(inside, v2)
    if plus_in.reason is Reason.COMPLEX_SQRT or minus_in.reason is Reason.COMPLEX_SQRT:
        problems.append("branch square root not real just inside the band")
    if classify_region(inside, v2) is not RegionClass.BOTH_BRANCHES:
        problems.append("inside point does not support both branches")
    plus_out, minus_out = ss_closed_form(outside, v2)
    if not (plus_out.reason is Reason.COMPLEX_SQRT and minus_out.reason is Reason.COMPLEX_SQRT):
        problems.append("outside point does not report a complex square root")
    return _result("region-boundary", problems,
                   f"band edge at v1 = kappa*3 = {KAPPA * 3:.12g} confirmed")


def small_v1_minus_ratios(v2: float = 3.0,
                          v1s: tuple[float, ...] = (-1e-3, -1e-4, -1e-5)) -> list[float]:
    """E- / (2 v1^2) for small |v1|; tends to 1 as v1 -> 0-."""
    out = []
    for v1 in v1s:
        _, minus = ss_closed_form(v1, v2)
        out.append(minus.energy / (2.0 * v1 * v1))
    return out


def check_small_v1_limits() -> CheckResult:
    """As v1 -> 0- at v2 = 3: E+ -> v2^2/2 linearly in |v1| and E- tracks
    2 v1^2 (not the often-quoted v1^2/2)."""
    problems: list[str] = []
    v2 = 3.0
    v1s = (-1e-3, -1e-4, -1e-5)
    errs = []
    for v1 in v1s:
        plus, _ = ss_closed_form(v1, v2)
        err = abs(plus.energy - 0.5 * v2 * v2)
        errs.append(err)
        if err > 10.0 * abs(v1):
            problems.append(f"|E+ - v2^2/2| = {err:.3e} > 10|v1| at v1={v1}")
    if not (errs[0] > errs[1] > errs[2]):
        problems.append(f"plus-branch limit error not decreasing: {errs}")
    ratios = small_v1_minus_ratios(v2, v1s)
    for v1, ratio in zip(v1s, ratios):
        if not (0.99 <= ratio <= 1.01):
            problems.append(f"E-/(2 v1^2) = {ratio:.6f} at v1={v1}")
    return _result("small-v1-limits", problems,
                   "E+ -> v2^2/2; E-/(2 v1^2) = "
                   + ", ".join(f"{r:.6f}" for r in ratios))


def _axis_draw(rng: random.Random) -> tuple[float, float]:
    """(v1, 0) with |v1| >= 1e-6."""
    v1 = 0.0
    while abs(v1) < 1e-6:
        v1 = rng.uniform(-10.0, 10.0)
    return v1, 0.0


def check_no_ss_anti_hermitian(rng: random.Random, trials: int) -> CheckResult:
    """No singularity anywhere on the v2 = 0 axis."""
    hit = _first_region_failure(rng, trials, _axis_draw,
                                lambda plus, minus: plus.feasible | minus.feasible)
    problems = [] if hit is None else [f"v1={hit[0][0]!r}, v2=0 classified {hit[1].value}"]
    return _result("no-ss-anti-hermitian", problems,
                   f"{trials} draws on the v2=0 axis, none singular")


def _rand_quaternion(rng: random.Random, scale: float = 1e3) -> Quaternion:
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def check_quaternion_algebra(rng: random.Random) -> CheckResult:
    """Unit table, norm multiplicativity, associativity, conjugation and the
    exact split/join round trip."""
    problems: list[str] = []
    one = Quaternion(1, 0, 0, 0)
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    table = {
        (i, i): -one, (j, j): -one, (k, k): -one,
        (i, j): k, (j, i): -k, (j, k): i, (k, j): -i, (k, i): j, (i, k): -j,
    }
    for (p, q), want in table.items():
        if qmul(p, q) != want:
            problems.append("unit multiplication table violated")
            break
    for _ in range(500):
        p, q, r = (_rand_quaternion(rng) for _ in range(3))
        if abs(qmul(p, q).norm() - p.norm() * q.norm()) > 1e-12 * max(1.0, p.norm() * q.norm()):
            problems.append("norm not multiplicative")
            break
        left = qmul(qmul(p, q), r)
        right = qmul(p, qmul(q, r))
        scale = max(1.0, p.norm() * q.norm() * r.norm())
        if (left - right).norm() > 1e-12 * scale:
            problems.append("product not associative")
            break
        if qconj(qconj(p)) != p:
            problems.append("conjugation not an involution")
            break
        if symplectic_join(*symplectic_split(p)) != p:
            problems.append("split/join round trip not exact")
            break
    for _ in range(500):
        z = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        lhs = qmul(j, Quaternion(z.real, z.imag, 0.0, 0.0))
        rhs = qmul(Quaternion(z.real, -z.imag, 0.0, 0.0), j)
        if lhs != rhs:
            problems.append("j z != conj(z) j")
            break
    return _result("quaternion-algebra", problems, "500 draws per identity")


def check_decomposition_identity(rng: random.Random, trials: int) -> CheckResult:
    """Complex denominator equals Dr + i Di to 1e-12 absolute on the draw box."""
    problems: list[str] = []
    for start, pot, beta in _potential_blocks(rng, trials, _draw_potential):
        d = denominator(pot, beta)
        d_r, d_i = dr_di(pot, beta)
        off = np.hypot(d.real - d_r, d.imag - d_i)
        problem = _first_failure(((off > 1e-12, lambda n: f"decomposition off by {off[n]:.3e} "
                                                          f"at draw {start + n}"),))
        if problem is not None:
            problems.append(problem)
            break
    return _result("decomposition-identity", problems, f"{trials} draws within 1e-12")


def check_quartic_root_oracle(rng: random.Random, trials: int) -> CheckResult:
    """Random quartics reconstruct from their roots; every feasible branch
    beta appears among the roots with multiplicity 2."""
    problems: list[str] = []
    n_coeff = min(trials, 300)
    for n in range(n_coeff):
        q = QuarticCoeffs(*(rng.uniform(-20.0, 20.0) for _ in range(4)))
        roots = oracle.quartic_roots(q)
        conj_set = sorted((z.conjugate() for z in roots.roots),
                          key=lambda z: (z.real, z.imag))
        plain = sorted(roots.roots, key=lambda z: (z.real, z.imag))
        if conj_set != plain:
            problems.append(f"root set not conjugate-closed at draw {n}")
            break
    n_branch = min(trials, 100)
    for n in range(n_branch):
        v2 = 0.1 + 9.9 * _open_unit(rng)
        v1 = KAPPA * v2 * rng.random()
        if v1 == 0.0:
            continue
        for sol in ss_closed_form(v1, v2):
            if not sol.feasible:
                continue
            pot = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
            roots = oracle.quartic_roots(quartic_coeffs(pot))
            if oracle.real_double_root(roots, sol.beta) is None:
                problems.append(f"branch beta {sol.beta!r} missing from roots "
                                f"at ({v1!r},{v2!r})")
                break
        if problems:
            break
    return _result("quartic-root-oracle", problems,
                   f"{n_coeff} reconstructions, {n_branch} branch root checks")


def check_scan_claims() -> CheckResult:
    """Numerical confirmation of the feasibility-region claims: every feasible
    cell has v1 < 0, and the strictly positive quadrant is empty."""
    problems: list[str] = []
    scan = scan_region((-10.0, 10.0), (-10.0, -0.25), 41, 20)
    # A cell's label is not None exactly where a branch is feasible.
    bad = np.argwhere((scan.plus.feasible | scan.minus.feasible) & (scan.v1[:, None] >= 0.0))
    if bad.size:
        i, j = bad[0]
        problems.append(f"feasible cell with v1 = {float(scan.v1[i])!r} >= 0 "
                        f"at v2 = {float(scan.v2[j])!r}")
    pos = scan_region((0.1, 1.0), (0.1, 1.0), 5, 5)
    if (pos.plus.feasible | pos.minus.feasible).any():
        problems.append("feasible cell in the strictly positive quadrant")
    return _result("region-scan-claims", problems,
                   "feasible cells require v1 < 0 on both scanned strips")


def run_suite(seed: int, trials: int) -> list[CheckResult]:
    """All checks, each on an independently seeded stream."""
    if trials < 1:
        raise ValueError("trials must be positive")
    pairs = max(10, trials // 100)
    axis_trials = max(100, trials // 10)
    return [
        check_reference_constants(),
        check_resonance_curves(),
        check_algebraic_identities(random.Random(seed + 1), trials),
        check_unitarity(random.Random(seed + 2), trials),
        check_matching_equivalence(random.Random(seed + 3), trials),
        check_double_root_boundary(random.Random(seed + 4), pairs),
        check_lossy_quadrant(random.Random(seed + 5), trials),
        check_region_boundary(),
        check_small_v1_limits(),
        check_no_ss_anti_hermitian(random.Random(seed + 6), axis_trials),
        check_quaternion_algebra(random.Random(seed + 7)),
        check_decomposition_identity(random.Random(seed + 8), min(trials, 2000)),
        check_quartic_root_oracle(random.Random(seed + 9), trials),
        check_scan_claims(),
    ]


def build_notes() -> list[str]:
    ratios = small_v1_minus_ratios()
    return [
        ("reference case: the published strength " + REFERENCE_QUOTED_STRENGTH
         + " is inconsistent with its companion constants g2+=15/4, E+=2, "
           "g2-=5, E-=9/8; the pair (v1, v2) = (-0.5, 3) recovered from those "
           "constants reproduces all four exactly and is used throughout."),
        ("small-v1 limit: for fixed v2 > 0 the minus-branch energy behaves as "
         "2 v1^2 (measured E-/(2 v1^2) = "
         + ", ".join(f"{r:.6f}" for r in ratios)
         + " at v1 = -1e-3, -1e-4, -1e-5); the often-quoted v1^2/2 is a "
           "factor 4 low. Checks assert the derived 2 v1^2."),
        (f"junction models: the Conjugate and Continued readings of the "
         f"complex i-channel strength differ; at the fixed probe "
         f"(v1, v2, g2, E) = {MODE_PROBE} the reflection amplitudes differ "
         f"by |dr| = {mode_divergence_at_probe():.6e}."),
        ("region scans confirm numerically that feasible cells require "
         "v1 < 0 for v2 < 0 as well as for v2 > 0."),
    ]


def render_report(seed: int, trials: int, checks: list[CheckResult],
                  notes: list[str]) -> str:
    lines = ["quaternionic point-interaction verification",
             f"seed={seed} trials={trials}", ""]
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name.ljust(width)}  {c.detail}")
    lines.append("")
    lines.append("notes:")
    for note in notes:
        lines.append("  - " + note)
    n_pass = sum(c.passed for c in checks)
    lines.append("")
    lines.append(f"result: {'PASS' if n_pass == len(checks) else 'FAIL'} "
                 f"({n_pass}/{len(checks)} checks)")
    return "\n".join(lines) + "\n"


def run_and_render(seed: int, trials: int) -> tuple[bool, str]:
    checks = run_suite(seed, trials)
    text = render_report(seed, trials, checks, build_notes())
    return all(c.passed for c in checks), text
