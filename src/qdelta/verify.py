"""Self-contained verification suites.

Every closed form is checked against an independent numerical oracle, every
algebraic identity against seeded random draws, and the report always states
the two documented inconsistencies in the published reference values for this
model. Reports are byte-identical for equal seeds: drawn check k draws from
stream(seed + k), which yields the numbers of random.Random(seed + k).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from . import oracle
from ._lazy import np
from .oracle import MatchMode
from .qalg import (ONE, I, J, K, Quaternion, as_complex, maximum, modulus,
                   power, qconj, qmul, symplectic_join, symplectic_split)
from .scatter import DeltaPotential, amplitudes, denominator, dr_di, sweep
from .singular import (EPS, KAPPA, QuarticCoeffs, Reason, RegionClass, RootNature,
                       discriminant_bounded, discriminant_expanded,
                       discriminant_factored, pq_classifiers, pq_simplified,
                       quartic_coeffs, region_of, root_nature, scan_region,
                       ss_branches, ss_closed_form, unit_scale)

# Published singularity pairs (g^2, beta) quoted for the reference interaction.
REFERENCE_PAIRS = ((3.75, 2.0), (5.0, 1.5))
# The interaction the same source quotes alongside them, which does not
# reproduce them; the pair recovered from the constants themselves does.
REFERENCE_QUOTED_STRENGTH = "-10 - 0.5i"

# Fixed probe where the Conjugate and Continued junction models must differ.
MODE_PROBE = (-0.5, 3.0, 3.75, 1.0)   # v1, v2, g^2, energy


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, problem: str | None, detail: str) -> CheckResult:
    """A failing check reports its first problem; a passing one, detail."""
    return CheckResult(name, problem is None, detail if problem is None else problem)


def check_reference_constants() -> CheckResult:
    """Re-derive the reference strengths from the published singularity pairs,
    then confirm every branch constant and a vanishing denominator."""
    name = "reference-constants"
    v1, v2 = oracle.potential_from_ss_pairs(*REFERENCE_PAIRS)
    if abs(v1 + 0.5) > 1e-12 or abs(v2 - 3.0) > 1e-12:
        return CheckResult(name, False, f"recovered strengths ({v1!r},{v2!r}) != (-0.5,3)")
    plus, minus = ss_closed_form(v1, v2)
    expected = ((plus.g_squared, 3.75), (minus.g_squared, 5.0),
                (plus.energy, 2.0), (minus.energy, 1.125),
                (plus.beta, 2.0), (minus.beta, 1.5))
    for got, want in expected:
        if abs(got - want) > 1e-12:
            return CheckResult(name, False, f"branch constant {got!r} != {want}")
    max_absd = 0.0
    for sol in (plus, minus):
        if not sol.feasible:
            return CheckResult(name, False,
                               f"{sol.branch.value} branch infeasible: {sol.reason.value}")
        pot = DeltaPotential.from_g_squared(v1, v2, sol.g_squared)
        absd = abs(denominator(pot, sol.beta))
        max_absd = max(max_absd, absd)
        if absd > 1e-12:
            return CheckResult(name, False,
                               f"|D| at {sol.branch.value} branch = {absd:.3e} > 1e-12")
    return CheckResult(name, True,
                       f"v1={v1:g} v2={v2:g} g2+={plus.g_squared:g} g2-={minus.g_squared:g} "
                       f"E+={plus.energy:g} E-={minus.energy:g} max|D|={max_absd:.3e}")


def check_resonance_curves() -> CheckResult:
    """Both branch sweeps must peak at the predicted energies and diverge
    beyond 1e6 within 1e-7 of them."""
    name = "resonance-curves"
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
                return CheckResult(name, False, f"{label} peak at E={energies[idx]:.6f}, "
                                                f"{off / h:.1f} grid steps from {e_ss}")
        res = amplitudes(pot, [e_ss - 1e-7, e_ss + 1e-7])
        for e_probe, big_r, big_t in np.transpose([res.energy, res.big_r, res.big_t]).tolist():
            if not (big_r > 1e6 and big_t > 1e6):
                return CheckResult(name, False, f"R,T=({big_r:.3e},{big_t:.3e}) "
                                                f"at E={e_probe!r} not > 1e6")
        details.append(f"g2={g2:g}: peak within {max(abs(energies[i_r] - e_ss), abs(energies[i_t] - e_ss)) / h:.2f} step of E={e_ss:g}")
    return CheckResult(name, True, "; ".join(details))


def stream(seed: int) -> np.random.RandomState:
    """numpy's MT19937 seeded as random.Random(seed) seeds it, so it draws the
    same doubles: init_by_array on the 32-bit words of |seed|, low word first
    (a list: numpy seeds one int otherwise). numpy.random loads on first use."""
    n = abs(seed)
    return np.random.RandomState([n >> k & 0xFFFFFFFF for k in range(0, n.bit_length() or 1, 32)])


# Draw shapes: each maps (rng, n) to columns of n draws, taken from rng in
# the order a draw-by-draw loop takes them. For u = rng.random_sample(),
# rng.uniform(a, b) is a + (b - a) u, as in random, and 1 - u is in (0, 1].

Draw = Callable[["np.random.RandomState", int], tuple[np.ndarray, ...]]


def _uniform(a: float, b: float, u: np.ndarray) -> np.ndarray:
    return a + (b - a) * u


def _draw_potentials(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, ...]:
    """(v1, v2, g^2, beta) on the draw box."""
    u = rng.random_sample(4 * n).reshape(n, 4)
    return (_uniform(-10.0, 10.0, u[:, 0]), _uniform(-10.0, 10.0, u[:, 1]),
            100.0 * (1.0 - u[:, 2]), 20.0 * (1.0 - u[:, 3]))


def _draw_at_energy(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, ...]:
    """(v1, v2, g^2, E) on the draw box, E = beta^2 / 2."""
    v1, v2, g2, beta = _draw_potentials(rng, n)
    return v1, v2, g2, 0.5 * beta * beta


def _draw_v2_zero(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, ...]:
    """(v1, 0, g^2, E): potentials of the probability-conserving v2 = 0
    family, and energies."""
    u = rng.random_sample(3 * n).reshape(n, 3)
    return (_uniform(-10.0, 10.0, u[:, 0]), np.zeros(n), 100.0 * (1.0 - u[:, 1]),
            0.5 * power(20.0 * (1.0 - u[:, 2]), 2.0))


def _draw_lossy(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(v1, v2), both uniform in [-10, 0)."""
    u = rng.random_sample(2 * n).reshape(n, 2)
    return -10.0 * (1.0 - u[:, 0]), -10.0 * (1.0 - u[:, 1])


def _draw_axis(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(v1, 0) with v1 uniform in [-10, 10)."""
    return rng.uniform(-10.0, 10.0, n), np.zeros(n)


def _draw_band(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(kappa v2 u, v2) with v2 uniform in (0.1, 10] and u in [0, 1): pairs
    inside the feasibility band."""
    u = rng.random_sample(2 * n).reshape(n, 2)
    v2 = 0.1 + 9.9 * (1.0 - u[:, 0])
    return KAPPA * v2 * u[:, 1], v2


def _uniform_columns(a: float, b: float, width: int) -> Draw:
    """The draw shape of width numbers, each uniform in [a, b)."""
    def draw(rng: np.random.RandomState, n: int) -> tuple[np.ndarray, ...]:
        return tuple(rng.uniform(a, b, (n, width)).T)
    return draw


# Three quaternions p, q, r, component by component.
_draw_quaternions = _uniform_columns(-1e3, 1e3, 12)
# (x, y) of z = x + y i.
_draw_complex = _uniform_columns(-1e3, 1e3, 2)
# Quartic coefficients (b, c, d, e).
_draw_quartics = _uniform_columns(-20.0, 20.0, 4)

# The batched checks draw and evaluate this many samples at a time, in RNG
# order, so that their memory does not grow with the trial count.
_BLOCK = 2048


def _blocks(rng: np.random.RandomState, trials: int, draw: Draw) -> Iterator[tuple[int, tuple]]:
    """(index of the first draw, columns) for consecutive blocks of draws."""
    for start in range(0, trials, _BLOCK):
        yield start, draw(rng, min(_BLOCK, trials - start))


def _first_failing_draw(rng: np.random.RandomState, trials: int, draw: Draw,
                        evaluate: Callable[..., Sequence]) -> str | None:
    """The message of the first failing draw among trials draws, or None.

    evaluate(start, *columns) returns one block's (failed, message) pairs for
    _first_failure, start being the index of its first draw. A failing block
    ends the draws and leaves rng at its end. A check with several stages
    chains their calls with `or`, so it stops at its first failing stage.
    """
    for start, columns in _blocks(rng, trials, draw):
        problem = _first_failure(evaluate(start, *columns))
        if problem is not None:
            return problem[1]
    return None


def _potential(v1: np.ndarray, v2: np.ndarray, g2: np.ndarray) -> DeltaPotential:
    """One DeltaPotential of arrays, each entry as from_g_squared builds it."""
    return DeltaPotential(v1, v2, np.sqrt(g2), 0.0)


def _first_failure(checks) -> tuple[int, str] | None:
    """For (failed, message) pairs over one block, the first draw n where any
    check fails and message(n) of the first check failing there; None if
    none does. The checks are listed in the order a draw-by-draw loop makes
    them on one draw."""
    failing = np.flatnonzero(np.any([failed for failed, _ in checks], axis=0))
    if not failing.size:
        return None
    n = int(failing[0])
    return n, next(message(n) for failed, message in checks if failed[n])


def _discriminant_gaps(coeffs: QuarticCoeffs,
                       delta_fact: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|delta_exp - delta_fact| and the gap allowed, per row; delta_exp is
    discriminant_expanded's fsum wherever the plain sum's error could flip
    the verdict."""
    b, c, dd, e = coeffs.b, coeffs.c, coeffs.d, coeffs.e
    b2, d2 = b * b, dd * dd
    monomials = maximum(np.abs(e * e * e) * 256.0, 27.0 * (d2 * d2), 27.0 * (b2 * b2) * e * e)

    def gaps(delta_exp):
        term_scale = maximum(monomials, np.abs(delta_exp), np.abs(delta_fact))
        return np.abs(delta_exp - delta_fact), np.maximum(1e-8, 1e-6 * term_scale)

    delta_exp, bound = discriminant_bounded(coeffs)
    gap, allowed = gaps(delta_exp)
    # The verdict gap > allowed moves by at most (1 + 1e-6) |delta_exp - fsum|,
    # plus the rounding of gap and allowed themselves.
    unsure = np.flatnonzero(np.abs(gap - allowed) <= 2.0 * (bound + EPS * allowed))
    delta_exp[unsure] = discriminant_expanded(QuarticCoeffs(*(x[unsure] for x in (b, c, dd, e))))
    return gaps(delta_exp)


def check_algebraic_identities(rng: np.random.RandomState, trials: int) -> CheckResult:
    """|D|^2 = Dr^2 + Di^2 = quartic(beta); discriminant = 64 A B; P, Q raw
    versus reduced; A >= 0 and B >= 0 throughout."""
    def identities(start, v1, v2, g2, beta):
        pot = _potential(v1, v2, g2)
        d = denominator(pot, beta)
        dsq = d.real * d.real + d.imag * d.imag
        d_r, d_i = dr_di(pot, beta)
        split_sq = d_r * d_r + d_i * d_i
        coeffs = quartic_coeffs(pot)
        quartic_val = coeffs.value_at(beta)
        tol = 1e-9 * maximum(1.0, dsq, split_sq, np.abs(quartic_val))
        a_factor, b_factor, delta_fact = discriminant_factored(pot)
        disc_gap, disc_allowed = _discriminant_gaps(coeffs, delta_fact)
        p_raw, q_raw = pq_classifiers(coeffs)
        p_simple, q_simple = pq_simplified(pot)
        b, c, dd, e = coeffs.b, coeffs.c, coeffs.d, coeffs.e
        p_scale = maximum(1.0, 8.0 * np.abs(c), 3.0 * b * b)
        q_scale = maximum(1.0, 64.0 * np.abs(e), 16.0 * c * c, 3.0 * (b * b * (b * b)),
                          16.0 * np.abs(b * dd), 16.0 * b * b * np.abs(c))
        return (
            ((np.abs(dsq - split_sq) > tol) | (np.abs(dsq - quartic_val) > tol),
             lambda n: f"|D|^2 identity broken at draw {start + n}: {dsq[n].item()!r} "
                       f"vs {split_sq[n].item()!r} vs {quartic_val[n].item()!r}"),
            (disc_gap > disc_allowed,
             lambda n: f"discriminant identity broken at draw {start + n}: "
                       f"{discriminant_expanded(coeffs)[n].item()!r} vs "
                       f"{delta_fact[n].item()!r}"),
            ((np.abs(p_raw - p_simple) > 1e-10 * p_scale)
             | (np.abs(q_raw - q_simple) > 1e-10 * q_scale),
             lambda n: f"P/Q reduction broken at draw {start + n}"),
            ((a_factor < 0.0) | (b_factor < 0.0),
             lambda n: f"negative discriminant factor at draw {start + n}: "
                       f"A={a_factor[n].item()!r} B={b_factor[n].item()!r}"),
        )
    return _result("algebraic-identities",
                   _first_failing_draw(rng, trials, _draw_potentials, identities),
                   f"{trials} draws, all identities hold")


def check_unitarity(rng: np.random.RandomState, trials: int) -> CheckResult:
    """R + T = 1 for every draw with v2 = 0 (probability-conserving family)."""
    worst = 0.0

    def unitarity(start, v1, v2, g2, energy):
        nonlocal worst
        res = amplitudes(_potential(v1, v2, g2), energy)
        err = np.abs(res.big_r + res.big_t - 1.0)
        worst = max(worst, float(err.max()))
        return ((err > 1e-10, lambda n: f"|R+T-1| = {err[n]:.3e} at draw {start + n}"),)
    problem = _first_failing_draw(rng, trials, _draw_v2_zero, unitarity)
    return _result("unitarity-v2-zero", problem, f"{trials} draws, worst |R+T-1| = {worst:.3e}")


def _oracle_agreement(mode: MatchMode, message: str):
    """The check of (v1, v2, g^2, E) draws that fails, with message, where the
    matching oracle in this mode disagrees with the closed forms off the
    singularities."""
    def agreement(start, v1, v2, g2, energy):
        pot = _potential(v1, v2, g2)
        closed = amplitudes(pot, energy)
        m = oracle.matching_solver(pot, energy, mode)
        # |got - want| <= 1e-9 max(1, |got|, |want|), squared: off the singular floor
        # |r|, |t| < ~1e13 in the draw box, so no square overflows; nan still fails.
        agree = np.ones(energy.shape, dtype=bool)
        for got, want in ((m.r, closed.r), (m.t, closed.t)):
            off, got2, want2 = (z.real * z.real + z.imag * z.imag for z in (got - want, got, want))
            agree &= off <= 1e-18 * maximum(1.0, got2, want2)
        return ((~closed.at_singularity & (m.at_singularity | ~agree),
                 lambda n: f"{message} at draw {start + n}"),)
    return agreement


def check_matching_equivalence(rng: np.random.RandomState, trials: int,
                               divergence: float) -> CheckResult:
    """Continued-mode matching equals the closed forms everywhere; Conjugate
    mode equals them on the v2 = 0 subfamily; the two modes must differ at the
    fixed probe, whose magnitude divergence (mode_divergence_at_probe()) is
    reported."""
    problem = (
        _first_failing_draw(rng, trials, _draw_at_energy, _oracle_agreement(
            MatchMode.CONTINUED, "Continued mode disagrees with closed form"))
        or _first_failing_draw(rng, trials, _draw_v2_zero, _oracle_agreement(
            MatchMode.CONJUGATE, "Conjugate mode disagrees on v2=0"))
        or (f"junction models coincide at probe: |dr| = {divergence:.3e}"
            if divergence <= 1e-12 else None))
    return _result("matching-equivalence", problem,
                   f"2x{trials} draws agree; model divergence at probe |dr| = {divergence:.6e}")


def mode_divergence_at_probe() -> float:
    v1, v2, g2, energy = MODE_PROBE
    pot = DeltaPotential.from_g_squared(v1, v2, g2)
    r_cont = oracle.matching_solver(pot, energy, MatchMode.CONTINUED).r
    r_conj = oracle.matching_solver(pot, energy, MatchMode.CONJUGATE).r
    return abs(r_cont - r_conj).item()


def _pair_at(v1: np.ndarray, v2: np.ndarray, n: int) -> str:
    return f"({v1[n].item()!r},{v2[n].item()!r})"


def check_double_root_boundary(rng: np.random.RandomState, pairs: int) -> CheckResult:
    """Plus-branch singularities in the lossy quadrant are genuine double
    roots: multiplicity 2 at beta+, A ~ 0, boundary verdict."""
    def double_roots(start, v1, v2):
        plus, _ = ss_branches(v1, v2)
        k, *unit = unit_scale(v1, v2)   # the potential at the certificate's unit scale
        pot = _potential(*unit, np.ldexp(np.where(plus.feasible, plus.g_squared, 1.0), -2 * k))
        coeffs = quartic_coeffs(pot)
        a_factor, _, _ = discriminant_factored(pot)
        a_large = a_factor > 1e-8 * np.maximum(1.0, np.square(np.square(pot.g_squared)))
        # numpy compares a bare str member as a string, unequal to every verdict.
        off_boundary = root_nature(coeffs) != np.array(RootNature.BOUNDARY_DOUBLE_ROOT, object)
        return (
            (~plus.feasible, lambda n: f"plus branch infeasible at {_pair_at(v1, v2, n)}"),
            (np.isnan(oracle.certify_double_root(v1, v2, plus)[0]),
             lambda n: f"no real double root at beta+={plus.beta[n].item()!r} for "
                       f"{_pair_at(v1, v2, n)}"),
            (a_large, lambda n: f"A = {a_factor[n]:.3e} not ~0 at {_pair_at(v1, v2, n)}"),
            (off_boundary, lambda n: f"verdict is not the boundary at {_pair_at(v1, v2, n)}"),
        )
    return _result("double-root-boundary",
                   _first_failing_draw(rng, pairs, _draw_lossy, double_roots),
                   f"{pairs} lossy-quadrant pairs confirmed")


def _regions(failed, name):
    """The check of (v1, v2) draws that fails where failed(plus, minus) holds
    for the pair's branches; name(v1, v2, n) names the pair in the message."""
    def regions(start, v1, v2):
        plus, minus = ss_branches(v1, v2)
        return ((failed(plus, minus),
                 lambda n: f"{name(v1, v2, n)} classified "
                           f"{region_of(plus.feasible[n], minus.feasible[n]).value}"),)
    return regions


def check_lossy_quadrant(rng: np.random.RandomState, trials: int) -> CheckResult:
    """Every strictly lossy pair (v1 < 0, v2 < 0) supports a singularity."""
    # PlusOnly or BothBranches exactly where the plus branch is feasible.
    problem = _first_failing_draw(rng, trials, _draw_lossy,
                                  _regions(lambda plus, _: ~plus.feasible, _pair_at))
    return _result("lossy-quadrant", problem,
                   f"{trials} draws, no region without a singularity")


def check_region_boundary() -> CheckResult:
    """The feasibility band at v2 = 3 ends exactly at v1 = kappa*v2."""
    name = "region-boundary"
    v2 = 3.0
    inside, outside = KAPPA * v2 + 1e-9, KAPPA * v2 - 1e-3
    plus_in, minus_in = ss_closed_form(inside, v2)
    if plus_in.reason is Reason.COMPLEX_SQRT or minus_in.reason is Reason.COMPLEX_SQRT:
        return CheckResult(name, False, "branch square root not real just inside the band")
    if region_of(plus_in.feasible, minus_in.feasible) is not RegionClass.BOTH_BRANCHES:
        return CheckResult(name, False, "inside point does not support both branches")
    plus_out, minus_out = ss_closed_form(outside, v2)
    if not (plus_out.reason is Reason.COMPLEX_SQRT and minus_out.reason is Reason.COMPLEX_SQRT):
        return CheckResult(name, False, "outside point does not report a complex square root")
    return CheckResult(name, True, f"band edge at v1 = kappa*3 = {KAPPA * 3:.12g} confirmed")


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
    name = "small-v1-limits"
    v2, v1s = 3.0, (-1e-3, -1e-4, -1e-5)
    errs = []
    for v1 in v1s:
        plus, _ = ss_closed_form(v1, v2)
        err = abs(plus.energy - 0.5 * v2 * v2)
        errs.append(err)
        if err > 10.0 * abs(v1):
            return CheckResult(name, False, f"|E+ - v2^2/2| = {err:.3e} > 10|v1| at v1={v1}")
    if not (errs[0] > errs[1] > errs[2]):
        return CheckResult(name, False, f"plus-branch limit error not decreasing: {errs}")
    ratios = small_v1_minus_ratios(v2, v1s)
    for v1, ratio in zip(v1s, ratios):
        if not (0.99 <= ratio <= 1.01):
            return CheckResult(name, False, f"E-/(2 v1^2) = {ratio:.6f} at v1={v1}")
    return CheckResult(name, True,
                       "E+ -> v2^2/2; E-/(2 v1^2) = " + ", ".join(f"{r:.6f}" for r in ratios))


def check_no_ss_anti_hermitian(rng: np.random.RandomState, trials: int) -> CheckResult:
    """No singularity anywhere on the v2 = 0 axis."""
    problem = _first_failing_draw(rng, trials, _draw_axis, _regions(
        lambda plus, minus: plus.feasible | minus.feasible,
        lambda v1, _, n: f"v1={v1[n].item()!r}, v2=0"))
    return _result("no-ss-anti-hermitian", problem,
                   f"{trials} draws on the v2=0 axis, none singular")


def _differs(p: Quaternion, q: Quaternion) -> np.ndarray:
    """p != q for quaternions of arrays, entry by entry."""
    return (p.w != q.w) | (p.x != q.x) | (p.y != q.y) | (p.z != q.z)


_UNIT_TABLE = {
    (I, I): -ONE, (J, J): -ONE, (K, K): -ONE,
    (I, J): K, (J, I): -K, (J, K): I, (K, J): -I, (K, I): J, (I, K): -J,
}


def check_quaternion_algebra(rng: np.random.RandomState) -> CheckResult:
    """Unit table, norm multiplicativity, associativity, conjugation and the
    exact split/join round trip."""
    def identities(start, *components):
        p, q, r = (Quaternion(*components[k:k + 4]) for k in (0, 4, 8))
        pn, qn = p.norm(), q.norm()
        return (
            (np.abs(qmul(p, q).norm() - pn * qn) > 1e-12 * np.maximum(1.0, pn * qn),
             lambda _: "norm not multiplicative"),
            ((qmul(qmul(p, q), r) - qmul(p, qmul(q, r))).norm()
             > 1e-12 * np.maximum(1.0, pn * qn * r.norm()),
             lambda _: "product not associative"),
            (_differs(qconj(qconj(p)), p), lambda _: "conjugation not an involution"),
            (_differs(symplectic_join(*symplectic_split(p)), p),
             lambda _: "split/join round trip not exact"),
        )

    def j_conjugates(start, x, y):
        lhs = qmul(J, Quaternion(x, y, 0.0, 0.0))
        rhs = qmul(Quaternion(x, -y, 0.0, 0.0), J)
        return ((_differs(lhs, rhs), lambda _: "j z != conj(z) j"),)
    problem = (
        ("unit multiplication table violated"
         if any(qmul(p, q) != want for (p, q), want in _UNIT_TABLE.items()) else None)
        or _first_failing_draw(rng, 500, _draw_quaternions, identities)
        or _first_failing_draw(rng, 500, _draw_complex, j_conjugates))
    return _result("quaternion-algebra", problem, "500 draws per identity")


def check_decomposition_identity(rng: np.random.RandomState, trials: int) -> CheckResult:
    """Complex denominator equals Dr + i Di to 1e-12 absolute on the draw box."""
    def decomposition(start, v1, v2, g2, beta):
        pot = _potential(v1, v2, g2)
        d = denominator(pot, beta)
        d_r, d_i = dr_di(pot, beta)
        off = modulus(d - as_complex(d_r, d_i))
        return ((off > 1e-12, lambda n: f"decomposition off by {off[n]:.3e} "
                                        f"at draw {start + n}"),)
    return _result("decomposition-identity",
                   _first_failing_draw(rng, trials, _draw_potentials, decomposition),
                   f"{trials} draws within 1e-12")


def _ascending(z: np.ndarray) -> np.ndarray:
    """Each row of z sorted by (real, imag)."""
    return np.take_along_axis(z, np.lexsort((z.imag, z.real)), axis=1)


def check_quartic_root_oracle(rng: np.random.RandomState, trials: int) -> CheckResult:
    """Random quartics reconstruct from their roots; every feasible branch
    has a certified double root at its beta."""
    n_coeff, n_branch = min(trials, 300), min(trials, 100)

    def reconstruction(start, *coeffs):
        found = oracle.quartic_roots(QuarticCoeffs(*coeffs))
        return (
            (~found.reconstructs, found.require),   # raises NumericalError
            (np.any(_ascending(found.roots.conj()) != found.roots, axis=1),
             lambda n: f"root set not conjugate-closed at draw {start + n}"),
        )

    def branch_betas(start, v1, v2):
        return [(sol.feasible & np.isnan(oracle.certify_double_root(v1, v2, sol)[0]),
                 lambda n, sol=sol: f"branch beta {sol.beta[n].item()!r} missing from roots "
                                    f"at {_pair_at(v1, v2, n)}")
                for sol in ss_branches(v1, v2)]
    problem = (_first_failing_draw(rng, n_coeff, _draw_quartics, reconstruction)
               or _first_failing_draw(rng, n_branch, _draw_band, branch_betas))
    return _result("quartic-root-oracle", problem,
                   f"{n_coeff} reconstructions, {n_branch} branch root checks")


def check_scan_claims() -> CheckResult:
    """Numerical confirmation of the feasibility-region claims: every feasible
    cell has v1 < 0, and the strictly positive quadrant is empty."""
    name = "region-scan-claims"
    scan = scan_region((-10.0, 10.0), (-10.0, -0.25), 41, 20)
    # A cell's label is not None exactly where a branch is feasible.
    bad = np.argwhere((scan.plus.feasible | scan.minus.feasible) & (scan.v1[:, None] >= 0.0))
    if bad.size:
        i, j = bad[0]
        return CheckResult(name, False, f"feasible cell with v1 = {float(scan.v1[i])!r} >= 0 "
                                        f"at v2 = {float(scan.v2[j])!r}")
    pos = scan_region((0.1, 1.0), (0.1, 1.0), 5, 5)
    if (pos.plus.feasible | pos.minus.feasible).any():
        return CheckResult(name, False, "feasible cell in the strictly positive quadrant")
    return CheckResult(name, True, "feasible cells require v1 < 0 on both scanned strips")


def run_suite(seed: int, trials: int, divergence: float) -> list[CheckResult]:
    """All checks, each on an independently seeded stream; divergence is
    mode_divergence_at_probe(), which the matching check reports."""
    if trials < 1:
        raise ValueError("trials must be positive")
    pairs = max(10, trials // 100)
    axis_trials = max(100, trials // 10)
    return [
        check_reference_constants(),
        check_resonance_curves(),
        check_algebraic_identities(stream(seed + 1), trials),
        check_unitarity(stream(seed + 2), trials),
        check_matching_equivalence(stream(seed + 3), trials, divergence),
        check_double_root_boundary(stream(seed + 4), pairs),
        check_lossy_quadrant(stream(seed + 5), trials),
        check_region_boundary(),
        check_small_v1_limits(),
        check_no_ss_anti_hermitian(stream(seed + 6), axis_trials),
        check_quaternion_algebra(stream(seed + 7)),
        check_decomposition_identity(stream(seed + 8), min(trials, 2000)),
        check_quartic_root_oracle(stream(seed + 9), trials),
        check_scan_claims(),
    ]


def build_notes(divergence: float) -> list[str]:
    """The report's notes; divergence is mode_divergence_at_probe()."""
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
         f"by |dr| = {divergence:.6e}."),
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
    divergence = mode_divergence_at_probe()
    checks = run_suite(seed, trials, divergence)
    text = render_report(seed, trials, checks, build_notes(divergence))
    return all(c.passed for c in checks), text
