"""Independent numerical cross-checks for the closed forms, none of which
reuses the closed-form amplitude or branch expressions: a general quartic root
solver (one eigenvalue solve over a stack of companion matrices), a certificate
of each singularity branch's double root, a direct minimiser of |D(beta)|^2, and
a first-principles solver of the junction conditions, a 4x4 complex linear
system from the complex-pair split of the wave function, solved over arrays by
exact elimination and Cramer's rule into numerators and a determinant, which
scatter.scattering_result divides, flags and fills as for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qalg import cmul, maximum, modulus
from .scatter import (DeltaPotential, ScatteringResult, beta_of, denominator,
                      scattering_result)
from .singular import EPS, QuarticCoeffs, SSBranchSolution, math_of, unit_scale


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its required accuracy."""


_RECONSTRUCT_GUARD = 1e-6
DOUBLE_ROOT_RTOL = 1e-6


@dataclass(frozen=True)
class RootArrays:
    """quartic_roots' result: row n holds the four roots of quartic n,
    ascending by (real, imag), and whether they reconstruct the quartic."""

    roots: np.ndarray
    reconstructs: np.ndarray

    def require(self, n: int) -> None:
        """Raise NumericalError if row n fails to reconstruct its quartic."""
        if not self.reconstructs[n]:
            raise NumericalError("root set fails to reconstruct the quartic")


_SUBDIAGONAL = np.eye(4, k=-1)


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of each row (b, c, d, e) of
    coeffs, from one solve over the stacked matrices."""
    comp = np.empty((len(coeffs), 4, 4))
    comp[:] = _SUBDIAGONAL
    comp[:, :, 3] = -coeffs[:, ::-1]
    return np.linalg.eigvals(comp).astype(complex, copy=False)


def _reconstructs(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per row, whether the roots re-expand to the quartic within the guard.

    prod (x - z_k) is formed by one multiply-accumulate per root in numpy's
    complex arithmetic, not CPython's rounding: the residual only meets the
    guard's 1e-6 tolerance, which absorbs the difference.
    """
    got = np.zeros((len(z), 5), dtype=complex)
    got[:, 0] = 1.0
    for k in range(4):
        got[:, 1:k + 2] -= z[:, k, None] * got[:, :k + 1]
    top = modulus(z).max(axis=1)
    top *= top
    scale = maximum(1.0, np.abs(coeffs).max(axis=1), top * top)
    off = modulus(got[:, 1:] - coeffs) > _RECONSTRUCT_GUARD * scale[:, None]
    return ~off.any(axis=1)


def quartic_roots(q: QuarticCoeffs) -> RootArrays:
    """All four roots of each monic quartic over q's broadcast fields,
    flattened to rows, as companion-matrix eigenvalues: one eigenvalue solve
    over the stack of companion matrices, each row sorted by (real, imag).

    The real eigensolver returns complex roots in exact conjugate pairs and
    real roots with imaginary part 0.0. Each row is checked by re-expansion
    against a tolerance (see _reconstructs).
    """
    coeffs = np.array(np.broadcast_arrays(q.b, q.c, q.d, q.e), dtype=float).reshape(4, -1).T
    if not np.isfinite(coeffs).all():
        raise ValueError("coefficients must be finite")
    z = _companion_roots(coeffs)
    z = np.take_along_axis(z, np.lexsort((z.imag, z.real)), axis=1)
    return RootArrays(z, _reconstructs(z, coeffs))


def certify_double_root(v1, v2, sol: SSBranchSolution):
    """(radius, root) of the double root of |D|^2 at the closed-form beta of branch
    sol of (v1, v2), on floats or arrays (math_of); nan, nan where it is refused.

    At unit scale (unit_scale, exact), Dr(beta + w) = Dr0 + Dr1 w + w^2 and
    Di(beta + w) = Di0 + s w give |D|^2 = c0 + c1 w + c2 w^2 + c3 w^3 + w^4. Pellet's
    test, |c2| r^2 > |c0| + |c1| r + |c3| r^3 + r^4 on bounds that cover every rounding,
    proves that the exact quartic of the scaled floats has two roots within r of
    beta; it must pass at r <= DOUBLE_ROOT_RTOL beta. root is the Newton point of
    the derivative, beta - c1 / (2 c2); both are scaled back by 2^k.
    """
    xp = math_of(v1, v2)
    k, v1, v2 = unit_scale(v1, v2)
    with xp.errstate(invalid="ignore", over="ignore", divide="ignore"):
        beta, g2 = xp.ldexp(sol.beta, -k), xp.ldexp(sol.g_squared, -2 * k)
        a, s, m = v1 - v2, v1 + v2, abs(v1) + abs(v2)
        dr1, dr0, di0 = 2.0 * beta + a, (beta + a) * beta - 2.0 * v1 * v2, s * beta + (g2 + a * s)
        c1, c2 = 2.0 * (dr0 * dr1 + di0 * s), dr1 * dr1 + s * s + 2.0 * dr0
        # Each of dr1, dr0, di0 and c2 rounds n <= 5 times on a path, so it errs by at most
        # gamma_n < 3 eps times the same sum of |terms| (Higham, ch. 3); the margins cover
        # those sums' rounding. t_i >= 1/4 keeps a certified r above 1e-18: no underflow.
        t1, t0, t_i = 2.0 * beta + m, (beta + m) * beta + 2.0 * abs(v1 * v2), m * beta + g2 + m * m
        big1, big0, big_i, big_s = (abs(x) + 4.0 * EPS * t for x, t in (
            (dr1, t1), (dr0, t0), (di0, t_i), (s, m)))
        # |c0| <= top0, |c1| <= top1, |c3| <= 2 big1; c2 >= low2 > 0, or nan refuses.
        top0, top1 = big0 * big0 + big_i * big_i, 2.0 * (big0 * big1 + big_i * big_s)
        low2 = c2 - 6.0 * EPS * (t1 * t1 + m * m + 2.0 * t0)
        c2, low2 = (xp.where(low2 > 0.0, x, math.nan) for x in (c2, low2))
        # At r, (low2 / 2) r^2 = top1 r + top0: low2 r^2 / 2 is left for r^3 and r^4.
        r = (top1 + xp.sqrt(top1 * top1 + 2.0 * low2 * top0)) / low2
        rest = (top0 + r * (top1 + r * r * (2.0 * big1 + r))) * (1.0 + 16.0 * EPS)
        ok = sol.feasible & (r <= DOUBLE_ROOT_RTOL * beta) & (low2 * r * r > rest)
        return (xp.where(ok, xp.ldexp(r, k), math.nan),
                xp.where(ok, xp.ldexp(beta - c1 / (2.0 * c2), k), math.nan))


_GRID_POINTS = 10_000
_REFINE_WIDTH = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_dsq(p: DeltaPotential, beta_max: float | None = None) -> tuple[float, float]:
    """Global minimum of |D(beta)|^2 over (0, beta_max].

    Dense grid first (the quartic has at most two interior minima, which a
    10^4-point grid cannot miss at this scale), then golden-section refinement
    of the best bracket down to width 1e-12.
    """
    if beta_max is None:
        beta_max = 10.0 * (1.0 + max(abs(p.v1), abs(p.v2), math.sqrt(p.g_squared)))
    if beta_max <= 0.0:
        raise ValueError("beta_max must be positive")

    def dsq(beta):
        d = denominator(p, beta)
        return d.real * d.real + d.imag * d.imag

    grid = beta_max * np.arange(1.0, _GRID_POINTS + 1.0) / _GRID_POINTS
    with np.errstate(over="ignore", invalid="ignore"):   # inf and nan, as on floats
        vals = dsq(grid)
    k, xs, vals = int(np.argmin(vals)), grid.tolist(), vals.tolist()
    lo = xs[k - 1] if k > 0 else xs[0] / 2.0
    hi = xs[k + 1] if k + 1 < _GRID_POINTS else beta_max
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = dsq(x1), dsq(x2)
    while hi - lo > _REFINE_WIDTH:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = dsq(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = dsq(x2)
    best = min((vals[k], xs[k]), (f1, x1), (f2, x2))
    return best[1], best[0]


class MatchMode(str, Enum):
    CONJUGATE = "Conjugate"
    CONTINUED = "Continued"


def matching_solver(p: DeltaPotential, energy, mode: MatchMode) -> ScatteringResult:
    """Solve the junction conditions at the interaction point from scratch,
    broadcast over p's fields and the energies.

    The wave function splits into complex channels psi = psi1 + j*psi2 with
    the scattering ansatz

        psi1 = exp(i beta x) + r exp(-i beta x)  (x < 0),   t exp(i beta x)   (x > 0)
        psi2 = rt exp(beta x)                    (x < 0),   tt exp(-beta x)   (x > 0)

    (the j channel carries the opposite effective energy, hence evanescent).
    Continuity of both channels and the derivative-jump conditions

        (1/2) d psi1' = V1 psi1(0) - (V3 - i V2) psi2(0),   V1 = v1 + i v2,
        (1/2) d psi2' = cj psi2(0) + (V3 + i V2) psi1(0)

    close a 4x4 complex linear system over x = (r, t, rt, tt). Conjugate mode
    takes cj = conj(V1), the literal real-quaternion interaction; Continued
    mode takes cj = V1, the analytic continuation that the closed forms solve.

        [ 1         -1              0        0           ]       [ -1       ]
        [ 0          0              1       -1           ] x  =  [  0       ]
        [ i beta/2   i beta/2 - V1  0        V3 - i V2   ]       [ i beta/2 ]
        [ 0          V3 + i V2      beta/2   beta/2 + cj ]       [  0       ]

    The continuity rows give t = 1 + r and tt = rt exactly. The 2x2 system left,

        [ i beta - V1   V3 - i V2 ] (r, rt) = (V1, -(V3 + i V2)),
        [ V3 + i V2     beta + cj ]

    has determinant det2 = -det4 (i D in Continued mode), whose modulus is the
    result's abs_d, and Cramer's rule gives r and t their own numerators. All
    of it rounds as CPython's complex arithmetic does, so each row equals its
    one system's evaluation bit for bit.
    """
    v1, v2, cap_v2, cap_v3, energy = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p.v1, p.v2, p.cap_v2, p.cap_v3, energy)))
    beta = beta_of(energy)
    return scattering_result(energy, beta, *_cramer(v1, v2, cap_v2, cap_v3, beta, mode))


def _cramer(v1, v2, cap_v2, cap_v3, beta, mode: MatchMode):
    """matching_solver's (r_num, t_num, det2), as (re, im) pairs. Its
    elimination temporaries are freed when it returns, before
    scattering_result allocates the quotients."""
    # The real-quaternion strength is i (v1 + i v2) + cap_v2 j + cap_v3 k
    # = -v2 + v1 i + cap_v2 j + cap_v3 k; (a_ch, b_ch) is its qalg.symplectic_split.
    a_ch, b_ch = (-v2, v1), (cap_v2, -cap_v3)
    v1c = cmul((-0.0, -1.0), a_ch)                 # i-channel strength v1 + i v2
    c12 = cmul((-0.0, -1.0), (b_ch[0], -b_ch[1]))  # j-wave drive felt by the i channel: V3 - i V2
    c21 = cmul((0.0, 1.0), b_ch)                   # i-wave drive felt by the j channel: V3 + i V2
    cj = (v1c[0], -v1c[1]) if mode is MatchMode.CONJUGATE else v1c
    # Overflowing entries give inf and nan rows, which callers report.
    with np.errstate(over="ignore", invalid="ignore"):
        i_beta = cmul((0.0, 1.0), (beta, 0.0))
        lead = (i_beta[0] - v1c[0], i_beta[1] - v1c[1])   # i beta - V1
        diag = (beta + cj[0], 0.0 + cj[1])                # beta + cj
        (lr, li), (vr, vi), (cr, ci) = cmul(lead, diag), cmul(v1c, diag), cmul(c12, c21)
        return (vr + cr, vi + ci), cmul(i_beta, diag), (lr - cr, li - ci)


def potential_from_ss_pairs(pair_a: tuple[float, float],
                            pair_b: tuple[float, float]) -> tuple[float, float]:
    """Recover (v1, v2) from two observed singularity pairs (g^2, beta).

    The betas are the roots of the real part beta^2 + beta(v1 - v2) - 2 v1 v2, so
    v1 - v2 = -(beta_a + beta_b) and v1 v2 = -beta_a beta_b / 2, which leave two
    candidates for v2 with discriminant beta_a^2 + beta_b^2; the imaginary-part
    conditions pick one. Raises NumericalError for equal betas and when no
    candidate satisfies all four conditions.
    """
    (g2_a, beta_a), (g2_b, beta_b) = pair_a, pair_b
    if beta_a == beta_b:
        raise NumericalError("equal betas do not determine the strength pair")
    diff, root = -(beta_a + beta_b), math.hypot(beta_a, beta_b)
    candidates = []
    for v2 in ((-diff + root) / 2.0, (-diff - root) / 2.0):
        v1 = v2 + diff
        # The larger of |Dr| and |Di| at the two betas.
        resid = max(max(abs(beta * beta + beta * (v1 - v2) - 2.0 * v1 * v2),
                        abs(v1 * v1 - v2 * v2 + beta * (v1 + v2) + g2))
                    for g2, beta in (pair_a, pair_b))
        candidates.append((resid, v1, v2))
    resid, v1, v2 = min(candidates, key=lambda cand: cand[0])
    scale = max(1.0, beta_a * beta_a, beta_b * beta_b, abs(g2_a), abs(g2_b))
    if resid > 1e-9 * scale:
        raise NumericalError("inputs are inconsistent with a single strength pair")
    return v1, v2
