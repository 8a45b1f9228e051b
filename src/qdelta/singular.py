"""Spectral-singularity machinery for the quaternionic point interaction.

|D(beta)|^2 is a monic quartic in beta. A singularity is a positive real
double root of that quartic, which pins g^2 to one of two closed-form
branches in (v1, v2); this module carries the quartic coefficients, the
discriminant factorization, the root-nature classifier, the closed-form
branches and the (v1, v2) feasibility regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scatter import DeltaPotential, uniform_grid

# Lower bound of v1/v2 for singularity support at v2 > 0; root of k^2+6k+1=0.
KAPPA = -3.0 + 2.0 * math.sqrt(2.0)

# |delta| below this fraction of the largest discriminant monomial counts as
# the double-root boundary; large enough to absorb the cancellation noise of
# the 16-term expansion, small enough to keep e.g. (-10,35,-50,24) (delta=144,
# largest monomial ~1.7e8) classified as four distinct real roots.
BOUNDARY_DELTA_RTOL = 1e-9

_EPS = float(np.finfo(float).eps)


def _pow(x, n):
    """x ** n through libm pow, as Python floats take it, also on arrays: numpy's
    power rounds some results differently, its float_power does not."""
    return np.float_power(x, n) if isinstance(x, np.ndarray) else x ** n


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients of the monic quartic beta^4 + b beta^3 + c beta^2 + d beta + e.

    Fields are floats, or arrays from a DeltaPotential of arrays. value_at,
    discriminant_bounded and the P/Q forms take either, entry for entry with
    the bits of the float evaluation.
    """

    b: float
    c: float
    d: float
    e: float

    def value_at(self, beta: float) -> float:
        return (((beta + self.b) * beta + self.c) * beta + self.d) * beta + self.e


def quartic_coeffs(p: DeltaPotential) -> QuarticCoeffs:
    """|D(beta)|^2 as a monic quartic in beta."""
    v1, v2, g2 = p.v1, p.v2, p.g_squared
    diff = v1 - v2
    b = 2.0 * diff
    c = 2.0 * (diff * diff)
    d = 2.0 * (g2 * (v1 + v2) + diff * (v1 * v1 + v2 * v2))
    e = g2 * g2 + 2.0 * g2 * (v1 * v1 - v2 * v2) + _pow(v1 * v1 + v2 * v2, 2)
    return QuarticCoeffs(b, c, d, e)


def _discriminant_terms(q: QuarticCoeffs) -> tuple[float, ...]:
    b, c, d, e = q.b, q.c, q.d, q.e
    b2, b3, b4 = _pow(b, 2), _pow(b, 3), _pow(b, 4)
    c2, c3, c4 = _pow(c, 2), _pow(c, 3), _pow(c, 4)
    d2, d3, d4 = _pow(d, 2), _pow(d, 3), _pow(d, 4)
    e2, e3 = _pow(e, 2), _pow(e, 3)
    return (
        256.0 * e3,
        -192.0 * b * d * e2,
        -128.0 * c2 * e2,
        144.0 * c * d2 * e,
        -27.0 * d4,
        144.0 * b2 * c * e2,
        -6.0 * b2 * d2 * e,
        -80.0 * b * c2 * d * e,
        18.0 * b * c * d3,
        16.0 * c4 * e,
        -4.0 * c3 * d2,
        -27.0 * b4 * e2,
        18.0 * b3 * c * d * e,
        -4.0 * b3 * d3,
        -4.0 * b2 * c3 * e,
        b2 * c2 * d2,
    )


def discriminant_expanded(q: QuarticCoeffs) -> float:
    """Quartic discriminant evaluated literally from its 16-term expansion."""
    return math.fsum(_discriminant_terms(q))


def discriminant_bounded(q: QuarticCoeffs) -> tuple[float, float]:
    """(sum, bound): the 16-term expansion summed in plain floating point, also
    over array coefficients, and a bound on its distance from
    discriminant_expanded.

    A running sum of 16 terms errs by at most about 15 u sum|t| (u = eps / 2)
    and fsum's correctly rounded sum by u |sum|; the bound, 30 u sum|t|,
    covers both with room for its own rounding.
    """
    terms = _discriminant_terms(q)
    return sum(terms), 15.0 * _EPS * sum(abs(t) for t in terms)


def discriminant_factored(p: DeltaPotential) -> tuple[float, float, float]:
    """(A, B, 64*A*B): the discriminant factors over this potential family.

    A = [g^4 + g^2 (v1^2 - v2^2) - 2 v1 v2 (v1 + v2)^2]^2 is a square, and B
    as a quadratic in g^2 has discriminant -64 v1^2 v2^2 <= 0, so both factors
    and hence the discriminant are non-negative for every real input.
    """
    v1, v2, g2 = p.v1, p.v2, p.g_squared
    s = v1 + v2
    bracket = g2 * g2 + g2 * (v1 * v1 - v2 * v2) - 2.0 * v1 * v2 * s * s
    a_factor = bracket * bracket
    b_factor = 4.0 * g2 * g2 + 4.0 * g2 * (v1 * v1 - v2 * v2) + _pow(v1 * v1 + v2 * v2, 2)
    return a_factor, b_factor, 64.0 * a_factor * b_factor


def pq_classifiers(q: QuarticCoeffs) -> tuple[float, float]:
    """P = 8c - 3b^2 and Q = 64e - 16c^2 + 16b^2 c - 16bd - 3b^4."""
    b, c, d, e = q.b, q.c, q.d, q.e
    p_val = 8.0 * c - 3.0 * b * b
    q_val = 64.0 * e - 16.0 * c * c + 16.0 * b * b * c - 16.0 * b * d - 3.0 * _pow(b, 4)
    return p_val, q_val


def pq_simplified(p: DeltaPotential) -> tuple[float, float]:
    """P and Q reduced over this potential family; must match the raw forms."""
    v1, v2, g2 = p.v1, p.v2, p.g_squared
    p_val = 4.0 * _pow(v1 - v2, 2)
    q_val = 16.0 * (4.0 * g2 * g2 + 4.0 * g2 * (v1 * v1 - v2 * v2) + _pow(v1 + v2, 4))
    return p_val, q_val


class RootNature(str, Enum):
    TWO_DISTINCT_REAL = "TwoDistinctReal"
    ALL_FOUR_REAL = "AllFourReal"
    NO_REAL = "NoReal"
    BOUNDARY_DOUBLE_ROOT = "BoundaryDoubleRoot"


def root_nature(q: QuarticCoeffs) -> RootNature:
    """Classify the real-root content of the quartic from its discriminant.

    The boundary verdict fires when the discriminant vanishes relative to its
    largest monomial; a non-negative quartic then has a real double root.
    """
    terms = _discriminant_terms(q)
    delta = math.fsum(terms)
    scale = max(1.0, max(abs(t) for t in terms))
    if abs(delta) <= BOUNDARY_DELTA_RTOL * scale:
        return RootNature.BOUNDARY_DOUBLE_ROOT
    if delta < 0.0:
        return RootNature.TWO_DISTINCT_REAL
    p_val, q_val = pq_classifiers(q)
    if p_val < 0.0 and q_val < 0.0:
        return RootNature.ALL_FOUR_REAL
    return RootNature.NO_REAL


class Branch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


class Reason(str, Enum):
    OK = "OK"
    NEGATIVE_G_SQUARED = "NegativeGSquared"
    NON_POSITIVE_BETA = "NonPositiveBeta"
    COMPLEX_SQRT = "ComplexSqrt"
    DEGENERATE_SUM = "DegenerateSum"


# Indexed by a branch's failed-check bits (1 NonPositiveBeta, 2 NegativeGSquared,
# 4 ComplexSqrt, 8 DegenerateSum): the highest set bit names the reason, so
# DegenerateSum takes precedence over ComplexSqrt over NegativeGSquared over
# NonPositiveBeta.
_REASONS = np.array([(Reason.OK, Reason.NON_POSITIVE_BETA, Reason.NEGATIVE_G_SQUARED,
                      Reason.COMPLEX_SQRT, Reason.DEGENERATE_SUM)[code.bit_length()]
                     for code in range(16)], dtype=object)


@dataclass(frozen=True)
class SSBranchSolution:
    """One closed-form singularity branch; infeasibility is data, not an error.

    Fields are Python scalars from ss_closed_form and arrays over the
    broadcast (v1, v2) from ss_branches.
    """

    branch: Branch
    g_squared: float | np.ndarray
    beta: float | np.ndarray
    energy: float | np.ndarray
    feasible: bool | np.ndarray
    reason: Reason | np.ndarray


def ss_branches(v1, v2) -> tuple[SSBranchSolution, SSBranchSolution]:
    """Both closed-form singularity branches, broadcast over arrays of (v1, v2).

    For s in {+1, -1}:
        g_s^2  = -(v1 + v2) ((v1 - v2) + s sqrt((v1 + v2)^2 + 4 v1 v2)) / 2
        beta_s = -(v1 - v2) - g_s^2 / (v1 + v2),    E_s = beta_s^2 / 2
    and the branch is feasible iff g_s^2 > 0 and beta_s > 0. A vanishing
    v1 + v2 forces g = 0 and is reported as DegenerateSum rather than
    fabricating a branch; g^2 = 0 itself means no quaternionic j, k part and
    is reported as NegativeGSquared. Both feasibility comparisons carry a
    scaled guard band so that rounding noise exactly on a boundary (e.g.
    beta = 0 at v1 = 0, v2 < 0) cannot flip the classification. For scalar
    (v1, v2) the reason is a Reason, not an array.
    """
    v1, v2 = np.broadcast_arrays(np.asarray(v1, dtype=float), np.asarray(v2, dtype=float))
    solutions = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(v1), np.abs(v2)))
        s_sum = v1 + v2
        degenerate = np.abs(s_sum) <= 1e-12 * scale
        disc = s_sum * s_sum + 4.0 * v1 * v2
        undefined = degenerate | (disc < 0.0)
        shared_code = undefined * np.uint8(4) | degenerate * np.uint8(8)
        root = np.sqrt(disc)
        for branch, sign in ((Branch.PLUS, 1.0), (Branch.MINUS, -1.0)):
            g2 = np.where(undefined, np.nan, -0.5 * s_sum * ((v1 - v2) + sign * root))
            beta = -(v1 - v2) - g2 / s_sum
            code = (shared_code | (g2 <= 1e-12 * scale * scale) * np.uint8(2)
                    | (beta <= 1e-12 * scale))
            solutions.append(SSBranchSolution(branch, g2, beta, 0.5 * beta * beta,
                                              code == 0, _REASONS[code]))
    return solutions[0], solutions[1]


def ss_closed_form(v1: float, v2: float) -> tuple[SSBranchSolution, SSBranchSolution]:
    """Both closed-form singularity branches for one strength pair (v1, v2)."""
    plus, minus = (SSBranchSolution(sol.branch, float(sol.g_squared), float(sol.beta),
                                    float(sol.energy), bool(sol.feasible), sol.reason)
                   for sol in ss_branches(v1, v2))
    return plus, minus


class RegionClass(str, Enum):
    BOTH_BRANCHES = "BothBranches"
    PLUS_ONLY = "PlusOnly"
    MINUS_ONLY = "MinusOnly"
    NONE = "None"


# Indexed by 2 * plus.feasible + minus.feasible.
_REGIONS = np.array([RegionClass.NONE, RegionClass.MINUS_ONLY,
                     RegionClass.PLUS_ONLY, RegionClass.BOTH_BRANCHES], dtype=object)


def region_of(plus_feasible, minus_feasible):
    """Region label from the two branch feasibility flags; flag arrays give a
    label array."""
    return _REGIONS[2 * plus_feasible + minus_feasible]


def classify_region(v1: float, v2: float) -> RegionClass:
    """Region label derived purely from the two branch feasibility flags."""
    plus, minus = ss_closed_form(v1, v2)
    return region_of(plus.feasible, minus.feasible)


@dataclass(frozen=True)
class RegionScan:
    """Branches and labels of a (v1, v2) grid as (n1, n2) arrays: cell (i, j)
    is (v1[i], v2[j]), so row-major order has v1 outermost."""

    v1: np.ndarray
    v2: np.ndarray
    classification: np.ndarray
    plus: SSBranchSolution
    minus: SSBranchSolution


def scan_region(v1_range: tuple[float, float], v2_range: tuple[float, float],
                n1: int, n2: int) -> RegionScan:
    """Classify every cell of the inclusive (v1, v2) grid in one array evaluation."""
    v1, v2 = uniform_grid(*v1_range, n1), uniform_grid(*v2_range, n2)
    plus, minus = ss_branches(v1[:, None], v2[None, :])
    return RegionScan(v1, v2, region_of(plus.feasible, minus.feasible), plus, minus)
