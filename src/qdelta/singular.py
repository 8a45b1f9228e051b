"""Spectral-singularity machinery for the quaternionic point interaction.

|D(beta)|^2 is a monic quartic in beta. A singularity is a positive real
double root of that quartic, which pins g^2 to one of two closed-form
branches in (v1, v2); this module carries the quartic coefficients, the
discriminant factorization, the root-nature classifier, the closed-form
branches and the (v1, v2) feasibility regions.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

from ._lazy import np
from .scatter import DeltaPotential, uniform_grid

# Lower bound of v1/v2 for singularity support at v2 > 0; root of k^2+6k+1=0.
KAPPA = -3.0 + 2.0 * math.sqrt(2.0)

# |delta| below this fraction of the largest discriminant monomial counts as
# the double-root boundary; large enough to absorb the cancellation noise of
# the 16-term expansion, small enough to keep e.g. (-10,35,-50,24) (delta=144,
# largest monomial ~1.7e8) classified as four distinct real roots.
BOUNDARY_DELTA_RTOL = 1e-9

EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients of the monic quartic beta^4 + b beta^3 + c beta^2 + d beta + e.

    Fields are floats, or arrays from a DeltaPotential of arrays. value_at,
    both discriminant sums, the P/Q forms and root_nature take either, entry
    for entry with the bits of the float evaluation.
    """

    b: float
    c: float
    d: float
    e: float

    def value_at(self, beta: float) -> float:
        return (((beta + self.b) * beta + self.c) * beta + self.d) * beta + self.e


def quartic_coeffs(p: DeltaPotential) -> QuarticCoeffs:
    """|D(beta)|^2 = Dr^2 + Di^2 as a monic quartic in beta, from Dr = beta^2 +
    a beta + dr0 and Di = s beta + di0, so that e = dr0^2 + di0^2 cannot cancel."""
    v1, v2, g2 = p.v1, p.v2, p.g_squared
    a, s, dr0 = v1 - v2, v1 + v2, -2.0 * v1 * v2
    di0 = g2 + a * s
    return QuarticCoeffs(2.0 * a, 2.0 * (a * a), 2.0 * (a * dr0 + s * di0),
                         dr0 * dr0 + di0 * di0)


def _discriminant_terms(q: QuarticCoeffs) -> tuple[float, ...]:
    b, c, d, e = q.b, q.c, q.d, q.e
    b2, c2, d2, e2 = b * b, c * c, d * d, e * e
    b3, c3, d3, e3 = b2 * b, c2 * c, d2 * d, e2 * e
    b4, c4, d4 = b2 * b2, c2 * c2, d2 * d2
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


def discriminant_expanded(q: QuarticCoeffs) -> float | np.ndarray:
    """Quartic discriminant evaluated literally from its 16-term expansion and
    summed exactly; array coefficients give one sum per entry."""
    return _exact_sum(np.broadcast_arrays(*_discriminant_terms(q)))


def _exact_sum(terms: list[np.ndarray]) -> float | np.ndarray:
    """math.fsum of the terms, entry by entry; a float for 0-d terms."""
    sums = [math.fsum(row) for row in np.stack(terms, axis=-1).reshape(-1, len(terms)).tolist()]
    return sums[0] if terms[0].ndim == 0 else np.reshape(sums, terms[0].shape)


def discriminant_bounded(q: QuarticCoeffs) -> tuple[float, float]:
    """(sum, bound): the 16-term expansion summed in plain floating point, also
    over array coefficients, and a bound on its distance from
    discriminant_expanded.

    A running sum of 16 terms errs by at most about 15 u sum|t| (u = eps / 2)
    and fsum's correctly rounded sum by u |sum|; the bound, 30 u sum|t|,
    covers both with room for its own rounding.
    """
    terms = _discriminant_terms(q)
    return sum(terms), 15.0 * EPS * sum(abs(t) for t in terms)


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
    m = v1 * v1 + v2 * v2
    b_factor = 4.0 * g2 * g2 + 4.0 * g2 * (v1 * v1 - v2 * v2) + m * m
    return a_factor, b_factor, 64.0 * a_factor * b_factor


def pq_classifiers(q: QuarticCoeffs) -> tuple[float, float]:
    """P = 8c - 3b^2 and Q = 64e - 16c^2 + 16b^2 c - 16bd - 3b^4."""
    b, c, d, e = q.b, q.c, q.d, q.e
    p_val = 8.0 * c - 3.0 * b * b
    q_val = 64.0 * e - 16.0 * c * c + 16.0 * b * b * c - 16.0 * b * d - 3.0 * (b * b * (b * b))
    return p_val, q_val


def pq_simplified(p: DeltaPotential) -> tuple[float, float]:
    """P and Q reduced over this potential family; must match the raw forms."""
    v1, v2, g2 = p.v1, p.v2, p.g_squared
    s2 = (v1 + v2) * (v1 + v2)
    p_val = 4.0 * (v1 - v2) * (v1 - v2)
    q_val = 16.0 * (4.0 * g2 * g2 + 4.0 * g2 * (v1 * v1 - v2 * v2) + s2 * s2)
    return p_val, q_val


class RootNature(str, Enum):
    TWO_DISTINCT_REAL = "TwoDistinctReal"
    ALL_FOUR_REAL = "AllFourReal"
    NO_REAL = "NoReal"
    BOUNDARY_DOUBLE_ROOT = "BoundaryDoubleRoot"


# Indexed by a quartic's verdict bits (1 P < 0 and Q < 0, 2 delta < 0,
# 4 delta ~ 0): the highest set bit names the verdict.
_NATURES = tuple((RootNature.NO_REAL, RootNature.ALL_FOUR_REAL, RootNature.TWO_DISTINCT_REAL,
                  RootNature.BOUNDARY_DOUBLE_ROOT)[code.bit_length()] for code in range(8))


@functools.cache
def _objects(table: tuple) -> np.ndarray:
    return np.array(table, dtype=object)


def _entry(table: tuple, code):
    """table[code] for an int code; an object array of entries for a code array."""
    return table[code] if isinstance(code, int) else _objects(table)[code]


def root_nature(q: QuarticCoeffs) -> RootNature | np.ndarray:
    """Classify the real-root content of the quartic from its discriminant, an
    object array of verdicts for array coefficients. The boundary verdict fires
    when the discriminant vanishes relative to its largest monomial, at any
    scale; a non-negative quartic then has a real double root."""
    terms = np.broadcast_arrays(*_discriminant_terms(q))
    delta = _exact_sum(terms)
    p_val, q_val = pq_classifiers(q)
    code = ((p_val < 0.0) & (q_val < 0.0) | (delta < 0.0) * np.uint8(2)
            | (abs(delta) <= BOUNDARY_DELTA_RTOL * np.max(np.abs(terms), axis=0)) * np.uint8(4))
    return _entry(_NATURES, code)


class Branch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


class Reason(str, Enum):
    OK = "OK"
    NON_POSITIVE_BETA = "NonPositiveBeta"
    NEGATIVE_G_SQUARED = "NegativeGSquared"
    ZERO_G_SQUARED = "ZeroGSquared"
    COMPLEX_SQRT = "ComplexSqrt"
    DEGENERATE_SUM = "DegenerateSum"


# Indexed by a branch's failed-check bits (1 NonPositiveBeta, 2 g^2 <= 0,
# 4 g^2 == 0, 8 ComplexSqrt, 16 DegenerateSum): the highest set bit names the
# reason, in Reason's order, so DegenerateSum takes precedence over ComplexSqrt
# over ZeroGSquared over NegativeGSquared over NonPositiveBeta.
_REASONS = tuple(list(Reason)[code.bit_length()] for code in range(32))


@dataclass(frozen=True)
class SSBranchSolution:
    """One closed-form singularity branch; infeasibility is data, not an error.

    Fields are Python scalars for a pair of floats and arrays over the broadcast
    (v1, v2) for arrays; code holds the failed-check bits, which reason names
    only when read, so a grid builds no Reason array.
    """

    branch: Branch
    g_squared: float | np.ndarray
    beta: float | np.ndarray
    energy: float | np.ndarray
    feasible: bool | np.ndarray
    code: int | np.ndarray

    @property
    def reason(self) -> Reason | np.ndarray:
        return _entry(_REASONS, self.code)


def math_of(*values):
    """FloatMath if every value is a Python float, else numpy; see FloatMath."""
    return FloatMath if all(isinstance(v, float) for v in values) else np


def _ldexp(x: float, k: int) -> float:
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


# The numpy functions that ss_branches, unit_scale and oracle.certify_double_root
# call through math_of, picked once per call, on Python floats, with numpy's results
# also where math raises: ldexp overflows to +-inf, the sqrt of a negative is nan.
FloatMath = SimpleNamespace(
    uint8=int, frexp=math.frexp, copysign=math.copysign, ldexp=_ldexp,
    errstate=lambda **_: contextlib.nullcontext(),
    where=lambda condition, x, y: x if condition else y,
    maximum=lambda x, y: x if x >= y or x != x else y,
    sqrt=lambda x: math.sqrt(x) if x >= 0.0 else math.nan)


def unit_scale(v1, v2):
    """(k, 2^-k v1, 2^-k v2), the larger |2^-k v| in [0.5, 1); exact, broadcast."""
    xp = math_of(v1, v2)
    k = xp.frexp(xp.maximum(abs(v1), abs(v2)))[1]
    return k, xp.ldexp(v1, -k), xp.ldexp(v2, -k)


def unit_scale_underflows(v1, v2):
    """Whether unit_scale takes the smaller of two nonzero strengths below 2^-1022,
    the least normal float, where it loses bits and the branches would be
    decided for another pair; broadcast. With |v| = m 2^e, m in [0.5, 1), the
    smaller scales to m 2^(e_small - e_large), below 2^-1022 iff the exponents
    differ by more than 1021."""
    xp = math_of(v1, v2)
    exponent_gap = abs(xp.frexp(v1)[1] - xp.frexp(v2)[1])
    return (v1 != 0.0) & (v2 != 0.0) & (exponent_gap > 1021)


def ss_branches(v1, v2) -> tuple[SSBranchSolution, SSBranchSolution]:
    """Both closed-form singularity branches of (v1, v2): Python floats for a
    pair of Python floats, arrays over the broadcast inputs for arrays, from
    one body in Python float arithmetic or numpy (math_of).

    With a = v1 - v2, s = v1 + v2 and h_+- = (a +- sqrt(s^2 + 4 v1 v2)) / 2,
    the roots of h^2 - a h - 2 v1 v2, branch t in {+, -} has
        g_t^2 = -s h_t,    beta_t = -h_(-t),    E_t = beta_t^2 / 2:
    beta_t is a root of Dr, and g_t^2 makes Di vanish there. It is feasible
    iff g_t^2 > 0 and beta_t > 0; s == 0 is DegenerateSum, a negative
    s^2 + 4 v1 v2 ComplexSqrt and g_t^2 == 0 (v1 or v2 is 0) ZeroGSquared.
    Of h_+-, the one whose sum would cancel comes from their product -2 v1 v2.
    The verdict is taken on (v1, v2) scaled by a power of two to
    max(|v1|, |v2|) in [0.5, 1), so it does not depend on the units; g^2 and
    beta are scaled back exactly unless they under- or overflow.
    """
    xp = math_of(v1, v2)
    k, v1, v2 = unit_scale(v1, v2)
    a, s, q = v1 - v2, v1 + v2, -2.0 * v1 * v2
    disc = s * s - 2.0 * q
    shared_code = (disc < 0.0) * xp.uint8(8) | (s == 0.0) * xp.uint8(24)
    with xp.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        root = xp.sqrt(xp.where(s == 0.0, math.nan, disc))
        far = 0.5 * (a + xp.copysign(root, a))
        near = xp.where(a == 0.0, -far, q / far)   # far != 0: root is nan at v1 == v2 == 0
        h_plus, h_minus = xp.where(a < 0.0, near, far), xp.where(a < 0.0, far, near)
        solutions = []
        for branch, h, h_other in ((Branch.PLUS, h_plus, h_minus),
                                   (Branch.MINUS, h_minus, h_plus)):
            sh = s * h
            code = (shared_code | (sh >= 0.0) * xp.uint8(2) | (sh == 0.0) * xp.uint8(4)
                    | (h_other >= 0.0))
            beta = xp.ldexp(-h_other, k) + 0.0   # + 0.0: a zero prints as 0, not -0
            solutions.append(SSBranchSolution(branch, xp.ldexp(-sh, 2 * k) + 0.0, beta,
                                              0.5 * beta * beta, code == 0, code))
    return solutions[0], solutions[1]


def ss_closed_form(v1: float, v2: float) -> tuple[SSBranchSolution, SSBranchSolution]:
    """ss_branches of one strength pair (v1, v2) as Python floats: the CLI's scalar
    code relies on their arithmetic, whose overflow to inf prints no numpy
    RuntimeWarning."""
    return ss_branches(float(v1), float(v2))


class RegionClass(str, Enum):
    BOTH_BRANCHES = "BothBranches"
    PLUS_ONLY = "PlusOnly"
    MINUS_ONLY = "MinusOnly"
    NONE = "None"


# Indexed by 2 * plus.feasible + minus.feasible.
_REGIONS = (RegionClass.NONE, RegionClass.MINUS_ONLY, RegionClass.PLUS_ONLY,
            RegionClass.BOTH_BRANCHES)


def region_of(plus_feasible, minus_feasible):
    """Region label from the two branch feasibility flags; flag arrays give a
    label array."""
    return _entry(_REGIONS, 2 * plus_feasible + minus_feasible)


def classify_region(v1: float, v2: float) -> RegionClass:
    """Region label derived purely from the two branch feasibility flags."""
    plus, minus = ss_closed_form(v1, v2)
    return region_of(plus.feasible, minus.feasible)


@dataclass(frozen=True)
class RegionScan:
    """Branches of a (v1, v2) grid as (n1, n2) arrays, labelled by region_of:
    cell (i, j) is (v1[i], v2[j]), so row-major order has v1 outermost."""

    v1: np.ndarray
    v2: np.ndarray
    plus: SSBranchSolution
    minus: SSBranchSolution


def scan_region(v1_range: tuple[float, float], v2_range: tuple[float, float],
                n1: int, n2: int) -> RegionScan:
    """Both branches at every cell of the inclusive (v1, v2) grid, in one evaluation."""
    v1, v2 = uniform_grid(*v1_range, n1), uniform_grid(*v2_range, n2)
    plus, minus = ss_branches(v1[:, None], v2[None, :])
    return RegionScan(v1, v2, plus, minus)
