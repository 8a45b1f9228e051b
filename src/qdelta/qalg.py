"""Real-quaternion arithmetic and its complex-pair decomposition.

The decomposition convention is fixed once here and used everywhere else:
q = z1 + j*z2 with z1 = w + x*i and z2 = y - z*i.

The components may also be numpy arrays: qmul, qconj, norm and the split and
join then act entry by entry, with the bits of the float evaluation. The module
ends with the array arithmetic, rounded as CPython's scalars, that all modules use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._lazy import np


@dataclass(frozen=True)
class Quaternion:
    """q = w + x*i + y*j + z*k with real components and Hamilton multiplication."""

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        square = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        if isinstance(square, float) or not isinstance(square, np.ndarray):
            return math.sqrt(square)   # a Python float is tested first: it loads no numpy
        return np.sqrt(square)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p*q (non-commutative in general)."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def qconj(q: Quaternion) -> Quaternion:
    """Negate the i, j, k parts; q * qconj(q) equals |q|^2."""
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def symplectic_split(q: Quaternion) -> tuple[complex, complex]:
    """Split q into (z1, z2) with q = z1 + j*z2, z1 = w + x*i, z2 = y - z*i."""
    return as_complex(q.w, q.x), as_complex(q.y, -q.z)


def symplectic_join(z1: complex, z2: complex) -> Quaternion:
    """Exact inverse of symplectic_split: z1 + j*z2 as a quaternion."""
    return Quaternion(z1.real, z1.imag, z2.real, -z2.imag)


# Array arithmetic rounded entry by entry as CPython's float and complex scalars
# round it, where numpy's own complex product, quotient, modulus and power may not.
# cmul and cdiv take (re, im) pairs; a float x takes part as (x, 0.0), as in CPython.

def as_complex(re, im):
    """re + i im with both parts kept bit for bit: a complex number when re is
    a Python number, else a complex array."""
    if isinstance(re, (int, float)):
        return complex(re, im)
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def cmul(a, b):
    """The product a * b of (re, im) pairs."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def cdiv(*numerators, by):
    """The quotients a / by of (re, im) pairs, one per numerator a, as a list.
    Each is scaled by the larger part of by, whose ratio and scaled denominator
    are formed once for all of them."""
    br, bi = by
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    if np.isinf(denom).any():  # where CPython's quotient is 0 or nan, divide a / 2 by b / 2
        half = np.where(np.isinf(denom), 0.5, 1.0)
        numerators = [(ar * half, ai * half) for ar, ai in numerators]
        br, bi = br * half, bi * half
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    quotients = []
    for ar, ai in numerators:
        ar_ratio, ai_ratio = ar * ratio, ai * ratio
        quotients.append((np.where(by_real, ar + ai_ratio, ar_ratio + ai) / denom,
                          np.where(by_real, ai - ar_ratio, ai_ratio - ar) / denom))
    return quotients


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| for a complex array, as abs() takes it."""
    return np.hypot(z.real, z.imag)


def power(x, n):
    """x ** n through libm pow, a float for a float x; where float ** raises on
    overflow, inf, or -inf for odd n and negative x, as for arrays."""
    try:
        if isinstance(x, float) or not isinstance(x, np.ndarray):   # as in norm
            return x ** n
        return np.float_power(x, n)
    except OverflowError:
        return -math.inf if x < 0.0 and n % 2 else math.inf


def maximum(*values):
    """The entrywise maximum of values, as nested np.maximum from the left."""
    return functools.reduce(np.maximum, values)
