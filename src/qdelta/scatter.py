"""Closed-form scattering amplitudes for the quaternionic point interaction.

The interaction strength has a complex i channel v1 + i*v2 plus real j and k
channels (cap_v2, cap_v3); the amplitudes depend on the latter two only
through g^2 = cap_v2^2 + cap_v3^2. Natural units hbar = m = 1 throughout, so
beta = sqrt(2 E) and E = beta^2 / 2. amplitudes broadcasts over arrays and runs
the complex closed forms on (re, im) pairs through qalg's helpers, with the bits
of Python's complex evaluation; a scalar call gives 0-d results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qalg import as_complex, cdiv, cmul, power


# |D| (or the matching oracle's |det2|) below TOL_SINGULAR * max(1, beta^2) flags
# a spectral singularity instead of dividing; serialization must stay parseable.
TOL_SINGULAR = 1e-10


@dataclass(frozen=True)
class DeltaPotential:
    """Strength parameters of the point interaction; g^2 is always derived.

    The fields may also be arrays that broadcast together: denominator, dr_di
    and the quartic forms of singular then evaluate over them elementwise.
    """

    v1: float
    v2: float
    cap_v2: float
    cap_v3: float

    @classmethod
    def from_g_squared(cls, v1: float, v2: float, g_squared: float) -> "DeltaPotential":
        """Build with j strength sqrt(g_squared) and no k strength."""
        if g_squared < 0.0:
            raise ValueError("g_squared must be non-negative")
        return cls(v1, v2, math.sqrt(g_squared), 0.0)

    @property
    def g_squared(self) -> float:
        return self.cap_v2 * self.cap_v2 + self.cap_v3 * self.cap_v3


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes and coefficients over the broadcast inputs of amplitudes, sweep
    or oracle.matching_solver, with r and t nan and R and T inf at singular
    entries; abs_d is the modulus of their denominator, D or the junction
    system's det2, inf where it overflows. R = |r|^2 and T = |t|^2 are
    computed on first read and kept."""

    energy: np.ndarray
    beta: np.ndarray
    r: np.ndarray
    t: np.ndarray
    abs_d: np.ndarray
    at_singularity: np.ndarray

    @functools.cached_property
    def big_r(self) -> np.ndarray:
        return self._squared_modulus(self.r)

    @functools.cached_property
    def big_t(self) -> np.ndarray:
        return self._squared_modulus(self.t)

    def _squared_modulus(self, z: np.ndarray) -> np.ndarray:
        """|z|^2 as abs(z) ** 2 takes it, inf at the singular entries."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(self.at_singularity, np.inf, power(np.hypot(z.real, z.imag), 2.0))


def denominator(p: DeltaPotential, beta: float) -> complex:
    """The shared amplitude denominator D = beta(beta + V1) + i(V1^2 + g^2 + V1 beta);
    a complex array when p's fields or beta are arrays."""
    d_re, d_im = _denominator_parts(p.v1, p.v2, p.g_squared, beta)[2]
    return as_complex(d_re, d_im)


def dr_di(p: DeltaPotential, beta: float) -> tuple[float, float]:
    """Real and imaginary parts of the denominator in expanded real form."""
    d_r = beta * beta + beta * (p.v1 - p.v2) - 2.0 * p.v1 * p.v2
    d_i = p.v1 * p.v1 - p.v2 * p.v2 + beta * (p.v1 + p.v2) + p.g_squared
    return d_r, d_i


def _denominator_parts(v1, v2, g2, beta):
    """beta (beta + V1), N = V1^2 + g^2 + V1 beta and D = beta (beta + V1) + i N,
    as (re, im) pairs, evaluated as the complex expressions would be."""
    v1c, beta_c = (v1, v2), (beta, 0.0)
    bb = cmul(beta_c, (beta + v1, 0.0 + v2))
    vv, vb = cmul(v1c, v1c), cmul(v1c, beta_c)
    numer = (vv[0] + g2 + vb[0], vv[1] + 0.0 + vb[1])
    i_numer = cmul((0.0, 1.0), numer)
    return bb, numer, (bb[0] + i_numer[0], bb[1] + i_numer[1])


def beta_of(energy) -> np.ndarray:
    """beta = sqrt(2 E) over the energies; raises ValueError unless every energy
    is positive. An overflowing energy gives inf quietly: callers report it."""
    if np.any(energy <= 0.0):
        raise ValueError("energy must be positive")
    with np.errstate(over="ignore"):
        return np.sqrt(2.0 * energy)


def scattering_result(energy, beta, r_num, t_num, d) -> ScatteringResult:
    """The ScatteringResult of r = r_num / d and t = t_num / d, (re, im) pairs
    over the energies, with the spectral singularities flagged and filled."""
    # Callers report non-finite rows; warnings would repeat them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r, t = (np.asarray(as_complex(*quotient)) for quotient in cdiv(r_num, t_num, by=d))
        # |d| is taken after the division, so that it is not held at its peak.
        abs_d = np.hypot(*d)
        singular = abs_d < TOL_SINGULAR * np.maximum(1.0, beta * beta)
    r[singular] = t[singular] = complex(np.nan, np.nan)
    return ScatteringResult(energy, beta, r, t, abs_d, singular)


def amplitudes(p: DeltaPotential, energy) -> ScatteringResult:
    """Reflection and transmission from the closed forms, broadcast over p's
    fields and the energies.

    Every entry equals the scalar complex evaluation bit for bit; |r|^2 is
    taken as abs(r) ** 2 is.
    """
    v1, v2, g2, energy = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p.v1, p.v2, p.g_squared, energy)))
    beta = beta_of(energy)
    with np.errstate(invalid="ignore", over="ignore"):
        bb, numer, d = _denominator_parts(v1, v2, g2, beta)
        r_num = cmul((-0.0, -1.0), numer)                   # r = -i numer / D
    return scattering_result(energy, beta, r_num, bb, d)


def uniform_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points from lo to hi, both included, the last exactly hi."""
    if n < 2:
        raise ValueError("grid needs at least 2 points per axis")
    if not lo < hi:
        raise ValueError("ranges must satisfy lo < hi")
    grid = lo + (hi - lo) * (np.arange(n) / (n - 1))
    grid[-1] = hi
    return grid


def energy_grid(e_min: float, e_max: float, steps: int) -> np.ndarray:
    """Uniform grid over [e_min, e_max], endpoints included."""
    if not 0.0 < e_min:
        raise ValueError("need 0 < e_min < e_max")
    return uniform_grid(e_min, e_max, steps)


def sweep(p: DeltaPotential, e_min: float, e_max: float, steps: int) -> ScatteringResult:
    """Amplitudes on a uniform inclusive energy grid, in ascending order, as arrays."""
    return amplitudes(p, energy_grid(e_min, e_max, steps))
