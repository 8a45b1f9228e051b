"""Reference answers that the benchmark checks the program's outputs against.

These are array transcriptions of the closed forms as the program computed
them when the benchmark was introduced: the same operations in the same
order, so at that commit they agree with the CLI bit for bit. They are
frozen here on purpose. A later rewrite of the program is judged against
these answers, not against itself.

Tolerances, stated once:
- labels, reasons, feasibility flags, empty/null cells and the literal
  nan/inf/0e0 cells of a singular sweep row must match exactly;
- a float must satisfy |got - ref| <= RTOL * max(|ref|, mag), where mag is
  the natural magnitude of that quantity (v^2 for energies and g^2, |v| for
  beta, |r| and |t| for the amplitude components, the size of the terms of D
  for |D|), so that a last-bit rounding change is never a failure;
- a located double root must lie within ROOT_TOL * max(1, beta) of the
  closed-form beta, the accuracy a root finder reaches at a double root.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
ROOT_TOL = 1e-6
KAPPA = -3.0 + 2.0 * math.sqrt(2.0)
TOL_SINGULAR = 1e-10

SCAN_HEADER = "v1,v2,classification,E_plus,E_minus"
SWEEP_HEADER = "E,beta,re_r,im_r,re_t,im_t,R,T,absD"
SINGULAR_CELLS = "nan,nan,nan,nan,inf,inf,0e0"


def close(got, ref, mag=0.0):
    """Elementwise |got - ref| <= RTOL * max(|ref|, mag)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return np.abs(got - ref) <= RTOL * np.maximum(np.abs(ref), mag)


def axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Uniform inclusive grid, computed as the program's grids are."""
    vals = lo + (hi - lo) * (np.arange(n) / (n - 1))
    vals[-1] = hi
    return vals


def strength_scale(v1, v2):
    return np.maximum(1.0, np.maximum(np.abs(v1), np.abs(v2)))


def branches(v1, v2) -> dict[str, dict[str, np.ndarray]]:
    """Both closed-form singularity branches over arrays of (v1, v2).

    Returns {"plus": b, "minus": b} where b holds arrays g2, beta, energy
    (NaN where the sum degenerates or the square root is complex) and
    reason (the feasibility label; "OK" means feasible).
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    scale = strength_scale(v1, v2)
    s = v1 + v2
    degenerate = np.abs(s) <= 1e-12 * scale
    disc = s * s + 4.0 * v1 * v2
    complex_sqrt = ~degenerate & (disc < 0.0)
    no_value = degenerate | complex_sqrt
    root = np.sqrt(np.where(no_value, 0.0, disc))
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for name, sign in (("plus", 1.0), ("minus", -1.0)):
            g2 = -0.5 * s * ((v1 - v2) + sign * root)
            beta = -(v1 - v2) - g2 / s
            energy = 0.5 * beta * beta
            reason = np.select(
                [degenerate, complex_sqrt, g2 <= 1e-12 * scale * scale,
                 beta <= 1e-12 * scale],
                ["DegenerateSum", "ComplexSqrt", "NegativeGSquared",
                 "NonPositiveBeta"], "OK")
            out[name] = {
                "g2": np.where(no_value, np.nan, g2),
                "beta": np.where(no_value, np.nan, beta),
                "energy": np.where(no_value, np.nan, energy),
                "reason": reason,
            }
    return out


def classification(plus_ok, minus_ok) -> np.ndarray:
    return np.select([plus_ok & minus_ok, plus_ok, minus_ok],
                     ["BothBranches", "PlusOnly", "MinusOnly"], "None")


def stored_g2(g2):
    """g^2 as the program stores it: the j strength sqrt(g2), squared."""
    root = np.sqrt(g2)
    return root * root


def denominator(v1: float, v2: float, g2, beta):
    """D = beta (beta + V1) + i (V1^2 + g^2 + V1 beta) with V1 = v1 + i v2."""
    v1c = complex(v1, v2)
    return beta * (beta + v1c) + 1j * (v1c * v1c + g2 + v1c * beta)


def denominator_terms(v1: float, v2: float, g2, beta):
    """Size of the terms D is summed from; the scale of its rounding error."""
    a = abs(complex(v1, v2))
    return beta * beta + a * beta + a * a + np.abs(g2)


def amplitudes(v1: float, v2: float, g2: float, energies: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form sweep columns at each energy, plus the singular-row mask."""
    g2 = stored_g2(g2)
    beta = np.sqrt(2.0 * energies)
    v1c = complex(v1, v2)
    d = denominator(v1, v2, g2, beta)
    singular = np.abs(d) < TOL_SINGULAR * np.maximum(1.0, beta * beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = -1j * (v1c * v1c + g2 + v1c * beta) / d
        t = beta * (beta + v1c) / d
    return {"E": energies, "beta": beta, "r": r, "t": t,
            "R": np.abs(r) ** 2, "T": np.abs(t) ** 2, "absD": np.abs(d),
            "singular": singular}
