import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelta.oracle import MatchMode, matching_solver
from qdelta.qalg import power
from qdelta.scatter import (DeltaPotential, amplitudes, denominator, dr_di,
                            energy_grid, sweep)
from qdelta.singular import quartic_coeffs

FIG_POT = DeltaPotential.from_g_squared(-0.5, 3.0, 3.75)

strengths = st.floats(min_value=-10, max_value=10, allow_nan=False)
g_squares = st.floats(min_value=1e-6, max_value=100, allow_nan=False)
betas = st.floats(min_value=1e-3, max_value=20, allow_nan=False)


def test_potential_construction():
    p = DeltaPotential.from_g_squared(1.0, -2.0, 9.0)
    assert p.cap_v2 == 3.0 and p.cap_v3 == 0.0
    assert p.g_squared == 9.0
    with pytest.raises(ValueError):
        DeltaPotential.from_g_squared(0.0, 0.0, -1.0)


def test_denominator_examples():
    # exact g^2 = 1 via cap_v2 = 1
    p = DeltaPotential(1.0, 0.0, 1.0, 0.0)
    assert denominator(p, 1.0) == 2 + 3j
    assert abs(denominator(FIG_POT, 2.0)) <= 1e-13
    free = DeltaPotential(0.0, 0.0, 0.0, 0.0)
    for beta in (0.5, 1.0, 3.0):
        assert denominator(free, beta) == beta * beta


def test_dr_di_examples():
    p = DeltaPotential(1.0, 0.0, 1.0, 0.0)
    assert dr_di(p, 1.0) == (2.0, 3.0)
    d_r, d_i = dr_di(FIG_POT, 2.0)
    assert abs(d_r) <= 1e-13 and abs(d_i) <= 1e-13


@given(strengths, strengths, g_squares)
def test_dr_di_at_zero_beta(v1, v2, g2):
    p = DeltaPotential.from_g_squared(v1, v2, g2)
    d_r, d_i = dr_di(p, 0.0)
    assert d_r == -2.0 * v1 * v2
    assert d_i == v1 * v1 - v2 * v2 + p.g_squared


def test_amplitudes_free_particle_exact():
    free = DeltaPotential(0.0, 0.0, 0.0, 0.0)
    for energy in (0.1, 1.0, 7.3):
        res = amplitudes(free, energy)
        assert res.r == 0 and res.t == 1
        assert res.big_r == 0.0 and res.big_t == 1.0
        assert not res.at_singularity


def test_amplitudes_real_strength_example():
    p = DeltaPotential(1.0, 0.0, 1.0, 0.0)
    res = amplitudes(p, 0.5)
    assert abs(res.r - (-9 - 6j) / 13) <= 1e-15
    assert abs(res.t - (4 - 6j) / 13) <= 1e-15
    assert res.big_r == pytest.approx(9 / 13, abs=1e-14)
    assert res.big_t == pytest.approx(4 / 13, abs=1e-14)
    assert res.big_r + res.big_t == pytest.approx(1.0, abs=1e-12)


def test_amplitudes_flags_singularity():
    res = amplitudes(FIG_POT, 2.0)
    assert res.at_singularity
    assert np.isnan(res.r) and np.isnan(res.t)
    assert math.isinf(res.big_r) and math.isinf(res.big_t)


def _hex(values: np.ndarray) -> list[str]:
    return [x.hex() for x in np.ravel(values).tolist()]


# Near the float maximum, where qalg.cdiv halves the scaled denominator.
_CDIV_OVERFLOW = (DeltaPotential.from_g_squared(8e153, 0.0, 0.0), [3e307, 3.1e307])


@pytest.mark.parametrize("res", [
    sweep(FIG_POT, 1.0, 3.0, 3),                                  # singular row at E = 2
    amplitudes(*_CDIV_OVERFLOW),
    matching_solver(*_CDIV_OVERFLOW, MatchMode.CONJUGATE),
    amplitudes(FIG_POT, 1.0),
    amplitudes(FIG_POT, 2.0),                                     # a 0-d singular call
], ids=["singular-row", "cdiv-overflow", "cdiv-overflow-physical", "0-d", "0-d-singular"])
def test_reflection_and_transmission_coefficients_are_read_once(res):
    assert "big_r" not in vars(res) and "big_t" not in vars(res)
    for got, z in ((res.big_r, res.r), (res.big_t, res.t)):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = np.where(res.at_singularity, np.inf, power(np.hypot(z.real, z.imag), 2.0))
        assert type(got) is np.ndarray and got.shape == res.energy.shape
        assert _hex(got) == _hex(want)
    assert res.big_r is res.big_r and res.big_t is res.big_t


def test_sweep_shape_and_order():
    energies = sweep(FIG_POT, 0.05, 4.0, 400).energy.tolist()
    assert len(energies) == 400
    assert energies[0] == 0.05 and energies[-1] == 4.0
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_sweep_free_rows():
    res = sweep(DeltaPotential(0, 0, 0, 0), 1.0, 2.0, 2)
    assert list(zip(res.r.tolist(), res.t.tolist())) == [(0, 1), (0, 1)]


def test_sweep_unitary_rows():
    p = DeltaPotential(1.0, 0.0, 1.0, 0.0)
    res = sweep(p, 0.1, 10.0, 100)
    for big_r, big_t in zip(res.big_r.tolist(), res.big_t.tolist()):
        assert abs(big_r + big_t - 1.0) <= 1e-10


@pytest.mark.parametrize("p", [FIG_POT, DeltaPotential(1.0, 0.0, 1.0, 0.0),
                               DeltaPotential(-2.0, -3.0, 1.5, 0.5)])
def test_sweep_matches_scalar_amplitudes(p):
    # One function on one energy and on the grid. E = 2 is the grid node
    # i = 100 and a singularity of FIG_POT
    res = sweep(p, 1.0, 3.0, 201)
    assert res.at_singularity.tolist().count(True) == (1 if p is FIG_POT else 0)
    for i, energy in enumerate(res.energy.tolist()):
        want = amplitudes(p, energy)
        assert bool(res.at_singularity[i]) is bool(want.at_singularity)
        assert (float(res.beta[i]), float(res.big_r[i]), float(res.big_t[i]),
                float(res.abs_d[i])) == (want.beta, want.big_r, want.big_t, want.abs_d)
        if want.at_singularity:
            assert all(math.isnan(x) for x in (res.r[i].real, res.r[i].imag,
                                               res.t[i].real, res.t[i].imag,
                                               want.r.real, want.r.imag,
                                               want.t.real, want.t.imag))
        else:
            assert (complex(res.r[i]), complex(res.t[i])) == (complex(want.r), complex(want.t))


def test_energy_grid_validation():
    with pytest.raises(ValueError):
        energy_grid(2.0, 1.0, 10)
    with pytest.raises(ValueError):
        energy_grid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        energy_grid(1.0, 2.0, 1)


@given(strengths, strengths, g_squares, betas)
def test_denominator_decomposition(v1, v2, g2, beta):
    p = DeltaPotential.from_g_squared(v1, v2, g2)
    d_r, d_i = dr_di(p, beta)
    assert abs(denominator(p, beta) - complex(d_r, d_i)) <= 1e-12


@given(st.floats(min_value=-10, max_value=10, allow_nan=False), g_squares,
       st.floats(min_value=1e-2, max_value=200, allow_nan=False))
def test_unitarity_anti_hermitian(v1, g2, energy):
    res = amplitudes(DeltaPotential.from_g_squared(v1, 0.0, g2), energy)
    assert abs(res.big_r + res.big_t - 1.0) <= 1e-10


@given(strengths, strengths, g_squares, betas)
def test_dsq_equals_quartic(v1, v2, g2, beta):
    p = DeltaPotential.from_g_squared(v1, v2, g2)
    d = denominator(p, beta)
    dsq = d.real * d.real + d.imag * d.imag
    val = quartic_coeffs(p).value_at(beta)
    assert abs(dsq - val) <= 1e-9 * max(1.0, dsq, abs(val))


def test_random_draw_box_decomposition():
    rng = random.Random(99)
    for _ in range(2000):
        p = DeltaPotential.from_g_squared(rng.uniform(-10, 10),
                                          rng.uniform(-10, 10),
                                          rng.uniform(0.0, 100.0))
        beta = rng.uniform(1e-6, 20.0)
        d_r, d_i = dr_di(p, beta)
        assert abs(denominator(p, beta) - complex(d_r, d_i)) <= 1e-12
