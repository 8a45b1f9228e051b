import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelta.qalg import (I, J, K, ONE, Quaternion, as_complex, cdiv, cmul, maximum,
                         modulus, power, qconj, qmul, symplectic_join, symplectic_split)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_unit_table():
    minus_one = -ONE
    table = {
        (I, I): minus_one, (J, J): minus_one, (K, K): minus_one,
        (I, J): K, (J, I): -K,
        (J, K): I, (K, J): -I,
        (K, I): J, (I, K): -J,
    }
    for (p, q), want in table.items():
        assert qmul(p, q) == want
    assert qmul(qmul(I, J), K) == minus_one


def test_product_examples():
    q = Quaternion(1, 1, 1, 1)
    assert qmul(q, q) == Quaternion(-2, 2, 2, 2)
    # j z = conj(z) j for complex z
    z = Quaternion(2.0, 3.0, 0.0, 0.0)
    zbar = Quaternion(2.0, -3.0, 0.0, 0.0)
    assert qmul(J, z) == Quaternion(0, 0, 2, -3)
    assert qmul(J, z) == qmul(zbar, J)


def test_conjugation():
    assert qconj(I) == -I
    assert qconj(Quaternion(1, 0, 2, 0)) == Quaternion(1, 0, -2, 0)
    q = Quaternion(1, 1, 1, 1)
    assert qmul(q, qconj(q)) == Quaternion(4, 0, 0, 0)


@given(quaternions)
def test_conjugation_involution(q):
    assert qconj(qconj(q)) == q


@given(quaternions, quaternions)
def test_norm_multiplicative(p, q):
    assert abs(qmul(p, q).norm() - p.norm() * q.norm()) \
        <= 1e-12 * max(1.0, p.norm() * q.norm())


@given(quaternions, quaternions, quaternions)
def test_associativity(p, q, r):
    left = qmul(qmul(p, q), r)
    right = qmul(p, qmul(q, r))
    scale = max(1.0, p.norm() * q.norm() * r.norm())
    assert (left - right).norm() <= 1e-12 * scale


@given(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
def test_left_j_conjugates_complex(z):
    zbar = z.conjugate()
    assert qmul(J, Quaternion(z.real, z.imag, 0.0, 0.0)) \
        == qmul(Quaternion(zbar.real, zbar.imag, 0.0, 0.0), J)


def test_split_examples():
    assert symplectic_split(Quaternion(1, 2, 3, 4)) == (1 + 2j, 3 - 4j)
    assert symplectic_split(Quaternion(5, -1, 0, 0)) == (5 - 1j, 0j)
    assert symplectic_split(J) == (0j, 1 + 0j)
    # the j part really is j*z2
    assert qmul(J, Quaternion(3.0, -4.0, 0.0, 0.0)) == Quaternion(0, 0, 3, 4)


def test_join_examples():
    assert symplectic_join(1 + 2j, 3 - 4j) == Quaternion(1, 2, 3, 4)
    assert symplectic_join(0j, 0j) == Quaternion(0, 0, 0, 0)


def test_split_join_roundtrip_bit_exact():
    rng = random.Random(20240811)
    for _ in range(1000):
        q = Quaternion(*(rng.uniform(-1e3, 1e3) for _ in range(4)))
        assert symplectic_join(*symplectic_split(q)) == q
        z1 = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        z2 = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        assert symplectic_split(symplectic_join(z1, z2)) == (z1, z2)


def test_join_is_z1_plus_j_z2():
    rng = random.Random(7)
    for _ in range(100):
        z1 = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        z2 = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert symplectic_join(z1, z2) == (Quaternion(z1.real, z1.imag, 0.0, 0.0)
                                           + qmul(J, Quaternion(z2.real, z2.imag, 0.0, 0.0)))


def _floats(seed: int) -> list[float]:
    """Seeded floats of both signs with magnitudes from 1e-300 to 1e300, with
    signed zeros and subnormals among them."""
    rng = random.Random(seed)
    xs = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2000)]
    xs += [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315] * 20
    rng.shuffle(xs)
    return xs


def _hex(values) -> list[str]:
    """float.hex of each value: the sign and every bit."""
    return [float(x).hex() for x in values]


@pytest.fixture(scope="module")
def parts():
    """(re, im) pairs a and b, as lists of floats and as arrays; every fifth b
    has parts of equal magnitude, where cdiv's choice of scaling part ties."""
    ar, ai, br, bi = (_floats(seed) for seed in range(4))
    bi[::5] = [x * (-1.0) ** k for k, x in enumerate(br[::5])]
    return (ar, ai), (br, bi), (np.array(ar), np.array(ai)), (np.array(br), np.array(bi))


def test_cmul_rounds_as_complex_product(parts):
    (ar, ai), (br, bi), a_arr, b_arr = parts
    want = [complex(*a) * complex(*b) for a, b in zip(zip(ar, ai), zip(br, bi))]
    with np.errstate(all="ignore"):
        got = cmul(a_arr, b_arr)
    assert _hex(got[0]) == _hex(z.real for z in want)
    assert _hex(got[1]) == _hex(z.imag for z in want)


def test_cdiv_rounds_as_complex_quotient(parts):
    (ar, ai), (br, bi), a_arr, b_arr = parts
    nonzero = [k for k, b in enumerate(zip(br, bi)) if b != (0.0, 0.0)]
    want = [complex(ar[k], ai[k]) / complex(br[k], bi[k]) for k in nonzero]
    with np.errstate(all="ignore"):
        (got,) = cdiv(a_arr, by=b_arr)
    assert _hex(got[0][nonzero]) == _hex(z.real for z in want)
    assert _hex(got[1][nonzero]) == _hex(z.imag for z in want)


def test_cdiv_halves_where_the_scaled_denominator_overflows():
    # br * ratio + bi (or br + bi * ratio) overflows for these finite b, where
    # CPython's quotient is 0, or nan when the scaled numerator overflows too.
    a = (np.array([1.22e308, 1e308, -3e307]), np.array([0.0, 1e308, 1.5e308]))
    b = (np.array([1.22e308, 1.7e308, -1e308]), np.array([1.26e308, 1.7e308, 1.6e308]))
    with np.errstate(over="ignore"):
        (got,) = cdiv(a, by=b)
    for k in range(3):
        ar, ai, br, bi = (Fraction(float(part[k])) for part in (*a, *b))
        norm = br * br + bi * bi
        want = ((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)
        size = math.hypot(*want)
        for part, exact in zip(got, want):
            assert abs(Fraction(float(part[k])) - exact) <= 4 * math.ulp(size)


def test_cdiv_keeps_cpythons_quotient_by_an_infinite_part():
    a = (np.array([1.0, -2.0]), np.array([2.0, 1e308]))
    b = (np.array([math.inf, 1.7e308]), np.array([1.0, -math.inf]))
    with np.errstate(all="ignore"):
        (got,) = cdiv(a, by=b)
    want = [complex(x, y) / complex(u, v) for x, y, u, v in zip(*a, *b)]
    assert _hex(got[0]) == _hex(z.real for z in want)
    assert _hex(got[1]) == _hex(z.imag for z in want)


def test_cdiv_of_several_numerators_equals_one_call_each(parts):
    # The parts draws, then rows where the scaled denominator overflows, a
    # divisor with an infinite part, and signed zeros in numerator and divisor.
    _, _, (ar, ai), (br, bi) = parts
    ar = np.concatenate([ar, [1.22e308, 1e308, -3e307, 1.0, -2.0, 0.0, -0.0, -0.0]])
    ai = np.concatenate([ai, [0.0, 1e308, 1.5e308, 2.0, 1e308, -0.0, 0.0, -0.0]])
    br = np.concatenate([br, [1.22e308, 1.7e308, -1e308, math.inf, 1.7e308, -0.0, 3.0, -2.0]])
    bi = np.concatenate([bi, [1.26e308, 1.7e308, 1.6e308, 1.0, -math.inf, 1.0, -0.0, -0.0]])
    numerators = [(ar, ai), (ai[::-1], -ar), (ar * 0.5, bi)]
    with np.errstate(all="ignore"):
        together = cdiv(*numerators, by=(br, bi))
        alone = [cdiv(a, by=(br, bi))[0] for a in numerators]
    assert len(together) == len(numerators)
    for got, want in zip(together, alone):
        assert _hex(got[0]) == _hex(want[0]) and _hex(got[1]) == _hex(want[1])


def test_modulus_rounds_as_abs(parts):
    (ar, ai), _, a_arr, _ = parts
    assert _hex(modulus(as_complex(*a_arr))) == _hex(abs(complex(x, y)) for x, y in zip(ar, ai))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_power_rounds_as_float_power_operator(n):
    xs = _floats(4)
    with np.errstate(over="ignore"):
        on_array = power(np.array(xs), n)
    for x, from_array in zip(xs, on_array.tolist()):
        got = power(x, n)
        assert type(got) is float
        try:
            want = x ** n
        except OverflowError:
            want = -math.inf if x < 0.0 and n % 2 else math.inf
        assert got.hex() == want.hex() == from_array.hex()


def test_power_overflows_to_signed_infinity():
    assert power(-1e200, 3) == -math.inf
    assert power(1e200, 2) == math.inf
    assert power(1e200, 4) == math.inf
    assert power(-1e200, 4) == math.inf


def test_numpy_scalars_keep_the_scalar_path():
    # power and norm test for a Python float first, which loads no numpy; numpy
    # scalars still take ** and math.sqrt, with their types, and arrays numpy's.
    for x in (np.float64(1.1), np.float32(1.1)):
        assert type(power(x, 3)) is type(x) and power(x, 3) == x ** 3
    assert _hex(power(np.array([1.1]), 3)) == _hex(np.float_power([1.1], 3))
    parts = (0.5, 1.5, -2.0, 3.1)
    p = Quaternion(*map(np.float64, parts))
    assert type(p.norm()) is float and p.norm() == Quaternion(*parts).norm()
    on_array = Quaternion(*(np.array([c]) for c in parts)).norm()
    assert type(on_array) is np.ndarray and on_array.tolist() == [p.norm()]


def test_maximum_folds_from_the_left():
    a, b = np.array([1.0, np.nan, 3.0]), np.array([2.0, 0.0, np.nan])
    got = maximum(0.5, a, b)
    assert _hex(got) == _hex(np.maximum(np.maximum(0.5, a), b))
    assert got[0] == 2.0 and np.isnan(got[1:]).all()
