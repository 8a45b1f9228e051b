import random

from hypothesis import given
from hypothesis import strategies as st

from qdelta.qalg import (I, J, K, ONE, Quaternion, qconj, qmul, symplectic_join,
                         symplectic_split)

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
