"""The batched verify checks report the same first failing draw as a draw-by-draw
loop would, also past the first block."""

import dataclasses
import math
import random

import numpy as np
import pytest

from qdelta import verify
from qdelta.oracle import MatchMode
from qdelta.scatter import DeltaPotential
from qdelta.singular import discriminant_bounded, discriminant_expanded, quartic_coeffs

TRIALS = 3000
# Two failing draws in the second block; the first must be reported.
BAD_DRAW = verify._BLOCK + 123
BAD_DRAWS = (BAD_DRAW, BAD_DRAW + 100)


class _ChangeAt:
    """Applies change to the entries of the given draws (by default, scales
    them by 1 + 1e-6), counting draws over the successive blocks it is given."""

    def __init__(self, draws, change=lambda x: x * (1.0 + 1e-6)) -> None:
        self.draws, self.change, self.seen = draws, change, 0

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.array(values, copy=True)
        for draw in self.draws:
            if self.seen <= draw < self.seen + values.size:
                values[draw - self.seen] = self.change(values[draw - self.seen])
        self.seen += values.size
        return values


@pytest.mark.parametrize("mode, detail", [
    (MatchMode.CONTINUED, f"Continued mode disagrees with closed form at draw {BAD_DRAW}"),
    (MatchMode.CONJUGATE, f"Conjugate mode disagrees on v2=0 at draw {BAD_DRAW}"),
])
def test_matching_mismatch_names_the_draw(monkeypatch, mode, detail):
    unpatched, perturb = verify.oracle.matching_arrays, _ChangeAt(BAD_DRAWS)

    def solve(*args):
        m = unpatched(*args)
        return dataclasses.replace(m, r=perturb(m.r)) if m.mode is mode else m

    monkeypatch.setattr(verify.oracle, "matching_arrays", solve)
    check = verify.check_matching_equivalence(random.Random(45), TRIALS)
    assert not check.passed
    assert check.detail == detail


def test_algebraic_identity_failure_names_the_draw(monkeypatch):
    unpatched, perturb = verify.dr_di, _ChangeAt(BAD_DRAWS)

    def dr_di(pot, beta):
        d_r, d_i = unpatched(pot, beta)
        return perturb(d_r), d_i

    monkeypatch.setattr(verify, "dr_di", dr_di)
    check = verify.check_algebraic_identities(random.Random(43), TRIALS)
    assert not check.passed
    assert check.detail.startswith(f"|D|^2 identity broken at draw {BAD_DRAW}: ")


def _draw_where_plain_sum_is_inexact(seed: int) -> tuple[int, float, float, float]:
    """(draw, plain sum, fsum, largest monomial) of the discriminant at the
    first draw past the first block where the two sums differ and the
    monomial alone sets the allowed gap."""
    rng = random.Random(seed)
    for n in range(TRIALS):
        v1, v2, g2, _ = verify._draw_potential(rng)
        q = quartic_coeffs(DeltaPotential.from_g_squared(v1, v2, g2))
        plain, exact = discriminant_bounded(q)[0], discriminant_expanded(q)
        monomial = max(abs(q.e) ** 3 * 256.0, 27.0 * q.d ** 4, 27.0 * q.b ** 4 * q.e * q.e)
        if n > verify._BLOCK and plain != exact and abs(exact) < 0.5 * monomial:
            return n, plain, exact, monomial
    raise AssertionError("no such draw")


@pytest.mark.parametrize("exact_passes", [True, False])
def test_discriminant_verdict_follows_the_exact_sum(monkeypatch, exact_passes):
    n, plain, exact, monomial = _draw_where_plain_sum_is_inexact(43)
    allowed = 1e-6 * monomial
    # 64 A B within the allowed gap of the sum near, and beyond it from the
    # sum far: the verdict must be the exact sum's.
    near, far = (exact, plain) if exact_passes else (plain, exact)
    fact = near - math.copysign(allowed, far - near)
    while abs(near - fact) > allowed:
        fact = math.nextafter(fact, near)
    assert abs(far - fact) > allowed
    unpatched, change = verify.discriminant_factored, _ChangeAt((n,), lambda _: fact)

    def discriminant_factored(pot):
        a_factor, b_factor, delta = unpatched(pot)
        return a_factor, b_factor, change(delta)

    monkeypatch.setattr(verify, "discriminant_factored", discriminant_factored)
    check = verify.check_algebraic_identities(random.Random(43), TRIALS)
    if exact_passes:
        assert check.passed, check.detail
    else:
        assert check.detail == f"discriminant identity broken at draw {n}: {exact!r} vs {fact!r}"
