"""The batched verify checks draw the same numbers and report the same first
failing draw as a draw-by-draw loop, also past the first block; a failing
check stops at the end of the failing block, before its later stages."""

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qdelta import cli, oracle, qalg, verify
from qdelta.oracle import MatchMode, NumericalError
from qdelta.scatter import DeltaPotential
from qdelta.singular import (KAPPA, discriminant_bounded, discriminant_expanded,
                             quartic_coeffs)

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
    # Solved before the patch, whose draw count the probe would advance.
    divergence = verify.mode_divergence_at_probe()
    unpatched, perturb = verify.oracle.matching_solver, _ChangeAt(BAD_DRAWS)

    def solve(pot, energy, solve_mode):
        m = unpatched(pot, energy, solve_mode)
        return dataclasses.replace(m, r=perturb(m.r)) if solve_mode is mode else m

    monkeypatch.setattr(verify.oracle, "matching_solver", solve)
    check = verify.check_matching_equivalence(verify.stream(45), TRIALS, divergence)
    assert not check.passed
    assert check.detail == detail


@pytest.mark.parametrize("off, passes", [(0.9e-9, True), (1.1e-9, False)])
@pytest.mark.parametrize("mode, detail", [
    (MatchMode.CONTINUED, f"Continued mode disagrees with closed form at draw {BAD_DRAW}"),
    (MatchMode.CONJUGATE, f"Conjugate mode disagrees on v2=0 at draw {BAD_DRAW}"),
])
def test_matching_agreement_is_within_1e_9_of_the_larger_modulus(monkeypatch, mode, detail,
                                                                   off, passes):
    # r moved off by just under and just over the allowed 1e-9 max(1, |r|).
    divergence = verify.mode_divergence_at_probe()
    unpatched = verify.oracle.matching_solver
    perturb = _ChangeAt((BAD_DRAW,), lambda r: r + off * max(1.0, abs(r)))

    def solve(pot, energy, solve_mode):
        m = unpatched(pot, energy, solve_mode)
        return dataclasses.replace(m, r=perturb(m.r)) if solve_mode is mode else m

    monkeypatch.setattr(verify.oracle, "matching_solver", solve)
    check = verify.check_matching_equivalence(verify.stream(45), TRIALS, divergence)
    assert perturb.seen > BAD_DRAW
    assert check.passed is passes
    assert passes or check.detail == detail


def test_matching_check_computes_no_reflection_or_transmission_coefficient(monkeypatch):
    # R = |r|^2 and T = |t|^2 go through scatter.power when first read; the
    # check compares r and t only.
    divergence = verify.mode_divergence_at_probe()
    calls = []

    def power(x, n):
        calls.append(n)
        return qalg.power(x, n)

    monkeypatch.setattr("qdelta.scatter.power", power)
    assert verify.check_matching_equivalence(verify.stream(45), TRIALS, divergence).passed
    assert calls == []
    assert verify.amplitudes(DeltaPotential(1.0, 0.0, 1.0, 0.0), 1.0).big_r.shape == ()
    assert calls == [2.0]


def test_algebraic_identity_failure_names_the_draw(monkeypatch):
    unpatched, perturb = verify.dr_di, _ChangeAt(BAD_DRAWS)

    def dr_di(pot, beta):
        d_r, d_i = unpatched(pot, beta)
        return perturb(d_r), d_i

    monkeypatch.setattr(verify, "dr_di", dr_di)
    check = verify.check_algebraic_identities(verify.stream(43), TRIALS)
    assert not check.passed
    assert check.detail.startswith(f"|D|^2 identity broken at draw {BAD_DRAW}: ")


def _draw_where_plain_sum_is_inexact(seed: int) -> tuple[int, float, float, float]:
    """(draw, plain sum, fsum, largest monomial) of the discriminant at the
    first draw past the first block where the two sums differ and the
    monomial alone sets the allowed gap."""
    draws = np.transpose(verify._draw_potentials(verify.stream(seed), TRIALS)).tolist()
    for n in range(TRIALS):
        v1, v2, g2, _ = draws[n]
        q = quartic_coeffs(DeltaPotential.from_g_squared(v1, v2, g2))
        plain, exact = discriminant_bounded(q)[0], discriminant_expanded(q)
        # _discriminant_gaps' largest monomial, in its products.
        b2, d2 = q.b * q.b, q.d * q.d
        monomial = max(abs(q.e * q.e * q.e) * 256.0, 27.0 * (d2 * d2),
                       27.0 * (b2 * b2) * q.e * q.e)
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
    check = verify.check_algebraic_identities(verify.stream(43), TRIALS)
    if exact_passes:
        assert check.passed, check.detail
    else:
        assert check.detail == f"discriminant identity broken at draw {n}: {exact!r} vs {fact!r}"


# Draw-by-draw forms of the draw shapes: the reference the block draws must
# reproduce bit for bit.

def _open_unit(rng):
    return 1.0 - rng.random()


def _scalar_potential(rng):
    return (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
            100.0 * _open_unit(rng), 20.0 * _open_unit(rng))


def _scalar_at_energy(rng):
    v1, v2, g2, beta = _scalar_potential(rng)
    return v1, v2, g2, 0.5 * beta * beta


def _scalar_v2_zero(rng):
    v1 = rng.uniform(-10.0, 10.0)
    g2 = 100.0 * _open_unit(rng)
    return v1, 0.0, g2, 0.5 * (20.0 * _open_unit(rng)) ** 2


def _scalar_lossy(rng):
    return -10.0 * _open_unit(rng), -10.0 * _open_unit(rng)


def _scalar_axis(rng):
    return rng.uniform(-10.0, 10.0), 0.0


def _scalar_quaternions(rng):
    return tuple(rng.uniform(-1e3, 1e3) for _ in range(12))


def _scalar_complex(rng):
    return rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)


def _scalar_quartic(rng):
    return tuple(rng.uniform(-20.0, 20.0) for _ in range(4))


def _scalar_band(rng):
    v2 = 0.1 + 9.9 * _open_unit(rng)
    return KAPPA * v2 * rng.random(), v2


def _bits(x):
    return math.copysign(1.0, x), x.hex()


def _advanced(seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    return rng


def _state(rng):
    """The key words and position of a numpy MT19937, listed as in
    random.Random.getstate()[1]."""
    _, keys, pos, _, _ = rng.get_state()
    return (*keys.tolist(), pos)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 7, 2**70 + 3,
                                  -1, -5, -2**35])
def test_stream_is_seeded_as_python_random(seed):
    # Seeding with the integer, the high word first or a signed seed each
    # draws other numbers, or raises.
    ref = random.Random(seed)
    got = verify.stream(seed).random_sample(5000).tolist()
    assert list(map(_bits, got)) == [_bits(ref.random()) for _ in range(5000)]


@pytest.mark.parametrize("seed", [0, 42, 1070767975])
@pytest.mark.parametrize("draw, scalar", [
    (verify._draw_potentials, _scalar_potential),
    (verify._draw_at_energy, _scalar_at_energy),
    (verify._draw_v2_zero, _scalar_v2_zero),
    (verify._draw_lossy, _scalar_lossy),
    (verify._draw_axis, _scalar_axis),
    (verify._draw_quaternions, _scalar_quaternions),
    (verify._draw_complex, _scalar_complex),
    (verify._draw_quartics, _scalar_quartic),
    (verify._draw_band, _scalar_band),
])
def test_block_draws_equal_scalar_draws(seed, draw, scalar):
    trials = 2 * verify._BLOCK + 77
    bulk, one_by_one = verify.stream(seed), random.Random(seed)
    got = [row for _, columns in verify._blocks(bulk, trials, draw)
           for row in zip(*(np.broadcast_to(c, len(columns[0])).tolist() for c in columns))]
    want = [scalar(one_by_one) for _ in range(trials)]
    assert [tuple(map(_bits, row)) for row in got] == [tuple(map(_bits, row)) for row in want]
    assert _state(bulk) == one_by_one.getstate()[1]
    assert bulk.random_sample() == one_by_one.random()


def test_axis_draws_keep_every_value():
    # 0.5 draws v1 = 0 exactly, which is kept: the closed forms give g^2 = 0
    # exactly on the v2 = 0 axis, so no draw needs skipping.
    stream = [0.1, 0.5, 0.7, 0.5, 0.2, 0.3]
    requests = []

    def uniform(a, b, n):
        requests.append(n)
        block, stream[:n] = stream[:n], []
        return verify._uniform(a, b, np.array(block))

    v1, v2 = verify._draw_axis(SimpleNamespace(uniform=uniform), 4)
    assert v1.tolist() == [verify._uniform(-10.0, 10.0, u) for u in (0.1, 0.5, 0.7, 0.5)]
    assert v2.tolist() == [0.0] * 4
    assert requests == [4]
    assert stream == [0.2, 0.3]


def _change_row(found, n, **fields):
    arrays = {"roots": found.roots.copy(), "reconstructs": found.reconstructs.copy()}
    for name, value in fields.items():
        arrays[name][n] = value
    return oracle.RootArrays(**arrays)


def _patch_root_calls(monkeypatch, *changes):
    """Apply changes[k] to the result of the k-th stacked root call."""
    unpatched, calls = oracle.quartic_roots, []

    def quartic_roots(coeffs):
        found = unpatched(coeffs)
        change = changes[len(calls)] if len(calls) < len(changes) else None
        calls.append(found)
        return found if change is None else change(found)

    monkeypatch.setattr(verify.oracle, "quartic_roots", quartic_roots)
    return calls


def _patch_certificate(monkeypatch, *refusals):
    """Refuse the rows refusals[k] of the k-th certificate call."""
    unpatched, calls = oracle.certify_double_root, []

    def certify_double_root(v1, v2, sol):
        radius, root = unpatched(v1, v2, sol)
        rows = list(refusals[len(calls)]) if len(calls) < len(refusals) else []
        calls.append(rows)
        radius[rows], root[rows] = math.nan, math.nan
        return radius, root

    monkeypatch.setattr(verify.oracle, "certify_double_root", certify_double_root)


def test_quaternion_algebra_resumes_after_a_failure(monkeypatch):
    bad = 123
    unpatched = verify.symplectic_join

    def symplectic_join(z1, z2):
        q = unpatched(z1, z2)
        w = np.array(q.w, copy=True)
        w[bad] += 1.0
        return dataclasses.replace(q, w=w)

    monkeypatch.setattr(verify, "symplectic_join", symplectic_join)
    rng = verify.stream(7)
    check = verify.check_quaternion_algebra(rng)
    assert (check.passed, check.detail) == (False, "split/join round trip not exact")
    # The j z identity does not run: the generator ends after the first
    # stage's one block of 500 draws of 12 numbers.
    assert _state(rng) == _advanced(7, 12 * 500).getstate()[1]


def test_quaternion_algebra_passes_all_draws():
    rng = verify.stream(7)
    assert verify.check_quaternion_algebra(rng).passed
    assert _state(rng) == _advanced(7, 12 * 500 + 2 * 500).getstate()[1]


def test_quartic_oracle_resumes_after_a_reconstruction_failure(monkeypatch):
    bad = 17
    roots = _patch_root_calls(monkeypatch, lambda found: _change_row(
        found, bad, roots=found.roots[bad] + 0.5j))
    rng = verify.stream(9)
    check = verify.check_quartic_root_oracle(rng, 10000)
    assert (check.passed, check.detail) == (False, f"root set not conjugate-closed at draw {bad}")
    # The branch stage does not run: one stacked root call, and the generator
    # ends after the first stage's one block of 300 quartics.
    assert len(roots) == 1
    assert _state(rng) == _advanced(9, 4 * 300).getstate()[1]


def test_quartic_oracle_names_the_first_missing_branch_root(monkeypatch):
    bad = 31
    _patch_certificate(monkeypatch, [bad])   # the plus branch of the first block
    rng = verify.stream(9)
    check = verify.check_quartic_root_oracle(rng, 10000)
    ref = _advanced(9, 4 * 300)
    for _ in range(bad + 1):
        v2 = 0.1 + 9.9 * _open_unit(ref)
        v1 = KAPPA * v2 * ref.random()
    plus, _ = verify.ss_closed_form(v1, v2)
    assert plus.feasible
    assert check.detail == f"branch beta {plus.beta!r} missing from roots at ({v1!r},{v2!r})"
    # The generator ends after the branch stage's one block of 100 pairs.
    assert _state(rng) == _advanced(9, 4 * 300 + 2 * 100).getstate()[1]


def test_reconstruction_failure_raises_in_draw_order(monkeypatch):
    # A failing reconstruction at draw 40 raises, unless a draw before it
    # fails its own check first.
    _patch_root_calls(monkeypatch, lambda found: _change_row(found, 40, reconstructs=False))
    with pytest.raises(NumericalError, match="fails to reconstruct"):
        verify.check_quartic_root_oracle(verify.stream(9), 10000)
    _patch_root_calls(monkeypatch, lambda found: _change_row(
        _change_row(found, 40, reconstructs=False), 39, roots=found.roots[39] + 0.5j))
    check = verify.check_quartic_root_oracle(verify.stream(9), 10000)
    assert check.detail == "root set not conjugate-closed at draw 39"


def test_double_root_boundary_failures_in_draw_order(monkeypatch):
    # A refused certificate fails the pair; of two, the earlier draw is named.
    ref = _advanced(46, 2 * 4)
    pairs = [_scalar_lossy(ref) for _ in range(2)]
    for refused, (v1, v2) in (([5], pairs[1]), ([5, 4], pairs[0])):
        _patch_certificate(monkeypatch, refused)
        check = verify.check_double_root_boundary(verify.stream(46), 100)
        assert check.detail.startswith("no real double root at beta+=")
        assert check.detail.endswith(f" for ({v1!r},{v2!r})")


# Suite seeds whose double-root-boundary check failed while the quartic's
# e was summed with cancellation.
@pytest.mark.parametrize("seed", [93, 202, 209, 539, 611, 663, 1070767975])
def test_double_root_boundary_passes_where_e_cancelled(seed):
    check = verify.check_double_root_boundary(verify.stream(seed + 4), 100)
    assert check.passed, check.detail


def test_double_root_boundary_census():
    failing = [seed for seed in range(1, 1501)
               if not verify.check_double_root_boundary(verify.stream(seed + 4), 100).passed]
    assert failing == []


def test_verify_solves_the_mode_probe_once_per_mode(monkeypatch):
    unpatched, modes = verify.oracle.matching_solver, []

    def matching_solver(pot, energy, mode):
        # The matching check solves whole blocks of draws; the probe, one energy.
        if np.ndim(energy) == 0:
            modes.append(mode)
        return unpatched(pot, energy, mode)

    monkeypatch.setattr(verify.oracle, "matching_solver", matching_solver)
    passed, text = verify.run_and_render(42, 50)
    assert passed
    assert sorted(modes) == sorted(MatchMode)
    assert text.count(f"|dr| = {verify.mode_divergence_at_probe():.6e}") == 2


def test_digest_script_hashes_the_printed_reports(capsys):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "verify_digests.py"),
                           "--first", "6", "--last", "7", "--trials", "20"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    want = []
    for seed in (6, 7):
        cli.main(["verify", f"--seed={seed}", "--trials=20"])
        want.append(f"{seed} 20 {hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}")
    assert proc.stdout.splitlines() == want
