"""g17.Formatter against CPython's '%.17g', byte for byte."""

import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelta import g17


def _cpython(x: np.ndarray, cols: int = 1) -> str:
    cells = ["%.17g" % v for v in x.tolist()]
    return "".join(",".join(cells[i:i + cols]) + "\n" for i in range(0, len(cells), cols))


def _assert_exact(x, cols: int = 1, rows: int | None = None) -> None:
    """x, formatted through one formatter of `rows` rows a block (all of x by
    default), equals CPython's text."""
    x = np.asarray(x, dtype=float).reshape(-1, cols)
    rows = rows or len(x)
    fmt = g17.Formatter(rows, cols)
    got = "".join(fmt.text(x[i:i + rows]) for i in range(0, len(x), rows))
    want = _cpython(x.reshape(-1), cols)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()))
                   if g != w)
        pytest.fail(f"row {bad}: {got.splitlines()[bad]!r} != {want.splitlines()[bad]!r}")


def _neighbours(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_hypothesis_floats(values):
    _assert_exact(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(20250).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64,
                                                  endpoint=False)
    _assert_exact(bits.view(np.float64), cols=8, rows=4096)


def test_log_uniform_magnitudes_of_both_signs():
    rng = np.random.default_rng(7)
    x = np.exp(rng.uniform(math.log(1e-323), math.log(1.7e308), 9 * 22_222))
    _assert_exact(x * rng.choice([-1.0, 1.0], x.size), cols=9, rows=512)


def test_powers_of_ten_and_two_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_exact(_neighbours(np.concatenate([tens, twos])))


@pytest.mark.parametrize("x", [-5, -4, 16, 17])
def test_both_notations_at_the_switching_exponents(x):
    # %g takes fixed notation for -4 <= X < 17 and exponent notation otherwise.
    rng = np.random.default_rng(x + 100)
    edges = np.array([10.0 ** x, 10.0 ** (x + 1)])
    inside = 10.0 ** x * rng.uniform(1.0, 10.0, 20_000)
    short = np.round(inside, 3 - x)        # trailing zeros to drop
    _assert_exact(np.concatenate([_neighbours(edges), inside, -inside, short]))


def test_exact_ties_round_half_to_even():
    # 1234567890123456.75 has 18 digits, the last a 5: '%.17g' rounds it to even.
    ties = [1234567890123456.75, 1234567890123456.25, -2.5, 0.5, 7.0000000000000005e-1]
    assert g17.Formatter(1, 1).text(np.array([[1234567890123456.75]])) == "1234567890123456.8\n"
    _assert_exact(ties)


def _v_fraction(x: float) -> Fraction:
    """The fraction of V = |x| 10^(16 - X), X = floor(log10|x|), exactly."""
    v = abs(Fraction(x)) * Fraction(10) ** (16 - math.floor(math.log10(abs(x))))
    return v - math.floor(v)


def _near_half(x: float, within: Fraction = Fraction(1, 128)) -> bool:
    """V's fraction lies within `within` of 1/2 (2^-7, the kernel's window
    where 10^p is inexact) but is not 1/2."""
    return 0 < abs(_v_fraction(x) - Fraction(1, 2)) <= within


def _formatted(x: list[float]) -> tuple[str, int]:
    fmt = g17.Formatter(max(len(x), 1), 1)
    return fmt.text(np.array(x).reshape(-1, 1)), fmt.fallbacks


@pytest.mark.parametrize("x", range(-11, 17))
def test_only_exact_ties_go_to_cpython_where_ten_to_the_p_is_exact(x):
    # For p = 16 - X in [0, 27], 5^p < 2^64, so c_p is 10^p exactly and f c_p
    # holds V and its fraction exactly: the kernel rounds every cell itself but
    # the exact ties, which '%.17g' rounds half to even. For X >= 13 the
    # fraction's grain, 10^p ulp(x) modulo 1, is 2^-6 or coarser, so no cell
    # lies in the 2^-7 window there but the ties.
    rng = np.random.default_rng(x + 40)
    values = (10.0 ** x * rng.uniform(1.5, 9.5, 3000)).tolist()
    near = [v for v in values if _near_half(v)]
    assert bool(near) == (x <= 12), len(near)
    near += [-v for v in near]
    assert _formatted(near) == (_cpython(np.array(near)), 0)
    ties = sum(_v_fraction(v) == Fraction(1, 2) for v in values)
    both = values + [-v for v in values]
    assert _formatted(both) == (_cpython(np.array(both)), 2 * ties)


def test_exact_ties_keep_going_to_cpython():
    # A tie is x = odd 2^-(p+1) with V = odd 5^p / 2 in [10^16, 10^17), which
    # some double meets for p in [1, 24], X in [-8, 15].
    for p in range(1, 25):
        x = float(Fraction(3 * 10 ** 16 // 5 ** p | 1, 2 ** (p + 1)))
        assert _v_fraction(x) == Fraction(1, 2) and math.floor(math.log10(x)) == 16 - p
        for value in (x, -x):
            assert _formatted([value]) == ("%.17g\n" % value, 1), value
    assert _formatted([1000000000000000.25]) == ("1000000000000000.2\n", 1)


@pytest.mark.parametrize("x", [-13, -12, 17, 20])
def test_near_half_cells_go_to_cpython_outside_the_exact_powers(x):
    # p = 28 and p = -1 are the first powers past the exact ones: 10^p is
    # rounded there, so a fraction within 2^-7 of 1/2 still goes to CPython.
    # The cells taken lie within 2^-9 of 1/2, so that the kernel's fraction,
    # off by at most 0.0055 there, surely lies in its window. From X = 17 to 19
    # no double has one (V's fraction is a multiple of 0.2, 0.04 or 0.008), so
    # the window table is checked too: 0 exactly for p in [0, 27].
    window = g17._tables()[2]
    assert (np.flatnonzero(window == 0) + g17._P_MIN).tolist() == list(range(28))
    assert np.all(window[window != 0] == g17._NEAR)
    rng = np.random.default_rng(x + 80)
    near = [v for v in (10.0 ** x * rng.uniform(1.5, 9.5, 3000)).tolist()
            if _near_half(v, Fraction(1, 512))]
    assert bool(near) == (x != 17), len(near)
    for value in near + [-v for v in near]:
        assert _formatted([value]) == ("%.17g\n" % value, 1), value


def test_zeros_infinities_nans_and_subnormals():
    tiny = np.finfo(float).tiny
    _assert_exact([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                   5e-324, -5e-324, tiny - 5e-324, tiny, -tiny, 1e-310, 1.7976931348623157e308,
                   -1.7976931348623157e308])


@pytest.mark.parametrize("size", [1, 15, 16, 17, 2049])
def test_array_sizes(size):
    # Strided writes into the records go wrong in some numpy loops from 16
    # elements on; 2049 cells take five blocks of a 512-cell formatter.
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    _assert_exact(x)
    _assert_exact(x, rows=512)
    _assert_exact(x[:size // 9 * 9], cols=9, rows=57)


def test_a_formatter_reused_on_shorter_blocks_keeps_no_stale_cells():
    fmt = g17.Formatter(64, 3)
    long = np.full((64, 3), -1.2345678901234567e-300)
    assert fmt.text(long) == _cpython(long.reshape(-1), 3)
    short = np.array([[1.0, 2.5, 0.0]])
    assert fmt.text(short) == "1,2.5,0\n"
    assert fmt.text(short[:0]) == ""


def test_every_cell_through_the_fallback_gives_the_same_bytes(monkeypatch):
    scaled = g17._scaled

    def near_everywhere(bits, pidx, u, near, off):
        digits = scaled(bits, pidx, u, near, off)
        near[:] = True
        return digits

    monkeypatch.setattr(g17, "_scaled", near_everywhere)
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64),
                        rng.uniform(-10.0, 10.0, 20_000)])
    _assert_exact(x, cols=8, rows=512)


def _carries() -> list[float]:
    """The doubles just below a power of ten whose 17 digits round up to it."""
    found = []
    for k in range(-307, 309):
        power = Fraction(10) ** k
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        if (power - Fraction(below)) / power * 10 ** 17 <= Fraction(1, 2):
            found.append(below)
    return found


def test_misjudged_exponents_and_carries_go_to_cpython():
    # The double 1e-305 lies just below 10^-305 and its 17 digits round up to
    # it. 1e23 lies below 10^23 too, but floor(log10 x) gives X = 23, one too
    # high, so its V falls below 10^16.
    carries = _carries()
    assert len(carries) == 14 and "%.17g" % carries[0] == "1e-305"
    misjudged = [1e23, 99.99999999999999, 0.09999999999999999]
    assert [math.floor(math.log10(x)) for x in misjudged] == [23, 2, -1]
    for x in carries + misjudged:
        fmt = g17.Formatter(1, 1)
        assert (fmt.text(np.array([[x]])), fmt.fallbacks) == ("%.17g\n" % x, 1), x
    _assert_exact(carries)


def test_an_empty_block_is_no_text_and_no_fallbacks():
    fmt = g17.Formatter(4, 2)
    assert (fmt.text(np.array([[0.0, math.nan]])), fmt.fallbacks) == ("0,nan\n", 2)
    assert (fmt.text(np.empty((0, 2))), fmt.fallbacks) == ("", 0)


def test_every_row_of_the_mask_table():
    # Per row (layout of X, digit count k), the first of 500 seeded k-digit
    # decimals m 10^(X-k+1) whose '%.17g' text has that layout and k digits up
    # to the last nonzero one, and that the integer kernel formats itself.
    rng = np.random.default_rng(11)
    exponents = {21: [*range(-99, -4), *range(17, 100)],
                 22: [*range(-300, -99), *range(100, 301)]}
    fmt = g17.Formatter(1, 1)
    found = {}
    for category in range(23):
        for k in range(1, 18):
            for _ in range(500):
                x = (int(rng.choice(exponents[category])) if category in exponents
                     else category - 4)
                m = int(rng.integers(10 ** (k - 1), 10 ** k)) // 10 * 10 + int(rng.integers(1, 10))
                value = float(f"{rng.choice(['', '-'])}{m}e{x - k + 1}")
                text = Decimal("%.17g" % value)
                digits = "".join(map(str, text.as_tuple().digits)).rstrip("0")
                if (g17._category(text.adjusted()), len(digits)) != (category, k):
                    continue
                fmt.text(np.array([[value]]))
                if fmt.fallbacks == 0:
                    found[category, k] = value
                    break
    assert len(found) == 23 * 17 == g17._tables()[-1].shape[0]
    _assert_exact(list(found.values()))


def test_formatter_text_of_one_column_splits_into_the_cells():
    # As cli.scan_to_csv and scripts/check_g17.py take it: a 1-d array through
    # a one-column formatter, a workspace at a time, the text split at "\n".
    x = np.random.default_rng(5).uniform(-1e3, 1e3, 1000)
    fmt = g17.Formatter(64, 1)
    text = "".join(fmt.text(x[i:i + 64, None]) for i in range(0, x.size, 64))
    assert text.split("\n")[:-1] == ["%.17g" % v for v in x.tolist()]
    assert (fmt.text(x[:0, None]), fmt.fallbacks) == ("", 0)


def test_check_script_finds_no_mismatch():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "check_g17.py"),
                           "--count", "50000", "--seed", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("50000 random bit patterns (seed 1): 0 mismatches")
    assert lines[1].startswith("50000 log-uniform values in [1e-11, 1e17) (seed 1): 0 mismatches")
