"""The CSV cell renderer: ``cli._csv_text`` is byte-identical to ``'%.16e' % v``.

Most cells take the vectorized path (``cli._decimal``); the cells it cannot
certify (out of its range, or within the margin of a rounding tie) take '%'.
"""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_toa import cli

TINY = np.finfo(float).tiny
MAX = np.finfo(float).max
# cells that take '%': out of range, or ties
FALLBACK = [5e-324, -5e-324, 1e-310, TINY, 1e-281, 1e281, MAX, -MAX, 1 + 2**-17, 1e15 + 0.25]


def cells(text: str) -> list:
    """The cells of ``_csv_text`` output, row by row."""
    assert text.startswith("\n")
    return [row.split(",") for row in text[1:].split("\n")]


def per_cell(block: np.ndarray) -> list:
    return [["%.16e" % v for v in row] for row in block.tolist()]


def assert_renders(values, n_cols: int = 1) -> None:
    block = np.asarray(values, dtype=float).reshape(-1, n_cols)
    assert cells(cli._csv_text(block)) == per_cell(block)


def fast(values) -> np.ndarray:
    return cli._decimal(np.asarray(values, dtype=float))[2]


def is_tie(v: float) -> bool:
    """Whether |v| lies exactly halfway between two 17-digit decimals."""
    q = abs(Fraction(v))
    e = math.floor(math.log10(abs(v)))
    e += (q >= Fraction(10) ** (e + 1)) - (q < Fraction(10) ** e)
    return q * Fraction(10) ** (16 - e) % 1 == Fraction(1, 2)


def in_fast_range(values) -> np.ndarray:
    a = np.abs(values)
    return (a >= 1e-280) & (a <= 1e280) & ~np.array([is_tie(v) for v in a.tolist()])


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
    .filter(np.isfinite),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    st.lists(finite_floats, min_size=1, max_size=60),
    st.lists(st.sampled_from(FALLBACK), max_size=4),
    st.integers(1, 9),
    st.randoms(use_true_random=False),
)
def test_cells_match_percent_formatting(values, fallback, n_cols, rnd):
    values = values + fallback
    rnd.shuffle(values)
    values += [1.0] * (-len(values) % n_cols)
    assert_renders(values, n_cols)


def test_signed_zeros_extremes_and_subnormals():
    edge = [0.0, 5e-324, TINY, np.nextafter(TINY, 0), np.nextafter(TINY, 1), MAX]
    values = edge + [-v for v in edge]
    assert_renders(values, 4)
    assert fast([0.0, -0.0]).all()
    assert not fast(values[1:6]).any()


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-308, 309)])
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    assert_renders(np.concatenate([values, -values]), 6)
    assert (fast(values) == in_fast_range(values)).all()
    assert not fast([np.nextafter(1e15, 0)]).any()  # 999999999999999.875, a tie


def test_fast_range_edges_and_three_digit_exponents():
    edges = np.array([1e-280, 1e280])
    values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    values = np.concatenate([values, [1e99, 9.99e99, 1e100, 1.5e-100, 1e-99, 3e250, 7e-250]])
    assert_renders(np.concatenate([values, -values]), 2)
    assert (fast(values) == in_fast_range(values)).all()
    assert fast([1e-280, 1e280, 1e100, 1.5e-100]).all()
    assert not fast([np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf)]).any()


def test_seventeen_digit_carries_into_the_next_decade():
    # the double nearest 10^k lies below 10^k and rounds up to 1.0...0e+k
    carries = [k for k in range(-279, 280) if Fraction(float(f"1e{k}")) < Fraction(10) ** k
               and "%.16e" % float(f"1e{k}") == "1.0000000000000000e%+03d" % k]
    assert len(carries) >= 5
    values = [float(f"1e{k}") for k in carries]
    assert_renders(values + [-v for v in values], 2)
    assert fast(values).all()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.integers(-8, 15), st.data())
def test_ties_take_percent_and_round_half_to_even(e, data):
    # x = m 2^(e - 17) with m odd is 18 significant digits ending in 5 whenever
    # it lies in decade e, which needs e in [-8, 15] for m < 2^53
    lo = Fraction(10) ** e * 2 ** (17 - e)
    hi = min(lo * 10, Fraction(2**53))
    m = data.draw(st.integers(int(lo) + 1, int(hi) - 1).map(lambda k: k | 1))
    x = m * 2.0 ** (e - 17)
    assert is_tie(x)
    assert not fast([x]).any()
    assert_renders([x, -x], 2)


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_a_log10_one_off_either_way_changes_no_cell(monkeypatch, shift):
    # floor(log10|x| + shift) puts e one off for about half the cells
    rng = np.random.default_rng(8)
    block = rng.standard_normal((200, 5)) * 10.0 ** rng.integers(-250, 250, (200, 5))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert cells(cli._csv_text(block)) == per_cell(block)
    assert (fast(block.ravel()) == in_fast_range(block.ravel())).all()


def test_every_default_arrival_cell_takes_the_fast_path(tmp_path):
    assert cli.main(["arrival", "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "arrival.csv", delimiter=",", skiprows=1)
    assert fast(data.ravel()).all()


def test_ten_power_table_is_the_correctly_rounded_split():
    e = np.arange(-cli._E, cli._E + 1)
    hi, lo = cli._tens(e)
    for j, h, l in zip(e.tolist(), hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** (16 - j)
        assert h == float(exact) and l == float(exact - Fraction(h)), j


def test_import_and_render_load_no_module_and_fill_only_needed_powers():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import dirac_toa.cli as cli\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
        "loaded = set(sys.modules)\n"
        "cli._csv_text(np.array([[1.0, -2.5], [3.0, 0.0]]))\n"
        "print(sorted(set(sys.modules) - loaded))\n"
        "print(int(np.isfinite(cli._TENS[0]).sum()))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:3] == ["[]", "[]", "1"], out
