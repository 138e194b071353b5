import math
import warnings

import numpy as np
import numpy.polynomial.hermite as nph
import pytest

from opaa.hermite import (
    HermiteTable,
    build_table,
    eval_h,
    eval_psi,
    extend_table,
    psi_table,
)

PI4 = math.pi ** -0.25


def h_direct(n, x):
    # independent route: physicists' H_n from numpy, normalized explicitly
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    norm = math.sqrt(math.sqrt(math.pi) * 2.0**n * math.factorial(n))
    return nph.hermval(x, coef) / norm


def test_h0_is_constant():
    assert eval_h(0, 3.7) == pytest.approx(PI4, abs=1e-15)
    xs = np.linspace(-9, 9, 11)
    assert np.allclose(eval_h(0, xs), PI4, atol=1e-15)


def test_h1_at_one():
    assert eval_h(1, 1.0) == pytest.approx(math.sqrt(2.0) * PI4, rel=1e-14)


def test_h2_at_zero():
    expected = -1.0 / (math.sqrt(2.0) * math.pi**0.25)
    assert eval_h(2, 0.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", range(21))
def test_recurrence_matches_direct_evaluation(n):
    xs = np.linspace(-5.0, 5.0, 81)
    ours = eval_h(n, xs)
    ref = h_direct(n, xs)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ours - ref)) <= 1e-10 * scale


def test_parity():
    xs = np.linspace(0.1, 6.0, 40)
    for n in (0, 1, 2, 3, 7, 12, 25):
        left = eval_h(n, -xs)
        right = (-1.0) ** n * eval_h(n, xs)
        assert np.max(np.abs(left - right)) <= 1e-14


def test_high_degree_does_not_overflow():
    # normalized recurrence stays finite where unnormalized H_n overflows
    v = eval_h(400, 1.5)
    assert np.isfinite(v)


def test_psi_at_origin():
    assert eval_psi(0, 0.0) == pytest.approx(PI4, abs=1e-15)


def test_psi_far_tail_underflows_cleanly():
    assert abs(eval_psi(5, 100.0)) <= 1e-300


def test_psi_at_huge_finite_coordinates_is_zero_without_warnings():
    # x^2 used to overflow with a RuntimeWarning at 1e200, and past
    # max_float / sqrt(2) the recurrence formed inf * 0 = nan
    xs = np.array([1e200, -1e200, 1.5e308, -np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = psi_table(5, xs)
        assert eval_psi(3, 1e200) == 0.0
        assert np.array_equal(eval_psi(4, xs), np.zeros(4))
    assert np.array_equal(table, np.zeros((6, 4)))


def test_psi_equals_h_times_gaussian_at_moderate_x():
    xs = np.linspace(-6.0, 6.0, 25)
    for n in (0, 1, 4, 9):
        direct = eval_h(n, xs) * np.exp(-0.5 * xs**2)
        assert np.allclose(eval_psi(n, xs), direct, rtol=1e-12, atol=1e-14)


def test_cramer_bound_sampled():
    xs = np.arange(-20.0, 20.0 + 1e-9, 1e-3)
    table = psi_table(50, xs)
    assert np.max(np.abs(table)) <= 1.09 * PI4


def test_scalar_input_returns_float():
    assert isinstance(eval_h(3, 0.5), float)
    assert isinstance(eval_psi(3, 0.5), float)


def test_build_table_degree_zero():
    table = build_table(0, [0.0])
    assert table.values.shape == (1, 1)
    assert table.values[0][0] == pytest.approx(PI4, abs=1e-15)


def test_build_table_matches_eval_h():
    pts = np.linspace(-3.0, 3.0, 7)
    table = build_table(9, pts)
    assert table.values[2][3] == pytest.approx(eval_h(2, 0.0), rel=1e-14)
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(0, 10))
        i = int(rng.integers(0, 7))
        assert table.values[d, i] == eval_h(d, pts[i])


def test_build_table_rejects_empty_points():
    with pytest.raises(ValueError):
        build_table(2, [])


def test_table_rows_satisfy_recurrence():
    pts = np.linspace(-4.0, 4.0, 9)
    table = build_table(12, pts)
    for n in range(1, 12):
        redone = pts * math.sqrt(2.0 / (n + 1)) * table.values[n] - math.sqrt(
            n / (n + 1.0)
        ) * table.values[n - 1]
        assert np.allclose(redone, table.values[n + 1], rtol=1e-12, atol=1e-300)


def test_extend_table_is_bitwise_consistent():
    pts = np.linspace(-2.0, 2.0, 5)
    small = build_table(3, pts)
    grown = extend_table(small, 8)
    full = build_table(8, pts)
    assert np.array_equal(grown.values, full.values)
    assert grown.max_degree == 8


def test_extend_table_noop_when_covered():
    pts = [0.0, 1.0]
    table = build_table(5, pts)
    assert extend_table(table, 3) is table


def test_table_is_immutable():
    table = build_table(2, [0.0, 1.0])
    assert not table.values.flags.writeable
    assert not table.points.flags.writeable
    with pytest.raises(ValueError):
        table.values[0, 0] = 99.0


def test_psi_table_matches_eval_psi():
    xs = np.linspace(-8.0, 8.0, 17)
    table = psi_table(6, xs)
    assert table.shape == (7, 17)
    for n in (0, 3, 6):
        assert np.allclose(table[n], eval_psi(n, xs), rtol=1e-13, atol=1e-300)
