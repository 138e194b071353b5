import itertools
import math
import time

import numpy as np
import numpy.polynomial.hermite as nph
import pytest

from opaa import quadrature
from opaa.errors import CapacityError, NumericalDomainError
from opaa.hermite import build_table, eval_h
from opaa.quadrature import (
    MAX_ORDER,
    TensorGrid,
    eigenvector_weights,
    gauss_hermite,
    integrate_1d,
    weight_multiset_stats,
)

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_order_one_rule():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-14)
    assert rule.scaled_nodes.tolist() == [0.0]
    assert rule.scaled_weights[0] == pytest.approx(SQRT_2PI, rel=1e-14)


def test_order_two_rule():
    rule = gauss_hermite(2)
    root = 1.0 / math.sqrt(2.0)
    assert np.allclose(rule.nodes, [-root, root], atol=1e-14)
    assert np.allclose(rule.weights, [SQRT_PI / 2] * 2, rtol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 34, 64, 128, MAX_ORDER])
def test_rule_against_numpy_hermgauss(order):
    rule = gauss_hermite(order)
    ref_nodes, ref_weights = nph.hermgauss(order)
    assert np.allclose(rule.nodes, ref_nodes, atol=1e-13 * max(1.0, ref_nodes.max()))
    assert np.allclose(rule.weights, ref_weights, rtol=1e-11, atol=1e-300)


def test_node_symmetry_is_exact():
    for order in (2, 3, 7, 16, 33):
        rule = gauss_hermite(order)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        if order % 2 == 1:
            assert rule.nodes[order // 2] == 0.0


def test_nodes_strictly_increasing_and_weights_positive():
    for order in range(1, 65):
        rule = gauss_hermite(order)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)


def test_mass_sums():
    for order in range(1, 65):
        rule = gauss_hermite(order)
        assert abs(rule.weights.sum() - SQRT_PI) <= 1e-12
        assert abs(rule.scaled_weights.sum() - SQRT_2PI) <= 1e-12


def test_node_interlacing():
    prev = gauss_hermite(1).nodes
    for order in range(2, 40):
        cur = gauss_hermite(order).nodes
        # every old node falls strictly between consecutive new ones
        for i, r in enumerate(prev):
            assert cur[i] < r < cur[i + 1]
        prev = cur


def test_formula_and_eigenvector_weights_agree():
    for order in (1, 2, 5, 12, 33, 64, 128, MAX_ORDER):
        rule = gauss_hermite(order)
        alt = eigenvector_weights(order)
        assert np.allclose(rule.weights, alt, rtol=1e-10, atol=1e-300)


def test_max_order_rule_is_sane():
    rule = gauss_hermite(MAX_ORDER)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - SQRT_PI) <= 1e-10


@pytest.mark.parametrize("order", [0, -3, MAX_ORDER + 1, 3.0, "3", None])
def test_order_validation(order):
    # invalid orders must fail before the rule cache: 3.0 hashes and
    # compares equal to 3, so a cache keyed on the raw argument would hand
    # back the order-3 rule instead of raising
    gauss_hermite(3)
    builds = quadrature._build_rule.cache_info().currsize
    with pytest.raises(ValueError):
        gauss_hermite(order)
    assert quadrature._build_rule.cache_info().currsize == builds


def test_rules_are_cached_per_order():
    rule = gauss_hermite(17)
    assert gauss_hermite(17) is rule
    assert gauss_hermite(np.int64(17)) is rule
    assert gauss_hermite(18) is not rule
    for arr in (rule.nodes, rule.weights, rule.scaled_nodes, rule.scaled_weights):
        assert not arr.flags.writeable


def test_the_rule_cache_keeps_the_most_recent_orders():
    # of 64 orders the 16 used last stay the same instances; an older one
    # is built again
    rules = {order: gauss_hermite(order) for order in range(1, 65)}
    info = quadrature._build_rule.cache_info()
    assert info.maxsize == info.currsize == quadrature._RULE_CACHE_ORDERS == 16
    assert all(gauss_hermite(order) is rules[order] for order in range(49, 65))
    assert gauss_hermite(48) is not rules[48]


def gaussian_moment(k):
    # integral of x^k e^{-x^2/2} dx
    if k % 2 == 1:
        return 0.0
    return SQRT_2PI * math.prod(range(k - 1, 0, -2))


def test_integrate_constant():
    for order in (1, 4, 9):
        rule = gauss_hermite(order)
        assert integrate_1d(lambda x: 1.0, rule) == pytest.approx(SQRT_2PI, rel=1e-14)


def test_integrate_second_moment():
    rule = gauss_hermite(2)
    assert integrate_1d(lambda x: x * x, rule) == pytest.approx(SQRT_2PI, rel=1e-13)


def test_integrate_odd_function_vanishes():
    rule = gauss_hermite(7)
    assert abs(integrate_1d(lambda x: x, rule)) <= 1e-14


def test_monomial_exactness():
    for order in range(1, 21):
        rule = gauss_hermite(order)
        for k in range(2 * order):
            est = integrate_1d(lambda x, k=k: x**k, rule)
            exact = gaussian_moment(k)
            scale = exact if exact else gaussian_moment(k + 1)
            assert abs(est - exact) <= 1e-10 * scale, (order, k)


def test_integrate_rejects_non_finite_values():
    rule = gauss_hermite(3)
    with pytest.raises(NumericalDomainError) as err:
        integrate_1d(lambda x: float("nan") if x == 0.0 else 1.0, rule)
    assert "node" in str(err.value)


def test_grid_node_and_weight_lookup():
    grid = TensorGrid(gauss_hermite(2), 2)
    (j,) = grid.decode(0, 1)
    assert np.allclose(grid.rule.scaled_nodes[j], [-1.0, -1.0], atol=1e-14)
    weight = np.prod(grid.rule.scaled_weights[j])
    assert weight == pytest.approx(math.pi / 2, rel=1e-13)
    assert grid.total_count == 4


def test_grid_weight_permutation_invariance():
    grid = TensorGrid(gauss_hermite(4), 2)
    weights = np.prod(grid.rule.scaled_weights[grid.decode(0, 16)], axis=1)
    # linear index 4 * a + b holds the node pair (a, b)
    assert weights[4 * 0 + 2] == weights[4 * 2 + 0]


def test_decode_is_odometer_order():
    grid = TensorGrid(gauss_hermite(3), 3)
    idx = grid.decode(0, grid.total_count)
    expected = np.array(list(itertools.product(range(3), repeat=3)))
    assert np.array_equal(idx, expected)


def test_decode_range_validation():
    grid = TensorGrid(gauss_hermite(3), 2)
    with pytest.raises(ValueError):
        grid.decode(-1, 4)
    with pytest.raises(ValueError):
        grid.decode(2, 10)


def test_block_ranges_partition_the_grid():
    grid = TensorGrid(gauss_hermite(5), 3)
    ranges = grid.block_ranges(17)
    assert ranges[0][0] == 0
    assert ranges[-1][1] == 125
    for (a, b), (c, _) in zip(ranges, ranges[1:]):
        assert b == c
        assert b - a == 17


def test_tensor_mass_small_grid():
    grid = TensorGrid(gauss_hermite(3), 2)
    total = sum(
        float(np.prod(grid.rule.scaled_weights[j])) for j in grid.decode(0, 9)
    )
    assert total == pytest.approx(2 * math.pi, rel=1e-12)


def test_tensor_mass_streamed_large_grid():
    # 10^5 points, streamed through decode in fixed blocks
    grid = TensorGrid(gauss_hermite(10), 5)
    acc = 0.0
    for start, stop in grid.block_ranges(2**14):
        idx = grid.decode(start, stop)
        acc += float(np.prod(grid.rule.scaled_weights[idx], axis=1).sum())
    assert acc == pytest.approx((2 * math.pi) ** 2.5, rel=1e-9)


def test_weight_stats_paper_scale():
    distinct, total, hist = weight_multiset_stats(5, 10)
    assert distinct == 1001
    assert total == 9765625
    assert len(hist) == 1001
    assert sum(m for _, m in hist) == 9765625


def test_weight_stats_refuses_huge_histograms():
    # C(265, 10) ~ 4e17 multisets; the refusal comes before any of them
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="distinct weights"):
        weight_multiset_stats(256, 10)
    # 3**(10**7) alone takes seconds to compute, so it must not be
    with pytest.raises(CapacityError):
        weight_multiset_stats(3, 10**7)
    assert time.perf_counter() - start < 1.0


def test_weight_stats_single_node():
    distinct, total, hist = weight_multiset_stats(1, 7)
    assert distinct == 1
    assert total == 1
    assert hist[0][1] == 1


def test_weight_stats_small_case_brute_force():
    distinct, total, hist = weight_multiset_stats(3, 2)
    assert (distinct, total) == (6, 9)
    rule = gauss_hermite(3)
    enumerated = sorted(
        float(np.prod(rule.scaled_weights[list(combo)]))
        for combo in itertools.product(range(3), repeat=2)
    )
    expanded = sorted(
        w for w, m in hist for _ in range(m)
    )
    assert np.allclose(enumerated, expanded, rtol=1e-12)


def test_weight_stats_enumeration_cross_check():
    # 3^6 = 729 indices, small enough to enumerate exactly
    distinct, total, hist = weight_multiset_stats(3, 6)
    assert distinct == math.comb(8, 6)
    assert total == 729
    rule = gauss_hermite(3)
    enumerated = sorted(
        float(np.prod(rule.scaled_weights[list(combo)]))
        for combo in itertools.product(range(3), repeat=6)
    )
    expanded = sorted(w for w, m in hist for _ in range(m))
    assert len(expanded) == 729
    assert np.allclose(enumerated, expanded, rtol=1e-12)


def test_rule_arrays_immutable():
    rule = gauss_hermite(4)
    arrays = (rule.nodes, rule.weights, rule.scaled_nodes, rule.scaled_weights)
    for arr in (*arrays, rule.table.points, rule.table.values):
        assert not arr.flags.writeable


@pytest.mark.parametrize("order", [1, 2, 3, 7, 32, 128, MAX_ORDER])
def test_rule_table_is_the_table_of_its_nodes(order):
    rule = gauss_hermite(order)
    table = build_table(order - 1, rule.nodes)
    assert rule.table.max_degree == order - 1
    assert rule.table.points.tobytes() == rule.nodes.tobytes()
    assert rule.table.values.tobytes() == table.values.tobytes()


def test_weights_from_the_table_keep_their_bits():
    # the closed form evaluated by its own h_{order-1} recurrence, as the
    # rules computed their weights before they carried a table. Each rule
    # is built past the per-order cache, which would otherwise keep all 256
    # Hermite tables (49 MB) alive for the rest of the process.
    for order in range(1, MAX_ORDER + 1):
        rule = quadrature._build_rule.__wrapped__(order)
        weights = 1.0 / (order * eval_h(order - 1, rule.nodes) ** 2)
        weights = 0.5 * (weights + weights[::-1])
        assert rule.weights.tobytes() == weights.tobytes(), order


def test_discrete_orthonormality():
    # raw rule integrates h_i h_j e^{-x^2} exactly for i + j <= 2*order - 1
    order = 13
    rule = gauss_hermite(order)
    table = build_table(12, rule.nodes)
    gram = (table.values * rule.weights) @ table.values.T
    assert np.max(np.abs(gram - np.eye(13))) <= 1e-10
