import functools
import itertools
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import opaa
import opaa.core
from opaa.core import (
    AffineMap,
    ApproxDensity,
    CoefficientSet,
    GridPoints,
    TargetDensity,
    _lifted_weights,
    _resolve_workers,
    build_density,
    coefficient_naive,
    coefficients_contracted,
    run_opaa,
)
from opaa.errors import CapacityError, DegenerateTargetError, NumericalDomainError
from opaa.hermite import build_table, eval_psi, psi_table
from opaa.multiindex import enumerate_shell
from opaa.quadrature import TensorGrid, gauss_hermite


def make_grid_and_table(order, dim, degree):
    rule = gauss_hermite(order)
    return TensorGrid(rule, dim), build_table(degree, rule.nodes)


def test_identity_coefficient_is_kronecker():
    target = opaa.GaussianIdentity(1)
    grid, table = make_grid_and_table(4, 1, 3)
    assert coefficient_naive(target, grid, table, (0,)) == pytest.approx(1.0, abs=1e-12)
    assert abs(coefficient_naive(target, grid, table, (3,))) <= 1e-12


def test_identity_coefficient_order_one():
    # one node at the origin already integrates the degree-zero projection
    target = opaa.GaussianIdentity(1)
    grid, table = make_grid_and_table(1, 1, 0)
    assert coefficient_naive(target, grid, table, (0,)) == pytest.approx(1.0, rel=1e-14)


def test_planted_1d_recovery(planted_1d):
    grid, table = make_grid_and_table(4, 1, 3)
    values = {
        tau: coefficient_naive(planted_1d, grid, table, tau)
        for tau in [(0,), (1,), (2,), (3,)]
    }
    assert values[(0,)] == pytest.approx(1.0, abs=1e-10)
    assert values[(2,)] == pytest.approx(0.1, abs=1e-10)
    assert abs(values[(1,)]) <= 1e-10
    assert abs(values[(3,)]) <= 1e-10


def test_contracted_matches_naive_1d(planted_1d):
    grid, table = make_grid_and_table(6, 1, 5)
    coeffs = coefficients_contracted(planted_1d, grid, table, 5)
    for tau, a in coeffs.items():
        assert a == pytest.approx(
            coefficient_naive(planted_1d, grid, table, tau), abs=1e-12
        )


def test_planted_2d_recovery_via_contraction(planted_2d):
    # bracket is positive at every node of the order-3 grid, so sqrt(P)
    # coincides with the planted polynomial there and recovery is exact
    grid, table = make_grid_and_table(3, 2, 4)
    pts = grid.rule.nodes[grid.decode(0, grid.total_count)]
    assert planted_2d.bracket(pts).min() > 0
    coeffs = coefficients_contracted(planted_2d, grid, table, 4)
    assert coeffs.coefficient((0, 0)) == pytest.approx(1.0, abs=1e-9)
    assert coeffs.coefficient((1, 1)) == pytest.approx(0.2, abs=1e-9)
    others = [
        abs(a) for tau, a in coeffs.items() if tau not in ((0, 0), (1, 1))
    ]
    assert max(others) <= 1e-9


def test_path_equivalence_3d():
    target = opaa.GaussianIdentity(3)
    grid, table = make_grid_and_table(5, 3, 4)
    coeffs = coefficients_contracted(target, grid, table, 4)
    for tau in [(0, 0, 0), (2, 0, 2), (1, 1, 1), (4, 0, 0)]:
        assert coeffs.coefficient(tau) == pytest.approx(
            coefficient_naive(target, grid, table, tau), abs=1e-10
        )


class CountingTarget(TargetDensity):
    def __init__(self, target):
        self.dim = target.dim
        self.points = 0
        self._target = target

    def log_density_batch(self, points):
        self.points += len(points)
        return self._target.log_density_batch(points)


def test_contracted_capacity_guard(monkeypatch):
    # the cap is on the store the slabs fill, order x (min(D, order-1)+1)^(dim-1),
    # checked before the target is evaluated at all; degree 9 on 12 nodes is
    # a 12x10 store, exactly at the cap
    monkeypatch.setattr(opaa.core, "TENSOR_VALUE_LIMIT", 120)
    target = CountingTarget(opaa.GaussianIdentity(2))
    grid, table = make_grid_and_table(12, 2, 10)
    with pytest.raises(CapacityError) as err:
        coefficients_contracted(target, grid, table, 10)
    assert "box" in str(err.value)
    with pytest.raises(CapacityError):
        run_opaa(target, 12, max_degree=10, workers=1)
    assert target.points == 0
    coeffs = coefficients_contracted(target, grid, table, 9)
    assert coeffs.coefficient((0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert target.points == 144
    # on 10 nodes per-axis degrees stop at 9, so degree 30 still fits the cap
    grid10, table10 = make_grid_and_table(10, 2, 9)
    assert coefficients_contracted(target, grid10, table10, 30).max_degree == 18


def test_table_must_cover_degree_and_nodes():
    target = opaa.GaussianIdentity(1)
    rule = gauss_hermite(4)
    grid = TensorGrid(rule, 1)
    with pytest.raises(ValueError):
        coefficient_naive(target, grid, build_table(1, rule.nodes), (3,))
    with pytest.raises(ValueError):
        coefficient_naive(target, grid, build_table(5, rule.scaled_nodes), (3,))


def test_dimension_and_tau_validation():
    target = opaa.GaussianIdentity(2)
    grid, table = make_grid_and_table(3, 1, 2)
    with pytest.raises(ValueError):
        coefficient_naive(target, grid, table, (0,))
    target1 = opaa.GaussianIdentity(1)
    with pytest.raises(ValueError):
        coefficient_naive(target1, grid, table, (0, 1))
    with pytest.raises(ValueError):
        coefficient_naive(target1, grid, table, (-1,))


def test_non_finite_target_is_reported():
    class Spiky(TargetDensity):
        dim = 1

        def log_density(self, theta):
            spike = min(abs(theta[0]), abs(theta[0] - 5.0)) < 0.1
            return float("inf") if spike else -theta[0] ** 2

    grid, table = make_grid_and_table(3, 1, 1)
    with pytest.raises(NumericalDomainError) as err:
        coefficient_naive(Spiky(), grid, table, (0,))
    assert "node" in str(err.value)
    # under a map the message names the mapped node 2 * 0 + 5, where the
    # target was evaluated, not the raw node 0
    amap = AffineMap(scale=[2.0], shift=[5.0])
    with pytest.raises(NumericalDomainError) as err:
        run_opaa(Spiky(), 3, precondition=amap, workers=1)
    # plain numbers, not numpy reprs such as np.float64(5.0)
    message = str(err.value)
    assert "node (5.0,): log density inf" in message
    assert "np." not in message


class _PerAxisSpike(TargetDensity):
    """-|theta|^2 computed per axis, +inf where theta_0 is a spike coordinate.

    A slab whose first axis holds ``slow`` sleeps first, so that with two
    threads a later slab can fail before it.
    """

    def __init__(self, dim, spikes, slow=None, shape=None):
        self.dim = dim
        self._spikes = spikes
        self._slow = slow
        self._shape = shape

    def log_density_grid(self, grid):
        first = grid.axes[0]
        if self._slow is not None and self._slow in first:
            time.sleep(0.05)
        values = functools.reduce(np.add.outer, [-(axis**2) for axis in grid.axes])
        values[np.isin(first, self._spikes)] = np.inf
        return values.reshape(-1 if self._shape is None else self._shape)


def test_non_finite_grid_value_names_the_mapped_point():
    # the override's grid is the mapped nodes: on order 3 the spike at
    # 2 * 0 + 5 = 5.0 is first met next to the lowest node of axis 1
    amap = AffineMap(scale=[2.0, 1.0], shift=[5.0, 0.0])
    with pytest.raises(NumericalDomainError) as err:
        run_opaa(_PerAxisSpike(2, [5.0]), 3, precondition=amap, workers=1)
    low = float(gauss_hermite(3).nodes[0])
    assert str(err.value) == f"non-finite integrand at node {(5.0, low)}: log density inf"


def test_log_density_grid_of_the_wrong_shape_is_refused(monkeypatch):
    # every one of the 12 slabs returns a 2-D array: one ValueError names
    # the method, for any worker count
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 12)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"^log_density_grid returned shape \(1, 12\)"):
            run_opaa(_PerAxisSpike(2, [], shape=(1, -1)), 12, workers=workers)


class _RowTarget(TargetDensity):
    """log P = -theta_2^2 on every row: each one-row slab gets the same values.

    With ``cached`` every slab gets one array, read-only if ``frozen``;
    without, each slab gets a fresh copy of it.
    """

    dim = 2

    def __init__(self, cached, frozen=False):
        self._cached = cached
        self._values = None
        self._frozen = frozen

    def log_density_grid(self, grid):
        if self._values is None:
            rows = grid.axes[0].size
            self._values = np.tile(-(grid.axes[1] ** 2), rows)
            self._values.setflags(write=not self._frozen)
        return self._values if self._cached else self._values.copy()


def test_the_engine_never_writes_into_the_targets_array(monkeypatch):
    # twelve one-row slabs under a map with a nonzero log-Jacobian, shared by
    # two threads: a cached or read-only array gives the bits of fresh ones
    # and is unchanged after the solve
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 12)
    monkeypatch.setattr(opaa.core, "_HELPER_MIN_SLAB_S", 0.0)
    amap = AffineMap(scale=[2.0, 0.5], shift=[0.0, 0.1])
    for workers in (1, 2):
        fresh = run_opaa(_RowTarget(False), 12, max_degree=8, precondition=amap, workers=workers)
        for frozen in (False, True):
            target = _RowTarget(True, frozen)
            run = run_opaa(target, 12, max_degree=8, precondition=amap, workers=workers)
            assert run.coefficients.values.tobytes() == fresh.coefficients.values.tobytes()
            assert run.evidence == fresh.evidence
            expected = -((amap.scale[1] * gauss_hermite(12).nodes + 0.1) ** 2)
            assert target._values.tobytes() == expected.tobytes()


class _Overflow(TargetDensity):
    """log P = 1500 at theta = 0, finite yet too large for exp(log P / 2)."""

    dim = 1

    def log_density_batch(self, points):
        return np.where(np.asarray(points)[:, 0] == 0.0, 1500.0, -1.0)


class _OverflowPerAxis(_Overflow):
    def log_density_grid(self, grid):
        return np.where(grid.axes[0] == 0.0, 1500.0, -1.0)


@pytest.mark.parametrize("target", [_Overflow(), _OverflowPerAxis()], ids=["batch", "grid"])
def test_an_overflowing_integrand_names_its_log_density(target):
    # the message gives log P plus the log-Jacobian, log 2, which the
    # engine adds before it halves and exponentiates
    amap = AffineMap(scale=[2.0], shift=[0.0])
    with pytest.raises(NumericalDomainError) as err:
        run_opaa(target, 3, precondition=amap, workers=1)
    assert str(err.value) == (
        f"non-finite integrand at node (0.0,): log density {1500.0 + amap.log_jacobian!r}"
    )


class _NestedSolve(TargetDensity):
    """The dim-2 Gaussian; its slab at theta_1 == trigger first runs a solve."""

    dim = 2

    def __init__(self, trigger, inner):
        self._trigger = trigger
        self._inner = inner
        self.inner_runs = []

    def log_density_grid(self, grid):
        if self._trigger in grid.axes[0]:
            self.inner_runs.append(self._inner())
        return opaa.GaussianIdentity(2).log_density_grid(grid)


def test_a_solve_nested_in_a_target_keeps_both_stores(monkeypatch):
    # the outer solve's slab 5 runs an inner solve on the same thread after
    # rows 0-4 of the outer store are written: each solve has its own store
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 12)
    amap = AffineMap(scale=[0.9, 1.1], shift=[0.2, -0.1])
    inner_map = AffineMap(scale=[1.3, 0.7], shift=[-0.4, 0.5])

    def inner():
        return run_opaa(opaa.GaussianIdentity(2), 12, max_degree=9, precondition=inner_map)

    alone = run_opaa(opaa.GaussianIdentity(2), 12, max_degree=9, precondition=amap, workers=1)
    inner_alone = inner()
    target = _NestedSolve(0.9 * gauss_hermite(12).nodes[5] + 0.2, inner)
    nested = run_opaa(target, 12, max_degree=9, precondition=amap, workers=1)
    (inner_run,) = target.inner_runs
    assert nested.coefficients.values.tobytes() == alone.coefficients.values.tobytes()
    assert inner_run.coefficients.values.tobytes() == inner_alone.coefficients.values.tobytes()


def _in_new_thread(fn):
    """fn() on a thread of its own, which has kept no store yet."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and out
    return out[0]


def test_the_store_is_kept_for_the_threads_next_solve(monkeypatch):
    # a (16, 13, 13, 13) store is kept; a smaller solve after it runs in its
    # first entries and gives the bits it gives on a thread with no store
    amap = AffineMap(scale=[0.8] * 4, shift=[0.3] * 4)
    small = AffineMap(scale=[0.8] * 3, shift=[0.3] * 3)

    def solve_small():
        return run_opaa(opaa.GaussianIdentity(3), 12, max_degree=8, precondition=small)

    def solve_large():
        return run_opaa(opaa.GaussianIdentity(4), 16, max_degree=12, precondition=amap)

    def large_then_small():
        solve_large()
        kept = opaa.core._kept.store
        again = solve_small()
        return kept, opaa.core._kept.store, again

    fresh = _in_new_thread(solve_small)
    kept, after, again = _in_new_thread(large_then_small)
    assert kept.size == 16 * 13**3 and after is kept
    assert again.coefficients.values.tobytes() == fresh.coefficients.values.tobytes()
    # a store above the limit is not kept
    monkeypatch.setattr(opaa.core, "_KEPT_STORE_ENTRIES", 16 * 13**3 - 1)

    def large_is_kept():
        solve_large()
        return hasattr(opaa.core._kept, "store")

    assert not _in_new_thread(large_is_kept)


@pytest.fixture
def helpers_started(monkeypatch):
    """The helper threads _project starts, in start order."""
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(opaa.core.threading, "Thread", Counting)
    return started


def test_failure_is_the_same_for_any_worker_count(monkeypatch, helpers_started):
    # one row per slab, non-finite in slabs 3 and 8; slab 3 is slow, so a
    # second thread meets slab 8's failure first, yet slab 3's is raised
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 12)
    monkeypatch.setattr(opaa.core, "_HELPER_MIN_SLAB_S", 0.0)
    nodes = gauss_hermite(12).nodes
    target = _PerAxisSpike(2, nodes[[3, 8]], slow=nodes[3])
    messages = set()
    for workers in (1, 2, 2, 2, 8):
        helpers_started.clear()
        with pytest.raises(NumericalDomainError) as err:
            run_opaa(target, 12, workers=workers)
        messages.add(str(err.value))
        assert len(helpers_started) == workers - 1
    assert messages == {
        f"non-finite integrand at node {(float(nodes[3]), float(nodes[0]))}: log density inf"
    }


def test_generic_batch_fallback():
    class Slow(TargetDensity):
        dim = 2

        def log_density(self, theta):
            return -float(np.sum(np.asarray(theta) ** 2))

    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]])
    out = Slow().log_density_batch(pts)
    assert np.allclose(out, [0.0, -5.0, -1.25])


def test_run_identity_2d():
    result = run_opaa(opaa.GaussianIdentity(2), 4, tol=1e-10, workers=1)
    assert result.converged
    assert result.stop_reason == "shell_tolerance"
    assert result.max_degree_reached == 2
    assert result.evidence == pytest.approx(1.0, abs=1e-10)
    big = [tau for tau, a in result.coefficients.items() if abs(a) > 1e-10]
    assert big == [(0, 0)]


def test_run_planted_1d(planted_1d):
    result = run_opaa(planted_1d, 6, workers=1)
    assert result.converged
    assert result.evidence == pytest.approx(1.01, abs=1e-10)
    assert result.coefficients.coefficient((2,)) == pytest.approx(0.1, abs=1e-10)


def test_run_stops_at_max_degree(planted_1d):
    result = run_opaa(planted_1d, 6, max_degree=0, workers=1)
    assert not result.converged
    assert result.stop_reason == "max_degree"
    assert result.evidence == pytest.approx(1.0, abs=1e-10)


def test_run_energy_monotone_in_degree(planted_1d):
    partial = run_opaa(planted_1d, 6, max_degree=1, workers=1)
    full = run_opaa(planted_1d, 6, max_degree=4, workers=1)
    assert full.evidence >= partial.evidence


def test_run_rejects_bad_arguments(planted_1d):
    with pytest.raises(ValueError):
        run_opaa(planted_1d, 6, tol=0.0)
    with pytest.raises(ValueError):
        run_opaa(planted_1d, 6, max_degree=-1)
    with pytest.raises(ValueError):
        run_opaa(planted_1d, 6, workers=0)
    # an infinite tol used to stop at degree 1 and claim convergence
    for tol in (math.inf, math.nan, np.float32(math.inf), np.bool_(True)):
        with pytest.raises(ValueError):
            run_opaa(planted_1d, 6, tol=tol)


@pytest.mark.parametrize("tol", [np.float32(1e-3), np.float16(1e-3), np.longdouble(1e-3)])
def test_run_accepts_a_numpy_real_tol(planted_1d, tol):
    # a numpy float32 tol used to be refused as "not finite and > 0"
    result = run_opaa(planted_1d, 8, tol=tol, workers=1)
    plain = run_opaa(planted_1d, 8, tol=float(tol), workers=1)
    assert result.coefficients.values.tobytes() == plain.coefficients.values.tobytes()
    assert result.stop_reason == plain.stop_reason == "shell_tolerance"


def test_degenerate_target_raises():
    # all mass sits 50 sigma away from every node
    shifted = AffineMap(scale=[1.0], shift=[50.0])
    with pytest.raises(DegenerateTargetError) as err:
        run_opaa(opaa.GaussianIdentity(1), 4, precondition=shifted, workers=1)
    assert "precondition" in str(err.value)


def test_worker_count_does_not_change_bits(monkeypatch, helpers_started):
    # grid of 64000 points spans four slabs of 10 rows, the last three shared
    # by up to three threads; the identity map gives the bits of no map
    monkeypatch.setattr(opaa.core, "_HELPER_MIN_SLAB_S", 0.0)
    target = opaa.GaussianIdentity(3)
    runs = [
        run_opaa(target, 40, max_degree=3, workers=w) for w in (1, 2, 8)
    ] + [run_opaa(target, 40, max_degree=3, precondition=AffineMap.identity(3), workers=2)]
    assert len(helpers_started) == 0 + 1 + 2 + 1
    base = list(runs[0].coefficients.items())
    for other in runs[1:]:
        assert list(other.coefficients.items()) == base
        assert other.evidence == runs[0].evidence


def test_multi_slab_matches_single_slab(monkeypatch):
    # order 12 in 3-D has 144-point rows: BLOCK_SIZE 300 cuts 6 slabs of 2 rows
    target = opaa.GaussianIdentity(3)
    amap = AffineMap(scale=[0.8, 0.9, 1.1], shift=[0.3, -0.2, 0.1])
    single = run_opaa(target, 12, max_degree=8, precondition=amap, workers=1)
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 300)
    monkeypatch.setattr(opaa.core, "_HELPER_MIN_SLAB_S", 0.0)
    runs = [
        run_opaa(target, 12, max_degree=8, precondition=amap, workers=w)
        for w in (1, 2, 8)
    ]
    base = list(runs[0].coefficients.items())
    assert [tau for tau, _ in base] == [tau for tau, _ in single.coefficients.items()]
    for (_, a), (_, b) in zip(base, single.coefficients.items()):
        assert a == pytest.approx(b, rel=0, abs=1e-14)
    for other in runs[1:]:
        assert list(other.coefficients.items()) == base
        assert other.evidence == runs[0].evidence


def test_every_slab_is_taken_once_under_frequent_thread_switches(
    monkeypatch, helpers_started
):
    # 24 one-row slabs, the last 23 shared by more threads than cores,
    # switching every microsecond, by counts that do and do not divide 23:
    # each slab must be evaluated exactly once, and the bits must be those
    # of one worker
    class Recording(opaa.GaussianIdentity):
        def log_density_grid(self, grid):
            firsts.append(float(grid.axes[0][0]))
            return super().log_density_grid(grid)

    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 1)
    monkeypatch.setattr(opaa.core, "_HELPER_MIN_SLAB_S", 0.0)
    firsts = []
    single = run_opaa(Recording(3), 24, max_degree=6, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (5, 7, 8, 8, 8):
            firsts.clear()
            helpers_started.clear()
            run = run_opaa(Recording(3), 24, max_degree=6, workers=workers)
            assert len(helpers_started) == workers - 1
            assert sorted(firsts) == gauss_hermite(24).nodes.tolist()
            assert run.coefficients.values.tobytes() == single.coefficients.values.tobytes()
    finally:
        sys.setswitchinterval(interval)


class _SlowFirstSlab(opaa.GaussianIdentity):
    """Sleeps past the helper threshold on the slab that holds node 0 of axis 0."""

    def __init__(self, dim, order):
        super().__init__(dim)
        self._first = gauss_hermite(order).nodes[0]

    def log_density_grid(self, grid):
        if self._first in grid.axes[0]:
            time.sleep(2 * opaa.core._HELPER_MIN_SLAB_S)
        return super().log_density_grid(grid)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_helper_threads_follow_the_slab_count(monkeypatch, helpers_started, workers):
    # helpers start only after a first slab of _HELPER_MIN_SLAB_S or more,
    # and then as many as the other slabs can occupy
    dim4 = AffineMap(scale=[0.8] * 4, shift=[0.3] * 4)
    # the dim-4 benchmark shape, four slabs of about 0.2 ms each: no run of
    # three on an idle or a busy host should start a helper
    counts = []
    for _ in range(3):
        helpers_started.clear()
        run = run_opaa(
            opaa.GaussianIdentity(4), 16, max_degree=12, precondition=dim4, workers=workers
        )
        assert run.evidence > 0
        counts.append(len(helpers_started))
    assert min(counts) == 0
    # order 12 in 3-D has 144-point rows: BLOCK_SIZE 300 cuts 6 slabs of 2 rows,
    # and the first slab's sleep lets helpers share the other five
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 300)
    helpers_started.clear()
    assert run_opaa(_SlowFirstSlab(3, 12), 12, max_degree=4, workers=workers).evidence > 0
    assert len(helpers_started) == min(workers, 5) - 1
    # a one-slab grid starts none, even with no threshold at all
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 1728)
    monkeypatch.setattr(opaa.core, "_HELPER_MIN_SLAB_S", 0.0)
    helpers_started.clear()
    assert run_opaa(opaa.GaussianIdentity(3), 12, max_degree=4, workers=workers).evidence > 0
    assert helpers_started == []
    # a failing first slab raises before any helper starts
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 300)
    nodes = gauss_hermite(12).nodes
    with pytest.raises(NumericalDomainError) as err:
        run_opaa(_PerAxisSpike(3, nodes[[0, 5]]), 12, workers=workers)
    assert str(err.value).startswith(f"non-finite integrand at node ({float(nodes[0])!r}, ")
    assert helpers_started == []


# the paper's three-cluster data and map; its evidence is the sum over the
# 3^6 cluster assignments of conjugate normal evidences (prior sd 10, noise sd 1)
PAPER_OBSERVATIONS = (-18.0, -17.2, 3.5, 4.2, 8.9, 9.3)
PAPER_EVIDENCE = 1.1121298109574166e-09


def _assignment_sum(observations, clusters, prior_sigma=10.0, obs_sigma=1.0):
    obs = np.asarray(observations)
    total = 0.0
    for labels in itertools.product(range(clusters), repeat=obs.size):
        term = 1.0
        for k in range(clusters):
            x = obs[np.asarray(labels) == k]
            # the cluster's observations are N(0, obs^2 I + prior^2 11^T)
            cov = obs_sigma**2 * np.eye(x.size) + prior_sigma**2
            _, logdet = np.linalg.slogdet(cov)
            quad = x @ np.linalg.solve(cov, x) if x.size else 0.0
            term *= math.exp(-0.5 * (x.size * math.log(2 * math.pi) + logdet + quad))
        total += term
    return total / clusters**obs.size


def test_the_papers_three_cluster_case(monkeypatch, helpers_started):
    # order 64: 262,144 points in 16 slabs of real GMM work
    assert _assignment_sum(PAPER_OBSERVATIONS, 3) == pytest.approx(PAPER_EVIDENCE, rel=1e-12)
    model = opaa.GmmModel(
        clusters=3, prior_sigma=10.0, obs_sigma=1.0, observations=PAPER_OBSERVATIONS
    )
    target = opaa.GmmJointDensity(model)
    amap = AffineMap(scale=[2.5] * 3, shift=[-1.55] * 3)

    def solve(workers):
        return run_opaa(target, 64, max_degree=189, precondition=amap, workers=workers)

    base = solve(1)
    assert base.evidence == pytest.approx(PAPER_EVIDENCE, rel=1e-5)
    runs = [solve(2)]
    monkeypatch.setattr(opaa.core, "_HELPER_MIN_SLAB_S", 0.0)
    helpers_started.clear()
    runs.append(solve(2))
    assert len(helpers_started) == 1
    for run in runs:
        assert np.array_equal(run.coefficients.taus, base.coefficients.taus)
        assert run.coefficients.values.tobytes() == base.coefficients.values.tobytes()
        assert run.evidence == base.evidence
    # the target is exchangeable and the map isotropic: a[tau] is the same
    # for every permutation of tau, up to rounding
    cs = base.coefficients
    box = np.full((64,) * 3, np.nan)
    box[tuple(cs.taus.T)] = cs.values
    kept = ~np.isnan(box)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(kept, kept.transpose(perm))
        gap = np.abs(box - box.transpose(perm))[kept]
        assert gap.max() <= 1e-13 * np.abs(cs.values).max()


class _RowMajor(TargetDensity):
    """Hands its target a C-ordered copy of each batch the engine passes."""

    def __init__(self, target):
        self.dim = target.dim
        self._target = target
        self.column_major = []

    def log_density_batch(self, points):
        self.column_major.append(points.flags.f_contiguous)
        return self._target.log_density_batch(np.ascontiguousarray(points))


@pytest.mark.parametrize(
    "target, order, amap, max_degree",
    [
        pytest.param(
            opaa.GmmJointDensity(
                opaa.GmmModel(
                    clusters=2,
                    prior_sigma=10.0,
                    obs_sigma=1.0,
                    observations=(-6.0, -3.0, 0.0, 3.0, 6.0),
                )
            ),
            32,
            AffineMap(scale=[2.5, 2.5], shift=[0.0, 0.0]),
            60,
            id="gmm-2-clusters",
        ),
        pytest.param(
            # 32^3 points in two slabs of 16 rows
            opaa.GmmJointDensity(
                opaa.GmmModel(
                    clusters=3,
                    prior_sigma=10.0,
                    obs_sigma=1.0,
                    observations=(-7.0, -1.0, 0.5, 6.0),
                )
            ),
            32,
            AffineMap(scale=[2.5] * 3, shift=[-1.0, 0.0, 1.0]),
            30,
            id="gmm-3-clusters",
        ),
        pytest.param(
            opaa.GaussianIdentity(4),
            16,
            AffineMap(scale=[0.8] * 4, shift=[0.3] * 4),
            12,
            id="identity-4",
        ),
    ],
)
def test_point_layout_changes_no_bits(target, order, amap, max_degree):
    # the bare built-in is evaluated per axis by its log_density_grid; the
    # wrapper takes the default, the grid's column-major batch, and hands
    # its target the same rows in row-major memory: the coefficients and
    # the evidence are the same bit for bit
    bare = run_opaa(target, order, max_degree=max_degree, precondition=amap, workers=2)
    wrapped = _RowMajor(target)
    copied = run_opaa(wrapped, order, max_degree=max_degree, precondition=amap, workers=2)
    assert wrapped.column_major and all(wrapped.column_major)
    assert np.array_equal(copied.coefficients.taus, bare.coefficients.taus)
    assert copied.coefficients.values.tobytes() == bare.coefficients.values.tobytes()
    assert copied.evidence == bare.evidence


@pytest.mark.parametrize(
    "target",
    [
        opaa.GaussianIdentity(3),
        opaa.GmmJointDensity(
            opaa.GmmModel(clusters=3, prior_sigma=10.0, obs_sigma=1.0, observations=(1.0,))
        ),
    ],
    ids=["identity", "gmm"],
)
def test_engine_evaluates_built_ins_per_axis(monkeypatch, target):
    # no batch of points is built for a built-in target, on any slab
    def refuse(self, points):
        raise AssertionError("the engine built a point batch")

    monkeypatch.setattr(type(target), "log_density_batch", refuse)
    monkeypatch.setattr(opaa.core, "BLOCK_SIZE", 100)
    for workers in (1, 2):
        assert run_opaa(target, 10, max_degree=4, workers=workers).evidence > 0


def test_aliased_degrees_are_never_summed():
    # h_6 aliases onto lower degrees on 5 nodes; with the budget clamped to
    # per-axis degree <= 4 the energy is the discrete Parseval total
    target = opaa.PlantedDensity(1, {(0,): 1.0, (2,): 0.3, (6,): 0.2})
    full = run_opaa(target, 5, max_degree=20, workers=1)
    capped = run_opaa(target, 5, max_degree=4, workers=1)
    rule = gauss_hermite(5)
    p_nodes = np.exp(target.log_density_batch(rule.nodes[:, None]))
    parseval = float(np.dot(rule.weights * np.exp(rule.nodes**2), p_nodes))
    assert full.evidence == pytest.approx(1.1233333333333333, rel=1e-9)
    assert full.evidence == pytest.approx(capped.evidence, rel=1e-13)
    assert full.evidence == pytest.approx(parseval, rel=1e-12)
    assert full.max_degree_reached == 4
    assert all(max(tau) < 5 for tau, _ in full.coefficients.items())
    grid, table = make_grid_and_table(3, 2, 2)
    contracted = coefficients_contracted(opaa.GaussianIdentity(2), grid, table, 9)
    assert contracted.max_degree == 4
    assert all(max(tau) < 3 for tau, _ in contracted.items())


def _unit_density():
    return build_density(
        CoefficientSet.from_pairs(dim=1, quad_order=None, pairs=[((0,), 1.0)])
    )


def _config(**fields):
    return opaa.from_config(fields)


def _identity_grid_and_table():
    return (opaa.GaussianIdentity(1),) + make_grid_and_table(4, 1, 3)


# (id, call that passes its argument at one integer entry, a valid value there)
INTEGER_ENTRIES = [
    ("gauss_hermite-order", lambda v: gauss_hermite(v), 2),
    ("TensorGrid-dim", lambda v: TensorGrid(gauss_hermite(3), v), 2),
    ("weight_stats-dim", lambda v: opaa.weight_multiset_stats(3, v), 2),
    ("run_opaa-max_degree", lambda v: run_opaa(opaa.GaussianIdentity(1), 4, max_degree=v), 2),
    ("run_opaa-workers", lambda v: run_opaa(opaa.GaussianIdentity(1), 4, workers=v), 2),
    ("mass-quad_order", lambda v: _unit_density().mass(quad_order=v), 2),
    ("GaussianIdentity-dim", lambda v: opaa.GaussianIdentity(v), 2),
    ("Planted-dim", lambda v: opaa.PlantedDensity(v, {(0,): 1.0}), 1),
    (
        "GmmModel-clusters",
        lambda v: opaa.GmmModel(clusters=v, prior_sigma=1.0, obs_sigma=1.0, observations=[]),
        2,
    ),
    ("enumerate_shell-dim", lambda v: enumerate_shell(v, 2), 2),
    ("enumerate_shell-degree", lambda v: enumerate_shell(2, v), 2),
    # each entry below used to cast with int() (2.7 ran as 2, "2" as 2) or
    # had a bare "< 0" check that let True and 2.7 through
    ("config-identity-dim", lambda v: _config(type="gaussian_identity", dim=v), 2),
    (
        "config-planted-dim",
        lambda v: _config(type="planted", dim=v, coeffs=[{"tau": [0], "c": 1.0}]),
        1,
    ),
    (
        "config-planted-tau",
        lambda v: _config(type="planted", dim=1, coeffs=[{"tau": [v], "c": 1.0}]),
        2,
    ),
    (
        "config-gmm-clusters",
        lambda v: _config(type="gmm", clusters=v, prior_sigma=1.0, obs_sigma=1.0),
        2,
    ),
    ("Planted-tau", lambda v: opaa.PlantedDensity(1, {(v,): 1.0}), 2),
    (
        "bracket_minimum-points",
        lambda v: opaa.PlantedDensity(1, {(0,): 1.0}).bracket_minimum(1.0, v),
        5,
    ),
    ("BoxSpec-points_per_axis", lambda v: opaa.BoxSpec(((0.0, 1.0),), v), 801),
    (
        "coefficient_naive-tau",
        lambda v: coefficient_naive(*_identity_grid_and_table(), (v,)),
        2,
    ),
    ("coefficient-tau", lambda v: _unit_density().coefficients.coefficient((v,)), 2),
    # dim=1.5 used to fail on the taus shape, and quad_order=True was kept
    ("CoefficientSet-dim", lambda v: CoefficientSet(v, None, [[0, 0]], [1.0]), 2),
    ("CoefficientSet-quad_order", lambda v: CoefficientSet(2, v, [[0, 0]], [1.0]), 2),
    ("from_pairs-dim", lambda v: CoefficientSet.from_pairs(v, None, [((0, 0), 1.0)]), 2),
    (
        "coefficients_contracted-max_degree",
        lambda v: coefficients_contracted(*_identity_grid_and_table(), v),
        2,
    ),
    ("decode-stop", lambda v: TensorGrid(gauss_hermite(3), 1).decode(0, v), 2),
    ("build_table-max_degree", lambda v: build_table(v, [0.0]), 2),
    ("psi_table-max_degree", lambda v: psi_table(v, [0.0]), 2),
    ("eval_psi-degree", lambda v: eval_psi(v, 0.0), 2),
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, True, id=name) for name, call, _ in INTEGER_ENTRIES]
    + [
        pytest.param(call, bad, id=f"{name}-{kind}")
        for name, call, valid in INTEGER_ENTRIES
        for kind, bad in (("float", valid + 0.7), ("str", str(valid)))
    ]
    + [
        pytest.param(
            lambda v: run_opaa(opaa.GaussianIdentity(1), 4, tol=v), True, id="run_opaa-tol"
        )
    ],
)
def test_bool_is_not_an_integer(call, value):
    # True, a fraction and a digit string are all refused, never cast
    with pytest.raises(ValueError):
        call(value)


def test_default_workers_are_the_usable_cpus(monkeypatch):
    # os.cpu_count() counts the machine's CPUs; under taskset -c 0 on a
    # 2-CPU host it gave 2 workers and a helper thread on one usable CPU
    monkeypatch.setattr(opaa.core.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(opaa.core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _resolve_workers(None) == 1
    assert _resolve_workers(4) == 4
    # where the platform has no affinity call, the CPU count, or 1 if unknown
    monkeypatch.delattr(opaa.core.os, "sched_getaffinity")
    assert _resolve_workers(None) == 2
    monkeypatch.setattr(opaa.core.os, "cpu_count", lambda: None)
    assert _resolve_workers(None) == 1


def test_worker_env_cap(monkeypatch):
    # workers= is the one worker-count setting: the retired OPAA_MAX_WORKERS
    # cap is not read, so an explicit count passes through as given
    monkeypatch.setenv("OPAA_MAX_WORKERS", "2")
    assert _resolve_workers(8) == 8
    assert _resolve_workers(1) == 1
    monkeypatch.setattr(opaa.core.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _resolve_workers(None) == 3
    with pytest.raises(ValueError):
        _resolve_workers(0)
    with pytest.raises(ValueError):
        _resolve_workers(2.5)


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap(scale=[1.0, -1.0], shift=[0.0, 0.0])
    with pytest.raises(ValueError):
        AffineMap(scale=[1.0], shift=[0.0, 0.0])
    with pytest.raises(ValueError):
        AffineMap(scale=[np.nan], shift=[0.0])
    with pytest.raises(ValueError):
        AffineMap(scale=[], shift=[])


def test_affine_map_basics():
    amap = AffineMap(scale=[2.0, 0.5], shift=[1.0, -1.0])
    assert amap.dim == 2
    assert amap.log_jacobian == pytest.approx(math.log(2.0) + math.log(0.5))
    assert np.allclose(amap.apply([[1.0, 2.0]]), [[3.0, 0.0]])
    ident = AffineMap.identity(3)
    assert np.allclose(ident.apply([[1.0, 2.0, 3.0]]), [[1.0, 2.0, 3.0]])


def test_affine_map_dimension_check():
    amap = AffineMap(scale=[1.0, 1.0], shift=[0.0, 0.0])
    with pytest.raises(ValueError):
        amap.pull_back(opaa.GaussianIdentity(3))
    target = CountingTarget(opaa.GaussianIdentity(3))
    with pytest.raises(ValueError, match="map dimension 2 != target dimension 3"):
        run_opaa(target, 4, precondition=amap, workers=1)
    assert target.points == 0


@pytest.mark.parametrize(
    "scale,shift",
    [([0.5], [1.0]), ([2.0], [-1.0]), ([0.5, 2.0], [1.0, -0.5])],
)
def test_affine_invariance_of_evidence(scale, shift):
    target = opaa.GaussianIdentity(len(scale))
    amap = AffineMap(scale=scale, shift=shift)
    result = run_opaa(target, 64, tol=1e-14, max_degree=40, precondition=amap, workers=1)
    assert result.evidence == pytest.approx(1.0, abs=1e-6)


def test_coefficient_set_queries():
    coeffs = CoefficientSet.from_pairs(
        dim=2,
        quad_order=4,
        pairs=[((0, 0), 1.0), ((1, 0), 0.5), ((0, 1), -0.5)],
    )
    assert coeffs.max_degree == 1
    assert coeffs.coefficient((0, 1)) == -0.5
    assert coeffs.coefficient((3, 3)) == 0.0
    assert list(coeffs.items())[0] == ((0, 0), 1.0)
    with pytest.raises(ValueError):
        coeffs.coefficient((1,))
    assert coeffs.total_energy == pytest.approx(
        sum(a * a for _, a in coeffs.items()), rel=1e-12
    )


def test_total_energy_is_summed_in_sequence():
    # Python >= 3.12 compensates a float sum() and would give 1 + 2e-16 here;
    # the sequential sum, as the stop rule's cumsum, gives 1.0 on every version
    coeffs = CoefficientSet(1, None, [[0], [1], [2]], [1.0, 1e-8, 1e-8])
    assert coeffs.shell_energy == (1.0, 1e-8 * 1e-8, 1e-8 * 1e-8)
    assert coeffs.total_energy == np.cumsum(coeffs.shell_energy)[-1] == 1.0
    assert CoefficientSet(2, None, np.zeros((0, 2)), []).total_energy == 0.0


def test_coefficient_lookup_outside_the_set():
    coeffs = CoefficientSet.from_pairs(
        dim=2, quad_order=None, pairs=[((0, 0), 1.0), ((1, 0), 0.5), ((0, 2), 0.25)]
    )
    assert coeffs.coefficient((0, 2)) == 0.25
    # negative entries must not wrap around to the last row or column
    for tau in ((-1, 0), (2, -1), (-1, 3), (1, 1), (0, 3), (9, 9)):
        assert coeffs.coefficient(tau) == 0.0
    assert CoefficientSet.from_pairs(1, None, []).coefficient((0,)) == 0.0


def test_from_pairs_rejects_a_repeated_tau():
    # the repeat used to count twice in total_energy (2.0) but once in the
    # reconstruction box, so build_density(...).mass() read 0.5
    with pytest.raises(ValueError, match="repeated multi-index"):
        CoefficientSet.from_pairs(1, None, [((0,), 1.0), ((0,), 1.0)])
    with pytest.raises(ValueError, match="repeated multi-index"):
        CoefficientSet.from_pairs(2, None, [((1, 0), 1.0), ((0, 1), 1.0), ((1, 0), 0.5)])


def test_coefficient_set_arrays():
    coeffs = CoefficientSet.from_pairs(
        dim=2, quad_order=None, pairs=[((1, 0), 0.5), ((0, 0), 1.0)]
    )
    assert coeffs.taus.tolist() == [[0, 0], [1, 0]]
    assert coeffs.values.tolist() == [1.0, 0.5]
    with pytest.raises(ValueError):
        coeffs.values[0] = 2.0
    with pytest.raises(ValueError):
        coeffs.taus[0, 0] = 1
    with pytest.raises(TypeError):
        coeffs.shells[0][(0, 0)] = 2.0
    # the constructor takes arrays already in shell order, and copies them
    taus = np.array([[0, 0], [0, 1]])
    values = np.array([1.0, 0.5])
    coeffs = CoefficientSet(2, None, taus, values)
    values[0] = 3.0
    assert coeffs.values[0] == 1.0
    for bad_taus, bad_values in (
        ([[0, 1], [0, 0]], [0.5, 1.0]),
        ([[0, -1]], [1.0]),
        ([[0, 0, 0]], [1.0]),
        ([[0, 0]], [1.0, 2.0]),
    ):
        with pytest.raises(ValueError):
            CoefficientSet(2, None, np.array(bad_taus), np.array(bad_values))
    with pytest.raises(ValueError):
        CoefficientSet.from_pairs(2, None, [((0, 0, 0), 1.0)])


@pytest.mark.parametrize(
    "dim,size,degree",
    [
        (1, 1, 0),
        (3, 1, 0),
        (1, 21, 20),
        (2, 5, 3),
        (3, 4, 9),
        (2, 61, 60),
        (4, 13, 12),
        (10, 5, 4),
        # box degrees up to 254 and 255 fill an 8-bit degree array; the
        # truncated boxes keep degree 20 of a top degree of 117 and of 297,
        # which needs 16 bits
        (2, 128, 254),
        (1, 256, 255),
        (3, 40, 20),
        (3, 100, 20),
    ],
)
def test_shell_layout_matches_enumerate_shell(dim, size, degree):
    box = np.random.default_rng(dim * 1000 + size).normal(size=(size,) * dim)
    coeffs = opaa.core._shells(box, None, degree)
    assert list(coeffs.items()) == _shell_items(box, degree)
    assert coeffs.max_degree == degree
    shells = [
        [tau for tau in enumerate_shell(dim, d) if max(tau) < size]
        for d in range(degree + 1)
    ]
    for shell, energy in zip(shells, coeffs.shell_energy):
        vec = np.array([box[tau] for tau in shell])
        assert energy == float(np.dot(vec, vec))


def _shell_items(box, degree):
    """(tau, coefficient) pairs of the box in shell order, from enumerate_shell."""
    size = box.shape[0]
    return [
        (tau, box[tau])
        for d in range(degree + 1)
        for tau in enumerate_shell(box.ndim, d)
        if max(tau) < size
    ]


def test_shell_layouts_are_built_once_and_read_only():
    layout = opaa.core._shell_layout
    layout.cache_clear()
    amap = AffineMap(scale=[0.8] * 4, shift=[0.3] * 4)
    first, second = (
        run_opaa(opaa.GaussianIdentity(4), 16, max_degree=12, precondition=amap, workers=1)
        for _ in range(2)
    )
    assert layout.cache_info().misses == 1 and layout.cache_info().hits == 1
    cached = layout(4, 13, 12)
    assert cached.dtype == np.uint8
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 1
    # each set holds its own intp copy, never the cached array
    for run in (first, second):
        assert run.coefficients.taus.dtype == np.intp
        assert not np.shares_memory(run.coefficients.taus, cached)
    assert np.array_equal(first.coefficients.taus, second.coefficients.taus)


def test_shell_layouts_of_one_box_at_several_degrees(monkeypatch):
    box = np.random.default_rng(5).normal(size=(6, 6, 6))
    for degree in (3, 15, 3, 7, 0, 15):
        coeffs = opaa.core._shells(box, None, degree)
        assert list(coeffs.items()) == _shell_items(box, degree)
    # a box above the cache bound gets a fresh layout, and the cache is untouched
    before = opaa.core._shell_layout.cache_info()
    monkeypatch.setattr(opaa.core, "_LAYOUT_CACHE_ENTRIES", box.size * box.ndim - 1)
    assert list(opaa.core._shells(box, None, 7).items()) == _shell_items(box, 7)
    assert opaa.core._shell_layout.cache_info() == before


def test_density_from_single_coefficient_is_standard_gaussian():
    for c in (1.0, 3.0):
        coeffs = CoefficientSet.from_pairs(dim=2, quad_order=None, pairs=[((0, 0), c)])
        density = build_density(coeffs)
        pts = np.array([[0.0, 0.0], [1.0, -0.5], [2.0, 2.0]])
        expected = np.exp(-np.sum(pts**2, axis=1)) / math.pi
        assert np.allclose(density(pts), expected, rtol=1e-13)


def test_density_matches_planted_closed_form(planted_1d):
    result = run_opaa(planted_1d, 6, workers=1)
    density = build_density(result.coefficients)
    xs = np.linspace(-5.0, 5.0, 201)
    closed = (eval_psi(0, xs) + 0.1 * eval_psi(2, xs)) ** 2 / 1.01
    assert np.max(np.abs(density(xs[:, None]) - closed)) <= 1e-9


def test_density_single_point_convention(monkeypatch):
    coeffs = CoefficientSet.from_pairs(dim=2, quad_order=None, pairs=[((0, 0), 1.0)])
    density = build_density(coeffs)
    value = density(np.array([0.3, -0.2]))
    assert isinstance(value, float)
    assert value == pytest.approx(density(np.array([[0.3, -0.2]]))[0])
    with pytest.raises(ValueError):
        density(np.array([[0.1, 0.2, 0.3]]))
    # (3, 2, 1) used to return 3 values, and (5, 2, 2) failed in numpy's
    # broadcast; both are refused before any table is built
    monkeypatch.setattr(opaa.hermite, "psi_table", None)
    for shape in ((3, 2, 1), (5, 2, 2)):
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, 2, {shape[2]}\)"):
            density(np.zeros(shape))


def test_density_refuses_non_finite_coordinates():
    # these used to return nan, with a RuntimeWarning for inf
    density = build_density(
        CoefficientSet.from_pairs(dim=2, quad_order=None, pairs=[((0, 0), 1.0), ((1, 0), 0.5)])
    )
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            density(np.array([[bad, 0.0]]))
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            density(np.array([0.0, bad]))
        with pytest.raises(ValueError, match="grid coordinates must be finite"):
            density(GridPoints(([bad], [0.0])))
        with pytest.raises(ValueError, match="grid coordinates must be finite"):
            density.grid([[0.0, 1.0], [0.5, bad]])
    # at huge finite coordinates the density is 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert density(np.array([1e200, 0.0])) == 0.0
        assert np.array_equal(density(np.array([[0.0, -1.5e308]])), [0.0])
        assert np.array_equal(density.grid([[1e200], [0.0, 1e300]]), [[0.0, 0.0]])


def test_density_mass_is_one(planted_1d):
    result = run_opaa(planted_1d, 6, workers=1)
    density = build_density(result.coefficients)
    assert density.mass() == pytest.approx(1.0, abs=1e-9)
    assert density.mass(quad_order=12) == pytest.approx(1.0, abs=1e-9)


def test_solve_and_mass_use_the_rules_table(monkeypatch):
    target = opaa.GmmJointDensity(
        opaa.GmmModel(clusters=2, prior_sigma=10.0, obs_sigma=1.0, observations=(2.0,))
    )
    amap = AffineMap(scale=[4.5, 4.5], shift=[2.0, 2.0])
    first = run_opaa(target, 24, max_degree=30, precondition=amap, workers=1)
    density = build_density(first.coefficients)
    density.mass()
    gauss_hermite(5)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_table(*args, **kwargs)

    monkeypatch.setattr(opaa.hermite, "build_table", counting)
    again = run_opaa(target, 24, max_degree=30, precondition=amap, workers=1)
    assert again.coefficients.values.tobytes() == first.coefficients.values.tobytes()
    assert density.mass(quad_order=24) == density.mass()
    assert calls == []
    # an order below the box extent grows the rule's table
    density.mass(quad_order=5)
    assert [args[0] for args in calls] == [first.coefficients.taus.max()]


def mass_by_nodes(density, quad_order):
    """mass() as the plain weighted sum over every node of the tensor rule."""
    cs = density.coefficients
    rule = gauss_hermite(quad_order)
    table = build_table(cs.max_degree, rule.nodes).values
    pairs = list(cs.items())
    taus = np.array([tau for tau, _ in pairs])
    values = np.array([a for _, a in pairs])
    total = 0.0
    for idx in itertools.product(range(rule.order), repeat=cs.dim):
        basis = np.prod([table[taus[:, k], i] for k, i in enumerate(idx)], axis=0)
        total += np.prod(rule.weights[list(idx)]) * np.dot(values, basis) ** 2
    return total / cs.total_energy


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_mass_matches_node_sum(dim):
    rng = np.random.default_rng(dim)
    degree = 5
    pairs = [
        (tau, float(rng.normal()) * 0.6**d)
        for d in range(degree + 1)
        for tau in enumerate_shell(dim, d)
    ]
    coeffs = CoefficientSet.from_pairs(dim=dim, quad_order=None, pairs=pairs)
    density = build_density(coeffs)
    # the default order (the box extent, degree + 1 here) and a raised one
    # integrate exactly; a lowered one does not, so only it tells the
    # off-diagonal Gram entries apart
    for quad_order in (None, degree + 5, degree - 2):
        expected = mass_by_nodes(density, quad_order or degree + 1)
        assert abs(density.mass(quad_order) - expected) <= 1e-13
    assert abs(mass_by_nodes(density, degree - 2) - 1.0) > 1e-3


@pytest.mark.parametrize("dim, top", [(5, 5), (3, 90)])
def test_density_mass_of_sets_with_a_high_total_degree(dim, top):
    # the default order is the per-axis extent top + 1; the total degree
    # dim * top + 1 would ask for 26^5 nodes, or an order above the largest
    # rule (256), though the Gram contraction only needs the (top + 1)^dim box
    pairs = [((0,) * dim, 1.0), ((top,) * dim, 0.1)]
    density = build_density(CoefficientSet.from_pairs(dim=dim, quad_order=None, pairs=pairs))
    assert abs(density.mass() - 1.0) <= 1e-12
    assert density.mass() == density.mass(quad_order=top + 1)


def test_density_box_capacity_guard(monkeypatch):
    monkeypatch.setattr(opaa.core, "TENSOR_VALUE_LIMIT", 8)
    coeffs = CoefficientSet.from_pairs(
        dim=2, quad_order=None, pairs=[((0, 0), 1.0), ((2, 0), 0.1)]
    )
    with pytest.raises(CapacityError):
        build_density(coeffs)(np.zeros(2))


def random_density(dim, degree, seed):
    rng = np.random.default_rng(seed)
    pairs = [
        (tau, float(rng.normal()) * 0.7**d)
        for d in range(degree + 1)
        for tau in enumerate_shell(dim, d)
    ]
    return build_density(CoefficientSet.from_pairs(dim=dim, quad_order=None, pairs=pairs))


@pytest.mark.parametrize("dim, degree", [(1, 30), (2, 12), (3, 6)])
def test_density_grid_matches_pointwise_calls(dim, degree):
    density = random_density(dim, degree, seed=dim)
    # unequal axis lengths, negative and far-tail coordinates
    axes = [np.linspace(-9.0 + k, 7.0, 23 + 4 * k) for k in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    # as an array, a GridPoints is the meshgrid batch, theta1-major, stored
    # column by column
    batch = np.asarray(GridPoints(axes))
    assert batch.flags.f_contiguous and np.array_equal(batch, points)
    pointwise = density(points).reshape(mesh[0].shape)
    values = density.grid(axes)
    assert values.shape == tuple(len(a) for a in axes)
    assert np.array_equal(density(GridPoints(axes)), values.ravel())
    if dim == 1:
        assert np.array_equal(values, pointwise)
    else:
        assert np.max(np.abs(values - pointwise)) <= 1e-13 * pointwise.max()


def test_density_grid_argument_checks(monkeypatch):
    density = random_density(2, 3, seed=0)
    axis = np.linspace(-1.0, 1.0, 5)
    assert density.grid([axis, axis[:3]]).shape == (5, 3)
    assert density.grid([[0.5], (0.0, 1.0)]).shape == (1, 2)
    for axes in ([axis], [axis] * 3, [axis, []], [axis, np.zeros((2, 2))], [axis, 1.0]):
        with pytest.raises(ValueError):
            density.grid(axes)
    # the 4 x 4 box fits; the 20 x 20 output does not
    monkeypatch.setattr(opaa.core, "TENSOR_VALUE_LIMIT", 100)
    assert density.grid([axis, axis]).shape == (5, 5)
    with pytest.raises(CapacityError):
        density.grid([np.zeros(20)] * 2)
    # nor does a 30-point axis's 4 x 30 psi table, though every round would
    with pytest.raises(CapacityError):
        density.grid([np.zeros(1), np.zeros(30)])


def test_density_grid_is_one_density_call(monkeypatch):
    # a grid is evaluated by one __call__ of the whole grid, so whatever
    # counts reconstructed points at __call__ counts every grid point
    density = random_density(2, 3, seed=0)
    axes = [np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 3)]
    seen = []
    original = ApproxDensity.__call__

    def recording(self, points):
        seen.append(np.asarray(points, dtype=float))
        return original(self, points)

    monkeypatch.setattr(ApproxDensity, "__call__", recording)
    values = density.grid(axes)
    assert len(seen) == 1 and seen[0].shape == (15, 2)
    monkeypatch.undo()
    assert np.max(np.abs(values.ravel() - density(seen[0]))) <= 1e-13 * values.max()


@pytest.mark.parametrize("dim, degree, sizes", [(1, 30, (500,)), (2, 5, (40, 7))])
def test_density_grid_works_in_row_blocks(monkeypatch, dim, degree, sizes):
    density = random_density(dim, degree, seed=dim)
    axes = [np.linspace(-6.0, 5.0 + k, n) for k, n in enumerate(sizes)]
    whole = density.grid(axes)
    # a long axis tabulates though its whole psi table (31 x 500 in 1-D)
    # would pass the cap: only the output and single rows are held to it
    monkeypatch.setattr(opaa.core, "TENSOR_VALUE_LIMIT", 1000)
    assert np.array_equal(density.grid(axes), whole)
    # with 64-entry chunks every psi table stays within 64 entries, and in
    # 1-D the values are still bit for bit those of pointwise calls
    monkeypatch.setattr(opaa.core, "_CHUNK_ENTRIES", 64)
    tables = []
    original = opaa.hermite.psi_table

    def recording(max_degree, points):
        tables.append(original(max_degree, points))
        return tables[-1]

    monkeypatch.setattr(opaa.hermite, "psi_table", recording)
    blocked = density.grid(axes)
    assert len(tables) > dim and max(t.size for t in tables) <= 64
    assert np.max(np.abs(blocked - whole)) <= 1e-13 * whole.max()
    if dim == 1:
        assert np.array_equal(blocked, density(axes[0][:, None]))


def test_build_density_rejects_degenerate_sets():
    with pytest.raises(ValueError):
        build_density(CoefficientSet.from_pairs(dim=1, quad_order=None, pairs=[]))
    with pytest.raises(ValueError, match="zero total energy"):
        build_density(CoefficientSet.from_pairs(dim=1, quad_order=None, pairs=[((0,), 0.0)]))
    # each of these built a density whose values and mass() read nan, with
    # warnings; 1e200 squared overflows the energy to inf
    for value in (math.nan, math.inf, 1e200):
        with np.errstate(over="ignore"):
            coeffs = CoefficientSet(1, 5, [[0], [1]], [value, 1.0])
        with pytest.raises(ValueError, match="zero total energy or a non-finite one"):
            build_density(coeffs)


def test_lifted_weights_definition():
    rule = gauss_hermite(5)
    lifted = _lifted_weights(rule)
    assert np.allclose(lifted, rule.weights * np.exp(0.5 * rule.nodes**2), rtol=1e-15)
