"""Hermite-transform engine: coefficients, evidence, density reconstruction.

A target density P on R^N (given through its log density, up to an unknown
constant) is projected onto the orthonormal Hermite basis by Gauss-Hermite
tensor quadrature. The transform works with the lifted function
F = sqrt(P) * e^{+|theta|^2/2}, whose projection coefficients

    a_tau = sum_(j) [prod_k w_{j_k} e^{r_{j_k}^2/2}] * sqrt(P)(r^(j)) * prod_k h_{tau_k}(r_{j_k})

are computed on the raw node grid. This discrete form is exact whenever F is
a polynomial of per-axis degree <= 2*Gamma - 1 (e.g. targets of the form
(polynomial)^2 * Gaussian), and sum_tau a_tau^2 estimates the integral of P.
The normalized reconstruction is [sum_tau a_tau prod_k psi_{tau_k}]^2 divided
by that total energy.

The sum is separable, so one contraction engine computes every coefficient
of the box [0, Gamma-1]^dim at once (a higher per-axis degree would alias
onto the Gamma nodes, so multi-indices never leave the box). The grid is cut
along its leading axis into slabs of whole rows, a partition fixed by the
grid shape and BLOCK_SIZE. Each slab hands the target its tensor grid of
mapped nodes (``TargetDensity.log_density_grid``), takes the square roots in
place in one array, contracts its full axes with the (node x degree)
projection matrix and writes the last round's product straight into its own
rows of one store; once every slab is in, the leading axis is contracted in
one call. The mapped nodes are checked once per solve, and the calling
thread keeps the store for its next solve, so the slab loop runs on pages
the process has touched before rather than on heap pages freed and faulted
in again. The calling thread runs slab 0 alone and times it. Helper threads
start only if it took at least _HELPER_MIN_SLAB_S (1 ms): on a 2-CPU host a
second thread's interpreter-lock hand-offs cost more than the second core
saves on shorter slabs. There, dim-4 identity slabs took 0.21-0.24 ms at the
median and under 0.4 ms at p99, and 2 workers took twice as long at 4 and at
21 slabs; 3-cluster GMM slabs took 2 ms or more. Then thread t of
min(workers, slabs - 1) takes slabs 1 + t, 1 + t + threads, ... in
increasing order, the calling thread being thread 0, so a one-slab grid
never starts a helper. The timing picks only the thread count, never the
partition. No slab's rows depend on another slab or on which thread computed
them, so results are reproducible bit for bit for any worker count; slab 0's
error is raised before any helper starts, and since a thread stops at its
own first failing slab, the lowest failing slab is always evaluated and its
error is the one raised, as on one worker.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import hermite
from .errors import CapacityError, DegenerateTargetError, NumericalDomainError, as_int, is_int
from .quadrature import TensorGrid, gauss_hermite

__all__ = [
    "AffineMap",
    "ApproxDensity",
    "BLOCK_SIZE",
    "CoefficientSet",
    "GridPoints",
    "RunResult",
    "TENSOR_VALUE_LIMIT",
    "TargetDensity",
    "build_density",
    "coefficient_naive",
    "coefficients_contracted",
    "run_opaa",
]

# fixed block size: the reduction partition must not depend on worker count
BLOCK_SIZE = 16384
# cap on the entries of a coefficient box, or of the store the slabs fill
TENSOR_VALUE_LIMIT = 10**8
# entries of the largest array a density evaluation builds per chunk (2 MB)
_CHUNK_ENTRIES = 2**18
# the first slab must take this long before helper threads share the rest
_HELPER_MIN_SLAB_S = 1e-3
# a store of at most this many entries (8 MB) is kept by its thread for the
# thread's next solve, in _kept.store
_KEPT_STORE_ENTRIES = 2**20
_kept = threading.local()
# a shell layout held for reuse has at most this many entries (uint8, so as
# many bytes); the cache holds at most 4 of them, 16 MB
_LAYOUT_CACHE_ENTRIES = 2**22


class TargetDensity:
    """A pointwise-evaluable unnormalized density on R^dim.

    Subclasses set ``dim`` and implement ``log_density`` (may return -inf
    where the density vanishes). ``log_density_batch`` has a generic
    row-by-row fallback; vectorized targets should override it. Its batch
    is an (n, dim) array of row points in any memory order; a column-major
    one adds whole columns in ``np.sum(pts, axis=1)``, and a reduce that
    numpy runs row by row there, such as ``np.logaddexp.reduce``, is faster
    written as a fold over the columns ``pts[:, k]``.

    The engine calls ``log_density_grid(grid)`` instead, with a
    ``GridPoints``: it returns log P at the grid's points, flattened
    theta1-major, as an (n_points,) array. Overriding it is optional. The
    default evaluates ``log_density_batch(np.asarray(grid))``, the
    column-major batch of the grid's points. A target whose terms separate
    over the coordinates can instead compute them once per coordinate on
    ``grid.axes`` and combine them by broadcasting; such an override must
    return the bits ``log_density_batch`` returns on that batch, or results
    would depend on which path ran. The engine never writes into the array
    either method returns, so a target may return a cached or read-only
    one. ``opaa oracle-evidence`` keeps calling
    ``log_density_batch``, so the reference integral does not share the
    engine's evaluation path.
    """

    dim: int

    def log_density(self, theta):
        raise NotImplementedError

    def log_density_batch(self, points):
        pts = np.asarray(points, dtype=float)
        return np.array([self.log_density(p) for p in pts])

    def log_density_grid(self, grid):
        return self.log_density_batch(np.asarray(grid))


@dataclass(frozen=True)
class AffineMap:
    """Per-coordinate affine change of variables theta -> scale*theta + shift.

    Pulling a target back through the map multiplies it by the constant
    Jacobian prod(scale), so the pulled-back target has the same integral
    (and transform energy) as the original while its mass sits wherever the
    quadrature nodes are.
    """

    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=float).reshape(-1).copy()
        shift = np.asarray(self.shift, dtype=float).reshape(-1).copy()
        if scale.size == 0 or scale.size != shift.size:
            raise ValueError("scale and shift must be non-empty and equal length")
        if not np.all(np.isfinite(scale)) or not np.all(scale > 0):
            raise ValueError("scale entries must be finite and > 0")
        if not np.all(np.isfinite(shift)):
            raise ValueError("shift entries must be finite")
        scale.setflags(write=False)
        shift.setflags(write=False)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "shift", shift)

    @classmethod
    def identity(cls, dim):
        return cls(scale=np.ones(dim), shift=np.zeros(dim))

    @property
    def dim(self):
        return self.scale.size

    @property
    def log_jacobian(self):
        return float(np.sum(np.log(self.scale)))

    def apply(self, points):
        return np.asarray(points, dtype=float) * self.scale + self.shift

    def pull_back(self, target):
        """The target re-expressed in map coordinates, integral preserved."""
        check_dimension(target.dim, self.dim, "map")
        return _PulledBackTarget(target, self)


def check_dimension(dim, got, what):
    """ValueError '<what> dimension <got> != target dimension <dim>' unless
    the two agree."""
    if got != dim:
        raise ValueError(f"{what} dimension {got} != target dimension {dim}")


class _PulledBackTarget(TargetDensity):
    def __init__(self, target, amap):
        self.dim = target.dim
        self._target = target
        self._map = amap

    def log_density(self, theta):
        return self._target.log_density(self._map.apply(theta)) + self._map.log_jacobian

    def log_density_batch(self, points):
        mapped = self._map.apply(points)
        return (
            np.asarray(self._target.log_density_batch(mapped), dtype=float)
            + self._map.log_jacobian
        )


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Transform coefficients in shell order.

    ``taus`` is an (n, dim) int array of multi-indices and ``values`` holds
    their n coefficients; both are read-only and sorted by total degree
    (the shell). The engine lists each shell in multiindex.enumerate_shell
    order. ``shell_energy[d]`` is the sum of squared coefficients of total
    degree d, for d = 0..max_degree, the largest degree present; a degree
    with no coefficient is an empty shell. ``quad_order`` is None for sets
    re-read from disk, where the producing rule is unknown.
    """

    dim: int
    quad_order: int | None
    taus: np.ndarray
    values: np.ndarray
    shell_energy: tuple[float, ...] = field(init=False)
    # shell d is rows _bounds[d]:_bounds[d + 1]
    _bounds: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        dim = as_int(self.dim, "dim", 1)
        quad_order = self.quad_order
        if quad_order is not None:
            quad_order = as_int(quad_order, "quad_order", 1)
        taus = np.array(self.taus, dtype=np.intp)
        values = np.array(self.values, dtype=float)
        if taus.ndim != 2 or taus.shape[1] != dim or values.shape != taus.shape[:1]:
            raise ValueError(
                f"need an (n, {dim}) taus array and n values, got shapes "
                f"{taus.shape} and {values.shape}"
            )
        # column adds: a row sum over a few columns is several times slower
        degrees = functools.reduce(np.add, taus.T)
        if taus.size and (taus.min() < 0 or np.any(np.diff(degrees) < 0)):
            raise ValueError("multi-indices must be non-negative and in shell order")
        top = int(degrees[-1]) if degrees.size else -1
        bounds = np.searchsorted(degrees, np.arange(top + 2)).tolist()
        energy = tuple(
            float(np.dot(values[lo:hi], values[lo:hi]))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        taus.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "quad_order", quad_order)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shell_energy", energy)
        object.__setattr__(self, "_bounds", bounds)

    @classmethod
    def from_pairs(cls, dim, quad_order, pairs):
        """Set from (tau, coefficient) pairs in any order.

        The pairs are sorted stably by total degree, so each shell keeps
        the order in which its pairs were given. A repeated tau is refused:
        its coefficients would count twice in the energy but once in the
        reconstruction.
        """
        dim = as_int(dim, "dim", 1)
        pairs = list(pairs)
        if len({tuple(tau) for tau, _ in pairs}) != len(pairs):
            raise ValueError("repeated multi-index in coefficient pairs")
        taus = np.array([tau for tau, _ in pairs], dtype=np.intp).reshape(len(pairs), dim)
        values = np.array([a for _, a in pairs], dtype=float)
        order = np.argsort(taus.sum(axis=1), kind="stable")
        return cls(dim, quad_order, taus[order], values[order])

    @property
    def max_degree(self):
        return len(self.shell_energy) - 1

    @property
    def total_energy(self):
        # summed in sequence, like the stop rule's cumsum: Python >= 3.12
        # compensates a float sum(), so its bits would depend on the version
        return float(np.cumsum((0.0, *self.shell_energy))[-1])

    @property
    def shells(self):
        """Per-degree read-only mappings tau -> coefficient, built on each access."""
        pairs = list(self.items())
        return tuple(
            MappingProxyType(dict(pairs[lo:hi]))
            for lo, hi in zip(self._bounds[:-1], self._bounds[1:])
        )

    def coefficient(self, tau):
        """Coefficient at the multi-index tau (0.0 if outside every shell)."""
        tau = tuple(as_int(v, "multi-index entry", -np.inf) for v in tau)
        if len(tau) != self.dim:
            raise ValueError(f"multi-index must have {self.dim} entries, got {tau}")
        degree = sum(tau)
        if min(tau) < 0 or degree > self.max_degree:
            return 0.0
        lo, hi = self._bounds[degree], self._bounds[degree + 1]
        hit = np.flatnonzero(np.all(self.taus[lo:hi] == tau, axis=1))
        return float(self.values[lo + hit[0]]) if hit.size else 0.0

    def items(self):
        """(tau, coefficient) pairs in shell order, as tuples and floats."""
        return zip(map(tuple, self.taus.tolist()), self.values.tolist())


@dataclass(frozen=True)
class RunResult:
    """Outcome of a full transform run, including which stop condition fired."""

    coefficients: CoefficientSet
    evidence: float
    converged: bool
    stop_reason: str
    max_degree_reached: int


def _lifted_weights(rule):
    # 1-D projection weights w_i e^{r_i^2/2}: the Gaussian the lifted target
    # F carries is folded back into the rule instead of the integrand
    return rule.weights * np.exp(0.5 * rule.nodes**2)


def _sqrt_target_values(target, points, log_jacobian=0.0):
    """exp((log P + log_jacobian) / 2) at a GridPoints or an (n, dim) batch.

    Computed in place in one new array; the array the target returned is
    never written.
    """
    if isinstance(points, GridPoints):
        method, n = "log_density_grid", math.prod(points.shape)
        logp = target.log_density_grid(points)
    else:
        method, n = "log_density_batch", points.shape[0]
        logp = target.log_density_batch(points)
    logp = np.asarray(logp, dtype=float)
    if logp.shape != (n,):
        raise ValueError(f"{method} returned shape {logp.shape}, expected ({n},)")
    vals = np.add(logp, log_jacobian)
    vals *= 0.5
    with np.errstate(over="ignore"):
        np.exp(vals, out=vals)
    finite = np.isfinite(vals)
    if not np.all(finite):
        t = int(np.argmin(finite))
        # only here is a grid's point batch built
        raise NumericalDomainError(
            f"non-finite integrand at node {tuple(np.asarray(points)[t].tolist())}: "
            f"log density {float(logp[t] + log_jacobian)!r}"
        )
    return vals


def _check_table(grid, table, needed_degree):
    if table.max_degree < needed_degree:
        raise ValueError(
            f"table covers degree {table.max_degree}, need {needed_degree}"
        )
    if not np.array_equal(table.points, grid.rule.nodes):
        raise ValueError("table must be built on the rule's raw nodes")


def coefficient_naive(target, grid, table, tau):
    """Single transform coefficient by a plain sum over every grid point.

    Sums w-hat * sqrt(P) * prod_k h_{tau_k} point by point over the decoded
    grid in fixed block order, where w-hat is the product of lifted 1-D
    weights. The independent reference for the contraction engine. Exact
    for targets whose lifted form is a polynomial of per-axis degree
    <= 2*order - 1.
    """
    tau = tuple(as_int(v, "multi-index entry", 0) for v in tau)
    if len(tau) != grid.dim:
        raise ValueError(f"invalid multi-index {tau} for dimension {grid.dim}")
    check_dimension(target.dim, grid.dim, "grid")
    _check_table(grid, table, max(tau))
    lifted = _lifted_weights(grid.rule)
    rows = np.asarray(tau)
    acc = 0.0
    for start in range(0, grid.total_count, BLOCK_SIZE):
        idx = grid.decode(start, min(start + BLOCK_SIZE, grid.total_count))
        weights = np.prod(lifted[idx], axis=1)
        basis = np.prod(table.values[rows, idx], axis=1)
        acc += float(
            np.dot(weights * basis, _sqrt_target_values(target, grid.rule.nodes[idx]))
        )
    return acc


def _box_extent(grid, max_degree):
    """Total-degree budget and per-axis box extent for a grid.

    Per-axis degrees stop at order - 1 (h_order vanishes on the nodes and
    higher degrees alias onto lower ones), so the budget is clamped to
    dim * (order - 1).
    """
    top = grid.rule.order - 1
    degree = min(max_degree, grid.dim * top)
    return degree, min(degree, top) + 1


def check_capacity(entries, what):
    """CapacityError, worded '<what> <entries> entries, above the cap', if
    an array of that many entries exceeds TENSOR_VALUE_LIMIT."""
    if entries > TENSOR_VALUE_LIMIT:
        raise CapacityError(f"{what} {entries} entries, above the {TENSOR_VALUE_LIMIT} cap")


def _box_entries(shape):
    """Entries of a coefficient box, or of the store the slabs fill, of the
    given shape; CapacityError above the cap."""
    entries = math.prod(shape)
    check_capacity(entries, f"coefficient box of shape {shape} has")
    return entries


def _zero_box(shape):
    """A zero coefficient box of the given shape, refused above the cap."""
    _box_entries(shape)
    return np.zeros(shape)


@contextlib.contextmanager
def _thread_store(shape):
    """An uninitialized float store of the given shape.

    It lies in the calling thread's last store when that has room, and a
    store of at most _KEPT_STORE_ENTRIES entries is kept for the thread's
    next solve: freed and allocated again, it would take fresh pages from
    the heap on every solve. It is taken out while in use, so that a solve
    nested in a target's evaluation gets its own.
    """
    entries = _box_entries(shape)
    flat = _kept.__dict__.pop("store", None)
    if flat is None or flat.size < entries:
        flat = np.empty(entries)
    try:
        yield flat[:entries].reshape(shape)
    finally:
        if flat.size <= _KEPT_STORE_ENTRIES:
            _kept.store = flat


def _project(target, grid, table, size, workers, amap, store):
    """Coefficient box a[tau] for every tau in [0, size - 1]^dim.

    The target is evaluated at the mapped nodes scale * r + shift, with the
    map's log-Jacobian. Slabs are runs of whole leading-axis rows; each
    contracts its full axes into its own rows of the (order, size, ...,
    size) ``store``, whose leading axis is contracted once after the last
    slab. Every row is written, so the store may come uninitialized.
    The caller fills slab 0 alone, raising its error if it fails. Only if
    that took _HELPER_MIN_SLAB_S or more does thread t of min(workers,
    slabs - 1) take the remaining slabs t + 1, t + 1 + threads, ... in
    increasing order, the caller being thread 0. A thread stops at its
    first failing slab; the lowest failing slab is always reached, and its
    error is raised.
    """
    dim, order = grid.dim, grid.rule.order
    # checked for finite coordinates once; the slabs share its axes
    nodes = GridPoints(amap.scale[:, None] * grid.rule.nodes + amap.shift[:, None])
    proj = (table.values[:size] * _lifted_weights(grid.rule)).T
    step = max(1, BLOCK_SIZE // order ** (dim - 1))
    first, *rest = range(0, order, step)
    failures = []

    def fill(lo):
        points = nodes._rows(lo, lo + step)
        values = _sqrt_target_values(target, points, amap.log_jacobian)
        rows = store[lo : lo + step]
        if dim == 1:
            rows[:] = values
            return
        # rows last: each round contracts the leading axis and appends its
        # degrees, so the result is (rows, degree_2, ..., degree_dim)
        box = np.moveaxis(values.reshape(points.shape), 0, -1)
        box = _contract_axes(box, [proj] * (dim - 2))
        # the last round is the product np.tensordot runs, written straight
        # into the slab's rows of the store
        at = np.moveaxis(box, 0, -1).reshape(-1, order)
        np.dot(at, proj, out=rows.reshape(-1, size))

    def work(t):
        for lo in rest[t::threads]:
            try:
                fill(lo)
            except Exception as exc:
                failures.append((lo, exc))
                return

    began = time.perf_counter()
    fill(first)
    threads = 1
    if time.perf_counter() - began >= _HELPER_MIN_SLAB_S:
        threads = max(1, min(workers, len(rest)))
    helpers = [threading.Thread(target=work, args=(t,)) for t in range(1, threads)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return np.tensordot(proj, store, axes=([0], [0]))


@functools.lru_cache(maxsize=4)
def _shell_layout(dim, size, degree):
    """Every tau in [0, size - 1]^dim with total degree <= degree, in shell order.

    Shell order is total degree ascending, then descending lexicographic
    (multiindex.enumerate_shell's order). With every axis of the box
    running high to low, C order is descending lexicographic order, so one
    stable sort of the box's degrees groups the shells in that order.
    Returns a read-only (n, dim) array of the smallest unsigned type that
    holds size - 1 (uint8 up to MAX_ORDER). Calls are cached; _shells calls
    the uncached ``__wrapped__`` for boxes above _LAYOUT_CACHE_ENTRIES.
    """
    # a degree of at most 16 bits takes numpy's radix sort
    high_to_low = np.arange(size - 1, -1, -1).astype(np.min_scalar_type(dim * (size - 1)))
    degrees = functools.reduce(np.add.outer, [high_to_low] * dim).ravel()
    kept = np.flatnonzero(degrees <= degree)
    flat = kept[np.argsort(degrees[kept], kind="stable")]
    taus = size - 1 - np.column_stack(np.unravel_index(flat, (size,) * dim))
    taus = taus.astype(np.min_scalar_type(size - 1))
    taus.setflags(write=False)
    return taus


def _shells(box, quad_order, degree):
    """The coefficients of a box in total-degree shells 0..degree."""
    cached = box.size * box.ndim <= _LAYOUT_CACHE_ENTRIES
    layout = _shell_layout if cached else _shell_layout.__wrapped__
    taus = layout(box.ndim, box.shape[0], degree)
    return CoefficientSet(box.ndim, quad_order, taus, box[tuple(taus.T)])


def _solve(target, grid, table, max_degree, workers, amap):
    """Every coefficient shell up to max_degree, clamped to the aliasing box."""
    degree, size = _box_extent(grid, max_degree)
    _check_table(grid, table, size - 1)
    with _thread_store((grid.rule.order,) + (size,) * (grid.dim - 1)) as store:
        box = _project(target, grid, table, size, workers, amap, store)
    return _shells(box, grid.rule.order, degree)


def coefficients_contracted(target, grid, table, max_degree):
    """All coefficients with total degree <= max_degree by axis contraction.

    Streams the grid through the slab engine that run_opaa uses, on one
    worker. Multi-indices stay inside the box [0, order - 1]^dim and the
    degree budget is clamped to dim * (order - 1). Raises CapacityError,
    before evaluating the target, when the (order, size, ..., size) store
    the slabs fill, size being the per-axis box extent, has more than
    TENSOR_VALUE_LIMIT entries.
    """
    max_degree = as_int(max_degree, "max_degree", 0)
    check_dimension(target.dim, grid.dim, "grid")
    return _solve(target, grid, table, max_degree, 1, AffineMap.identity(grid.dim))


def _resolve_workers(workers):
    if workers is None:
        # the CPUs this process may run on, which taskset or a cgroup can
        # make fewer than the machine's
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    return as_int(workers, "workers", 1)


def run_opaa(
    target,
    quad_order,
    *,
    tol=1e-8,
    max_degree=20,
    precondition=None,
    workers=None,
):
    """Degree-incremental transform of a target density.

    Every coefficient shell of total degree d = 0, 1, ..., max_degree comes
    from one pass of the contraction engine (the degree budget is clamped
    to dim * (quad_order - 1), and shells keep only multi-indices with
    every per-axis degree below quad_order). The shells are then kept up
    to the first degree at which the shell energy has stayed at or below
    ``tol`` times the running total energy for two consecutive degrees
    (odd/even parity can empty alternating shells, so one is not enough),
    or all of them if that never happens. The returned result says which
    condition fired.

    Parameters
    ----------
    target : TargetDensity
        Unnormalized density; evaluated at preconditioned coordinates if a
        map is given.
    quad_order : int
        1-D Gauss-Hermite order, 1..MAX_ORDER.
    tol : float
        Relative shell-energy tolerance, finite and > 0: a Python or numpy
        real number, not a bool.
    max_degree : int
        Largest total degree to compute, >= 0.
    precondition : AffineMap, optional
        Change of variables theta = scale * r + shift, applied to the
        per-axis quadrature nodes r; preserves the evidence.
    workers : int, optional
        Threads that evaluate grid slabs (default: the CPUs this process
        may run on). The calling thread evaluates slab 0 alone; only if
        that took 1 ms or more do up to ``workers - 1`` helpers start, thread t of
        min(workers, slabs - 1) taking slabs 1 + t, 1 + t + threads, ...
        in increasing order. Shorter slabs (a cheap target such as a dim-4
        Gaussian, 0.2-0.4 ms per slab) run faster on one thread on a 2-CPU
        host; a grid of at most BLOCK_SIZE points is one slab and never
        starts a helper. The slab partition depends only on the grid
        shape, each slab fills its own rows and the leading axis is
        contracted once, so the result is bitwise identical for any worker
        count. If slabs fail, the error of the lowest failing slab is
        raised, the one a single worker meets first.

    Raises
    ------
    DegenerateTargetError
        If every coefficient is numerically zero (no target mass in the
        node range); preconditioning is the usual fix.
    CapacityError
        If the engine's (quad_order, size, ..., size) store, size being the
        per-axis box extent, exceeds TENSOR_VALUE_LIMIT entries.
    """
    if not ((is_int(tol) or isinstance(tol, (float, np.floating))) and 0 < tol < np.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    tol = float(tol)
    max_degree = as_int(max_degree, "max_degree", 0)
    workers = _resolve_workers(workers)
    rule = gauss_hermite(quad_order)
    grid = TensorGrid(rule, target.dim)
    amap = AffineMap.identity(grid.dim) if precondition is None else precondition
    check_dimension(target.dim, amap.dim, "map")
    coeffs = _solve(target, grid, rule.table, max_degree, workers, amap)
    energy = np.array(coeffs.shell_energy)
    quiet = energy <= tol * np.cumsum(energy)
    hits = np.flatnonzero(quiet[1:] & quiet[:-1])
    converged = hits.size > 0
    if converged:
        end = coeffs._bounds[hits[0] + 2]
        coeffs = CoefficientSet(
            coeffs.dim, coeffs.quad_order, coeffs.taus[:end], coeffs.values[:end]
        )
    total = coeffs.total_energy
    if total == 0.0:
        raise DegenerateTargetError(
            "transform is numerically zero at every grid node; precondition the "
            "target with an AffineMap so its mass lies in the node range"
        )
    return RunResult(
        coefficients=coeffs,
        evidence=total,
        converged=converged,
        stop_reason="shell_tolerance" if converged else "max_degree",
        max_degree_reached=coeffs.max_degree,
    )


def _expansion(box, tables):
    """sum_tau box[tau] * prod_k tables[k][tau_k, p] at every point p.

    ``tables[k]`` holds the basis functions of axis k at the points, shape
    (box extent, points). The last coefficient axis is contracted by one
    matrix product, the others point by point.
    """
    s = np.tensordot(box, tables[-1], axes=([-1], [0]))
    for table in reversed(tables[:-1]):
        s = np.einsum("...ip,ip->...p", s, table)
    return s


def _contract_axes(box, matrices):
    """box contracted along its axis k with matrices[k], for every axis k.

    Each round contracts the leading axis and appends the result axis last,
    so after one round per axis the axes are back in coordinate order.
    """
    for matrix in matrices:
        box = np.tensordot(box, matrix, axes=([0], [0]))
    return box


class GridPoints:
    """The points of a tensor grid, given by one 1-D coordinate vector per axis.

    As an array it is the (n_points, dim) batch of its points, theta1-major
    (``np.meshgrid(*axes, indexing="ij")`` flattened) and column-major in
    memory, so it can stand in for that batch; ``ApproxDensity`` and the
    built-in targets evaluate it per axis without building the batch. The
    coordinates must be finite.
    """

    def __init__(self, axes):
        self.axes = tuple(np.asarray(axis, dtype=float) for axis in axes)
        if not self.axes or any(axis.ndim != 1 or axis.size == 0 for axis in self.axes):
            raise ValueError("a grid needs one or more non-empty 1-D coordinate axes")
        if not all(np.all(np.isfinite(axis)) for axis in self.axes):
            raise ValueError("grid coordinates must be finite")

    @property
    def shape(self):
        return tuple(axis.size for axis in self.axes)

    def _rows(self, lo, hi):
        # the sub-grid of axis-0 coordinates lo:hi, sharing the checked axes
        rows = object.__new__(GridPoints)
        rows.axes = (self.axes[0][lo:hi], *self.axes[1:])
        return rows

    def __array__(self, dtype=None, copy=None):
        mesh = np.meshgrid(*self.axes, indexing="ij", copy=False)
        # the rows theta1-major, stored column-major so that a target's
        # per-row reduction adds along contiguous columns
        return np.asarray(np.stack(mesh).reshape(len(self.axes), -1).T, dtype=dtype)


@dataclass(frozen=True)
class ApproxDensity:
    """Normalized smooth density reconstructed from a coefficient set.

    Evaluates [sum_tau a_tau prod_k psi_{tau_k}(theta_k)]^2 / total_energy
    through the Hermite-function recurrence, so it stays finite for any
    finite coordinate; a non-finite one raises ValueError. Calling
    convention: a 1-D array is one point, a 2-D array is a batch of row
    points (an array of more dimensions raises ValueError), and a
    GridPoints is the batch of its points, evaluated per axis. ``grid``
    returns the latter in grid shape.
    """

    coefficients: CoefficientSet

    def _box(self):
        # dense coefficient box, and a point count per chunk at which the
        # largest per-chunk array (one axis table, or the box contracted over
        # its last axis) holds at most _CHUNK_ENTRIES entries
        cs = self.coefficients
        extent = int(cs.taus.max(initial=0)) + 1
        box = _zero_box((extent,) * cs.dim)
        box[tuple(cs.taus.T)] = cs.values
        chunk = max(1, _CHUNK_ENTRIES // extent ** max(cs.dim - 1, 1))
        return box, chunk

    def __call__(self, points):
        if isinstance(points, GridPoints):
            return self._on_grid(points)
        cs = self.coefficients
        pts = np.asarray(points, dtype=float)
        if pts.ndim > 2:
            raise ValueError(f"points must be one point or a 2-D batch, got shape {pts.shape}")
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != cs.dim:
            raise ValueError(f"points must have {cs.dim} columns, got {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        box, chunk = self._box()
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], chunk):
            part = pts[start : start + chunk]
            tables = [
                hermite.psi_table(box.shape[0] - 1, part[:, k]) for k in range(cs.dim)
            ]
            s = _expansion(box, tables)
            out[start : start + chunk] = s * s
        out /= cs.total_energy
        return float(out[0]) if single else out

    def _on_grid(self, grid):
        # The sum over tau is separable: one psi table per axis on that
        # axis's coordinates, and the box contracted with them one leading
        # axis at a time. Axis 0 goes in blocks of rows, so that apart from
        # the output and the other axes' tables every array stays within
        # _CHUNK_ENTRIES unless a single row exceeds it; in 1-D the blocks
        # are __call__'s chunks, so the values are bit for bit __call__'s.
        cs = self.coefficients
        if len(grid.axes) != cs.dim:
            raise ValueError(f"grid must have {cs.dim} axes, got {len(grid.axes)}")
        box, _ = self._box()
        extent = box.shape[0]
        first, *rest = grid.axes
        n = grid.shape
        # entries per axis-0 row: its psi column, then the box after each round
        per_row = [extent] + [
            extent ** (cs.dim - 1 - k) * math.prod(n[1 : k + 1]) for k in range(cs.dim)
        ]
        largest = max(*per_row, math.prod(n), *(extent * axis.size for axis in rest))
        check_capacity(largest, "density grid needs an array of")
        rows = max(1, _CHUNK_ENTRIES // max(per_row))
        tables = [hermite.psi_table(extent - 1, axis) for axis in rest]
        out = np.empty(n)
        for start in range(0, first.size, rows):
            head = hermite.psi_table(extent - 1, first[start : start + rows])
            s = _contract_axes(box, [head, *tables])
            out[start : start + rows] = s * s
        out /= cs.total_energy
        return out.reshape(-1)

    def grid(self, axes):
        """The density on the tensor product of the 1-D coordinate vectors axes.

        Returns an array of shape (len(axes[0]), ..., len(axes[dim - 1])):
        the values of ``self(GridPoints(axes))``, which agree with ``self``
        at the meshgrid points up to the rounding of the contraction order
        (bit for bit in 1-D). Raises CapacityError, before allocating, when
        the output, a later axis's psi table or one first-axis row's
        intermediate has more than TENSOR_VALUE_LIMIT entries.
        """
        # through __call__, the density's one evaluation entry, where a grid
        # counts as its n_points points (perfbench's core.reconstruct boundary)
        points = GridPoints(axes)
        return self(points).reshape(points.shape)

    def mass(self, quad_order=None):
        """Integral of the density by a fresh raw-node quadrature.

        The default order is the per-axis extent of the coefficient box
        (largest per-axis degree + 1), at which the squared reconstruction
        is integrated exactly, so the result is 1 up to rounding; an
        independent normalization check. The node sum is separable: with
        the rule's Gram matrix G[m, n] = sum_i w_i h_m(r_i) h_n(r_i) it
        equals <a, a x_1 G x_2 G ... x_dim G>, so the node grid itself is
        never built.
        """
        cs = self.coefficients
        box, _ = self._box()
        rule = gauss_hermite(box.shape[0] if quad_order is None else quad_order)
        # the rule's own table, grown only for an order below the box extent
        table = hermite.extend_table(rule.table, box.shape[0] - 1).values[: box.shape[0]]
        gram = (table * rule.weights) @ table.T
        weighted = _contract_axes(box, [gram] * cs.dim)
        return float(np.vdot(box, weighted)) / cs.total_energy


def build_density(coeffs):
    """Wrap a coefficient set as a normalized evaluable density."""
    if coeffs.values.size == 0:
        raise ValueError("coefficient set is empty")
    energy = coeffs.total_energy
    if not 0.0 < energy < np.inf:
        raise ValueError(
            f"coefficient set has zero total energy or a non-finite one: {energy!r}"
        )
    return ApproxDensity(coefficients=coeffs)
