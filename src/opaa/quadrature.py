"""Gauss-Hermite quadrature rules and lazy tensor grids.

Nodes are the roots of H_Gamma, found as eigenvalues of the symmetric
tridiagonal Jacobi matrix (zero diagonal, off-diagonal sqrt(k/2)) with the
LAPACK eigensolver behind ``np.linalg.eigh`` (Golub & Welsch 1969). Each rule
carries the Hermite table of h_0..h_{Gamma-1} at its nodes, the projection
matrix of every transform on its grid, and its weights come from the
table's last row by the closed form w_i = 1 / (Gamma * h_{Gamma-1}(r_i)^2).
Rules are shared: the _RULE_CACHE_ORDERS orders used most recently are kept. Each rule also carries the
sqrt(2)-scaled variant (r~ = sqrt(2) r, w~ = sqrt(2) w) that integrates
against the half-Gaussian weight e^{-x^2/2}, with sum(w~) = sqrt(2*pi).

Tensor grids over [0..Gamma-1]^N are never materialized: grid points are
decoded on demand from linear indices in odometer order (last coordinate
fastest), and the weight multiset statistics are computed combinatorially.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import hermite
from .errors import CapacityError, NumericalDomainError, as_int

__all__ = [
    "MAX_ORDER",
    "QuadratureRule",
    "TensorGrid",
    "eigenvector_weights",
    "gauss_hermite",
    "integrate_1d",
    "weight_multiset_stats",
]

MAX_ORDER = 256
# weight_multiset_stats lists one histogram entry per distinct weight
_MAX_DISTINCT_WEIGHTS = 10**6
# rules kept for reuse: a solve and a mass() check use two orders, and
# all 256 orders would keep 49 MB of Hermite tables alive
_RULE_CACHE_ORDERS = 16


@dataclass(frozen=True)
class QuadratureRule:
    """A Gauss-Hermite rule of the given order.

    ``nodes``/``weights`` integrate against e^{-x^2}; ``scaled_nodes`` /
    ``scaled_weights`` are the sqrt(2)-scaled variant for e^{-x^2/2}.
    ``table`` is the HermiteTable of h_0..h_{order-1} at ``nodes``. Nodes
    are ascending and exactly antisymmetric; weights are positive and
    symmetric. Arrays are read-only.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    scaled_nodes: np.ndarray
    scaled_weights: np.ndarray
    table: hermite.HermiteTable


def _validated_order(order):
    order = as_int(order, "order", 1)
    if order > MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    return order


def _nodes(order):
    # Golub & Welsch: the nodes are the eigenvalues of the symmetric
    # tridiagonal Jacobi matrix, ascending. eigh, not eigvalsh: LAPACK's
    # eigenvalue-only route loses about a digit at order 256.
    off = np.sqrt(np.arange(1, order) / 2.0)
    eigs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[0]
    nodes = 0.5 * (eigs - eigs[::-1])
    if order % 2 == 1:
        nodes[order // 2] = 0.0
    return nodes


def gauss_hermite(order):
    """The Gauss-Hermite rule of the given order (1..MAX_ORDER).

    Rules are immutable, so the same instance is returned to every caller
    while its order is among the _RULE_CACHE_ORDERS orders asked for most
    recently; any other order is built again.

    Returns
    -------
    QuadratureRule
        Raw (weight e^{-x^2}) and scaled (weight e^{-x^2/2}) node/weight
        pairs, with +/- node pairs symmetrized exactly.
    """
    return _build_rule(_validated_order(order))


@functools.lru_cache(maxsize=_RULE_CACHE_ORDERS)
def _build_rule(order):
    nodes = _nodes(order)
    table = hermite.build_table(order - 1, nodes)
    weights = 1.0 / (order * table.values[-1] ** 2)
    weights = 0.5 * (weights + weights[::-1])
    scaled_nodes = np.sqrt(2.0) * nodes
    scaled_weights = np.sqrt(2.0) * weights
    for arr in (nodes, weights, scaled_nodes, scaled_weights):
        arr.setflags(write=False)
    return QuadratureRule(
        order=order,
        nodes=nodes,
        weights=weights,
        scaled_nodes=scaled_nodes,
        scaled_weights=scaled_weights,
        table=table,
    )


def eigenvector_weights(order):
    """Weights recovered from the Jacobi eigenvectors instead of h_{Gamma-1}.

    The normalized eigenvector of the Jacobi matrix for the node r is
    proportional to (h_0(r), ..., h_{Gamma-1}(r)), so its squared first
    component times the total mass sqrt(pi) is w = 1 / sum_k h_k(r)^2.
    The eigenvector is the rule's table column, built by the recurrence
    rather than taken from the eigensolver, whose components are accurate
    only in absolute terms and would leave the outermost weights off in
    relative terms. Exists as an independent route for testing the
    closed-form weights; :func:`gauss_hermite` does not use it.
    """
    table = _build_rule(_validated_order(order)).table
    w = 1.0 / np.sum(table.values**2, axis=0)
    return 0.5 * (w + w[::-1])


def integrate_1d(f, rule):
    """Integrate f against the weight e^{-x^2/2} with the scaled rule.

    Evaluates f at every scaled node in ascending order and returns
    sum(w~_i f(r~_i)). Raises NumericalDomainError naming the node if any
    value is non-finite.
    """
    vals = np.empty(rule.order)
    for i, x in enumerate(rule.scaled_nodes):
        v = float(f(x))
        if not math.isfinite(v):
            raise NumericalDomainError(
                f"integrand returned non-finite value {v!r} at node {x!r}"
            )
        vals[i] = v
    return float(np.dot(rule.scaled_weights, vals))


class TensorGrid:
    """Lazy tensor product of a 1-D rule over ``dim`` coordinates.

    Grid indices are 0-based: ``decode`` turns linear indices, in odometer
    order with the last coordinate fastest, into rows of per-axis node
    indices j in [0..order-1]^dim, which index the rule's arrays directly.
    Nothing of size order^dim is ever allocated.
    """

    def __init__(self, rule, dim):
        self.rule = rule
        self.dim = as_int(dim, "dim", 1)

    @property
    def total_count(self):
        """Number of grid points, order**dim, as an exact int."""
        return self.rule.order ** self.dim

    def decode(self, start, stop):
        """0-based coordinate array for linear indices [start, stop)."""
        start, stop = as_int(start, "start", 0), as_int(stop, "stop", 0)
        if not start <= stop <= self.total_count:
            raise ValueError(
                f"linear range [{start}, {stop}) outside [0, {self.total_count})"
            )
        shape = (self.rule.order,) * self.dim
        return np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)

    def block_ranges(self, block_size):
        """Contiguous (start, stop) linear ranges covering the whole grid."""
        block_size = as_int(block_size, "block_size", 1)
        total = self.total_count
        return [
            (s, min(s + block_size, total)) for s in range(0, total, block_size)
        ]


def weight_multiset_stats(order, dim):
    """Distinct-weight statistics of the tensor grid, computed combinatorially.

    A grid weight is a product of ``dim`` scaled 1-D weights and depends only
    on the multiset of chosen node indices, so there are C(order+dim-1, dim)
    distinct values among order**dim grid points. Returns
    ``(distinct_count, total_count, histogram)`` where histogram lists
    ``(weight, multiplicity)`` per multiset, multiplicities exact ints
    summing to total_count. Never enumerates the grid itself; raises
    CapacityError, before any enumeration, when there are more than 10^6
    distinct weights.
    """
    order = _validated_order(order)
    dim = as_int(dim, "dim", 1)
    distinct_count = math.comb(order + dim - 1, dim)
    if distinct_count > _MAX_DISTINCT_WEIGHTS:
        raise CapacityError(
            f"order {order}, dim {dim} has {distinct_count} distinct weights, "
            f"above the {_MAX_DISTINCT_WEIGHTS} cap"
        )
    rule = _build_rule(order)
    total_count = order**dim
    dim_factorial = math.factorial(dim)
    histogram = []
    for combo in itertools.combinations_with_replacement(range(order), dim):
        weight = float(np.prod(rule.scaled_weights[list(combo)]))
        multiplicity = dim_factorial
        for _, group in itertools.groupby(combo):
            multiplicity //= math.factorial(sum(1 for _ in group))
        histogram.append((weight, multiplicity))
    return distinct_count, total_count, histogram
