"""Gauss-Hermite quadrature rules and lazy tensor grids.

Nodes are the roots of H_Gamma, found as eigenvalues of the symmetric
tridiagonal Jacobi matrix (zero diagonal, off-diagonal sqrt(k/2)) via the
in-repo implicit-shift QL solver; weights come from the closed form
w_i = 1 / (Gamma * h_{Gamma-1}(r_i)^2). Each rule also carries the
sqrt(2)-scaled variant (r~ = sqrt(2) r, w~ = sqrt(2) w) that integrates
against the half-Gaussian weight e^{-x^2/2}, with sum(w~) = sqrt(2*pi).

Tensor grids over [1..Gamma]^N are never materialized: grid points are
decoded on demand from linear indices in odometer order (last coordinate
fastest), and the weight multiset statistics are computed combinatorially.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import hermite
from .errors import NumericalDomainError

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
_EPS = 2.220446049250313e-16
_MAX_QL_SWEEPS = 50


@dataclass(frozen=True)
class QuadratureRule:
    """A Gauss-Hermite rule of the given order.

    ``nodes``/``weights`` integrate against e^{-x^2}; ``scaled_nodes`` /
    ``scaled_weights`` are the sqrt(2)-scaled variant for e^{-x^2/2}.
    Nodes are ascending and exactly antisymmetric; weights are positive
    and symmetric. Arrays are read-only.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    scaled_nodes: np.ndarray
    scaled_weights: np.ndarray


def _validated_order(order):
    if not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    return int(order)


def _tridiag_ql(diag, off):
    """Implicit-shift QL for a symmetric tridiagonal matrix.

    Takes the diagonal and the n-1 subdiagonal entries; returns the
    eigenvalues and the first component of every normalized eigenvector.
    """
    d = diag.astype(np.float64).copy()
    n = d.shape[0]
    e = np.zeros(n)
    e[: n - 1] = off
    # a row of the identity, rotated along with the eigenvectors
    z = np.zeros(n)
    z[0] = 1.0
    for l in range(n):
        sweeps = 0
        while True:
            m = n - 1
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= _EPS * dd:
                    m = mm
                    break
            if m == l:
                break
            if sweeps == _MAX_QL_SWEEPS:
                raise RuntimeError("tridiagonal QL failed to converge in 50 sweeps")
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0.0 else -r))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rotation annihilated early; drop the shift and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return d, z


def _jacobi_eigensystem(order):
    # eigenvalues of the Jacobi matrix are the rule's nodes; the squared
    # first eigenvector components give the weights up to the total mass
    diag = np.zeros(order)
    off = np.sqrt(np.arange(1, order) / 2.0)
    eigs, first = _tridiag_ql(diag, off)
    sort = np.argsort(eigs, kind="stable")
    return eigs[sort], first[sort]


def _symmetrized_nodes(eigs):
    nodes = 0.5 * (eigs - eigs[::-1])
    if nodes.size % 2 == 1:
        nodes[nodes.size // 2] = 0.0
    return nodes


def gauss_hermite(order):
    """Build the Gauss-Hermite rule of the given order (1..MAX_ORDER).

    Returns
    -------
    QuadratureRule
        Raw (weight e^{-x^2}) and scaled (weight e^{-x^2/2}) node/weight
        pairs, with +/- node pairs symmetrized exactly.
    """
    order = _validated_order(order)
    eigs, _ = _jacobi_eigensystem(order)
    nodes = _symmetrized_nodes(eigs)
    weights = 1.0 / (order * hermite.eval_h(order - 1, nodes) ** 2)
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
    )


def eigenvector_weights(order):
    """Weights recovered from the Jacobi eigenvectors instead of h_{Gamma-1}.

    The squared first components of the normalized eigenvectors, scaled by
    the total mass sqrt(pi). Exists as an independent route for testing the
    closed-form weights; :func:`gauss_hermite` does not use it.
    """
    order = _validated_order(order)
    _, first = _jacobi_eigensystem(order)
    w = np.sqrt(np.pi) * first**2
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

    Grid indices are 1-based tuples j in [1..order]^dim; linear indices run
    in odometer order with the last coordinate fastest. Nothing of size
    order^dim is ever allocated.
    """

    def __init__(self, rule, dim):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        self.rule = rule
        self.dim = int(dim)

    @property
    def total_count(self):
        """Number of grid points, order**dim, as an exact int."""
        return self.rule.order ** self.dim

    def _validated_index(self, j):
        idx = tuple(int(v) for v in j)
        if len(idx) != self.dim:
            raise ValueError(f"grid index must have {self.dim} entries, got {idx}")
        for v in idx:
            if not 1 <= v <= self.rule.order:
                raise ValueError(
                    f"grid index entries must be in [1, {self.rule.order}], got {idx}"
                )
        return np.asarray(idx, dtype=np.int64) - 1

    def node(self, j):
        """Scaled-node coordinates of the 1-based grid index j."""
        return self.rule.scaled_nodes[self._validated_index(j)].copy()

    def weight(self, j):
        """Product of scaled 1-D weights at the 1-based grid index j."""
        return float(np.prod(self.rule.scaled_weights[self._validated_index(j)]))

    def decode(self, start, stop):
        """0-based coordinate array for linear indices [start, stop)."""
        if not 0 <= start <= stop <= self.total_count:
            raise ValueError(
                f"linear range [{start}, {stop}) outside [0, {self.total_count})"
            )
        shape = (self.rule.order,) * self.dim
        return np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)

    def block_ranges(self, block_size):
        """Contiguous (start, stop) linear ranges covering the whole grid.

        The partition depends only on block_size, never on how many workers
        consume it, so reductions combined in ascending range order are
        reproducible for any worker count.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
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
    summing to total_count. Never enumerates the grid itself.
    """
    rule = gauss_hermite(order)
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    dim = int(dim)
    distinct_count = math.comb(order + dim - 1, dim)
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
