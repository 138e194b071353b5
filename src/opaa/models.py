"""Built-in target densities: isotropic Gaussian, planted transforms, GMM joints.

Every model implements the :class:`~opaa.core.TargetDensity` interface with a
vectorized ``log_density_batch``, and a ``log_density_grid`` that computes
each per-axis term once per grid coordinate and combines the terms by
broadcasting, in the order the batch combines its columns, so both return
the same bits. A two-cluster GMM joint does not change when its two means
are swapped, so on a grid whose two axes are the same vector it combines
the terms once per unordered node pair: IEEE addition and logaddexp are
commutative, so the bits are those of the broadcast. Every path refuses
points of another dimension than the model's with one ValueError.
``from_config`` builds any of them from the JSON model-config mapping the
CLI reads.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import hermite
from .core import GridPoints, TargetDensity, check_dimension
from .errors import as_int, is_number
from .quadrature import MAX_ORDER

__all__ = [
    "GaussianIdentity",
    "GmmJointDensity",
    "GmmModel",
    "PlantedDensity",
    "REFERENCE_MEANS",
    "from_config",
    "gmm_log_joint",
    "gmm_sample_dataset",
    "load_config",
]

# three-cluster demo means, kept as a fixed regression input for the sampler
# and joint-density tests; nothing quantitative is asserted about runs on it
REFERENCE_MEANS = (-18.61, 3.81, 8.84)

_LOG_2PI = float(np.log(2.0 * np.pi))


def _batch(dim, points):
    """points as a float batch of rows of dim coordinates; a 1-D array is
    one point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    check_dimension(dim, pts.shape[-1], "point")
    return pts


class GaussianIdentity(TargetDensity):
    """P(theta) = pi^{-dim/2} e^{-|theta|^2}: the basis ground state squared.

    Its transform has a single nonzero coefficient a_0 = 1, which makes it
    the canonical smoke target.
    """

    def __init__(self, dim):
        self.dim = as_int(dim, "dim", 1)

    def log_density(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        check_dimension(self.dim, theta.shape[-1], "point")
        return float(-0.5 * self.dim * np.log(np.pi) - np.dot(theta, theta))

    def log_density_batch(self, points):
        pts = _batch(self.dim, points)
        return -0.5 * self.dim * np.log(np.pi) - np.sum(pts**2, axis=1)

    def log_density_grid(self, grid):
        check_dimension(self.dim, len(grid.axes), "grid")
        # the squares added axis by axis, as np.sum adds a column-major batch
        squares = functools.reduce(np.add.outer, [axis**2 for axis in grid.axes])
        return -0.5 * self.dim * np.log(np.pi) - squares.reshape(-1)


class PlantedDensity(TargetDensity):
    """P(theta) = q(theta)^2 * prod_j e^{-theta_j^2} for a known combination q.

    ``coeffs`` maps multi-index tuples to the coefficients c_tau of
    q = sum c_tau prod_k h_{tau_k}. The transform of P recovers exactly
    these coefficients provided q > 0 at every quadrature node, and the
    total energy equals sum c_tau^2 regardless of sign. Evaluation goes
    through Hermite functions, so the Gaussian envelope is applied before
    anything can overflow:  sqrt(P) = |sum c_tau prod psi_{tau_k}|.
    """

    def __init__(self, dim, coeffs):
        self.dim = as_int(dim, "dim", 1)
        cleaned = {}
        for tau, c in coeffs.items():
            tau = tuple(as_int(v, "multi-index entry", 0) for v in tau)
            if len(tau) != self.dim:
                raise ValueError(f"invalid multi-index {tau} for dimension {dim}")
            c = float(c)
            if not np.isfinite(c):
                raise ValueError(f"coefficient of multi-index {tau} must be finite, got {c!r}")
            cleaned[tau] = c
        if not cleaned:
            raise ValueError("coeffs must be non-empty")
        self.coeffs = cleaned
        self.max_degree = max(max(tau) for tau in cleaned)

    def bracket(self, points):
        """sum c_tau prod_k psi_{tau_k} at each point: sign(q) times sqrt(P).

        Takes row points or a GridPoints. A grid's psi tables are built on
        its axes and its products formed by broadcasting, the same
        operations in the same order, so the values are those of its
        point batch.
        """
        if isinstance(points, GridPoints):
            check_dimension(self.dim, len(points.axes), "grid")
            axes, multiply = points.axes, np.multiply.outer
        else:
            axes, multiply = _batch(self.dim, points).T, np.multiply
        tables = [hermite.psi_table(self.max_degree, axis) for axis in axes]
        s = 0.0
        for tau, c in self.coeffs.items():
            term = c * tables[0][tau[0]]
            for k in range(1, self.dim):
                term = multiply(term, tables[k][tau[k]])
            s = s + term
        return s.reshape(-1)

    def log_density(self, theta):
        return float(self.log_density_batch(np.atleast_2d(theta))[0])

    def log_density_batch(self, points):
        s = self.bracket(points)
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(s))

    # bracket evaluates a GridPoints per axis
    log_density_grid = log_density_batch

    def bracket_minimum(self, half_range, points_per_axis=None):
        """Minimum of the bracket over a dense symmetric grid [-h, h]^dim.

        A positive result certifies q > 0 on the box. Defaults to 10^4
        points per axis in one dimension and 512 per axis above (a full
        10^4-per-axis sweep in 2-D is 10^8 evaluations for a sanity check).
        """
        if points_per_axis is None:
            points_per_axis = 10_000 if self.dim == 1 else 512
        points_per_axis = as_int(points_per_axis, "points_per_axis", 1)
        axis = np.linspace(-half_range, half_range, points_per_axis)
        return float(np.min(self.bracket(GridPoints([axis] * self.dim))))


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture study: cluster means under a zero-centered normal
    prior, observations drawn from an equal-weight mixture around them.

    ``observations`` may be empty, in which case the joint is just the
    prior over the means.
    """

    clusters: int
    prior_sigma: float
    obs_sigma: float
    observations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "clusters", as_int(self.clusters, "clusters", 1))
        for name in ("prior_sigma", "obs_sigma"):
            sigma = getattr(self, name)
            # an infinite sigma (a config's 1e999) makes every density zero
            if not 0 < sigma < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {sigma!r}")
            object.__setattr__(self, name, float(sigma))
        obs = np.asarray(self.observations, dtype=float).reshape(-1).copy()
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)


def _gmm_log_joint_batch(model, mus):
    return _gmm_log_joint(model, _batch(model.clusters, mus).T, np.add, np.logaddexp)


def _gmm_log_joint(model, means, add, logaddexp, picks=None):
    """The log joint from one coordinate vector per cluster mean.

    With the ufuncs themselves the k-th vectors hold the k-th coordinates of
    row points; with their ``.outer`` they are a grid's axes, every per-axis
    term is computed once per coordinate and the result is the grid's
    values, flattened theta1-major. With ``picks`` (and the ufuncs
    themselves), ``means`` is one node vector that every cluster shares:
    each term is computed once per node and gathered at the index vector
    picks[k] for cluster k. The cluster terms are added, and the mixture
    folded (the left fold np.logaddexp.reduce makes), cluster by cluster in
    every case.
    """
    sp, so = model.prior_sigma, model.obs_sigma

    def per_cluster(term):
        if picks is None:
            return [term(m) for m in means]
        values = term(means)
        return [values[p] for p in picks]

    out = functools.reduce(
        add, per_cluster(lambda m: -0.5 * (m / sp) ** 2 - np.log(sp) - 0.5 * _LOG_2PI)
    )
    log_k = np.log(model.clusters)
    for x in model.observations:
        comp = per_cluster(lambda m: -0.5 * ((x - m) / so) ** 2 - np.log(so) - 0.5 * _LOG_2PI)
        out += functools.reduce(logaddexp, comp) - log_k
    return out.reshape(-1)


def _pair_index(n):
    """The node pairs i <= j of an n x n grid, and each grid point's pair.

    Returns ``(rows, cols, inverse)``: the n(n+1)/2 pairs are
    (rows[k], cols[k]) in np.triu_indices' order, and ``inverse[i * n + j]``
    is the position of the pair of (i, j) or (j, i) among them. Each array
    has the smallest unsigned dtype that holds its entries.
    """
    rows, cols = np.triu_indices(n)
    node = np.min_scalar_type(n - 1)
    pair = np.arange(rows.size, dtype=np.min_scalar_type(rows.size - 1))
    inverse = np.empty((n, n), dtype=pair.dtype)
    inverse[rows, cols] = pair
    inverse[cols, rows] = pair
    index = (rows.astype(node), cols.astype(node), inverse.reshape(-1))
    for arr in index:
        arr.setflags(write=False)
    return index


# engine grids have at most MAX_ORDER nodes per axis; larger ones are not kept
_cached_pair_index = functools.cache(_pair_index)


def gmm_log_joint(model, mu):
    """Log joint density of means and observations at the mean vector mu.

    Sum of the mean priors plus, per observation, the log of the
    equal-weight mixture likelihood (computed by pairwise log-add-exp, so
    distant means cannot underflow the whole product).
    """
    return float(_gmm_log_joint_batch(model, mu)[0])


class GmmJointDensity(TargetDensity):
    """The GMM joint as a target density over the mean vector."""

    def __init__(self, model):
        self.model = model
        self.dim = model.clusters

    def log_density(self, theta):
        return gmm_log_joint(self.model, theta)

    def log_density_batch(self, points):
        return _gmm_log_joint_batch(self.model, points)

    def log_density_grid(self, grid):
        axes = grid.axes
        check_dimension(self.dim, len(axes), "grid")
        # bytes, not values: only byte-equal axes surely give byte-equal
        # terms (a -0.0 node against a 0.0 one takes the broadcast)
        if self.dim == 2 and axes[0].tobytes() == axes[1].tobytes():
            n = axes[0].size
            index = (_cached_pair_index if n <= MAX_ORDER else _pair_index)(n)
            # kept small, widened once per call: a gather through a uint8 or
            # uint16 index takes about twice as long as through an intp one
            rows, cols, inverse = (idx.astype(np.intp) for idx in index)
            values = _gmm_log_joint(self.model, axes[0], np.add, np.logaddexp, (rows, cols))
            return values[inverse]
        return _gmm_log_joint(self.model, axes, np.add.outer, np.logaddexp.outer)


def gmm_sample_dataset(clusters, prior_sigma, obs_sigma, n, seed):
    """Draw means from the prior and n observations from the mixture.

    Deterministic in ``seed``. Returns (means, observations).
    """
    clusters = as_int(clusters, "clusters", 1)
    n = as_int(n, "n", 0)
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, prior_sigma, size=clusters)
    picks = rng.integers(0, clusters, size=n)
    observations = rng.normal(means[picks], obs_sigma)
    # validates the parameters as a side effect
    GmmModel(
        clusters=clusters,
        prior_sigma=prior_sigma,
        obs_sigma=obs_sigma,
        observations=observations,
    )
    return means, observations


def load_config(path):
    """Read a model-config JSON file into a dict."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def from_config(config):
    """Build a TargetDensity from a model-config mapping.

    Recognized types: ``gaussian_identity`` (dim), ``planted`` (dim, coeffs
    as a list of {"tau": [...], "c": value}), and ``gmm`` (clusters,
    prior_sigma, obs_sigma, observations).
    """
    if not isinstance(config, dict) or "type" not in config:
        raise ValueError("model config must be a mapping with a 'type' key")
    kind = config["type"]
    if kind == "gaussian_identity":
        return GaussianIdentity(dim=_require(config, "dim"))
    if kind == "planted":
        entries = config.get("coeffs")
        if not isinstance(entries, list) or not entries:
            raise ValueError("planted config needs a non-empty 'coeffs' list")
        coeffs = {}
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(entry.get("tau"), list):
                raise ValueError(f"planted coeff entries need a 'tau' list and a 'c': {entry!r}")
            # checked before hashing: a list entry would be unhashable
            tau = tuple(as_int(v, "multi-index entry", 0) for v in entry["tau"])
            if tau in coeffs:
                raise ValueError(f"planted config repeats multi-index {tau}")
            coeffs[tau] = _number(entry, "c")
        return PlantedDensity(dim=_require(config, "dim"), coeffs=coeffs)
    if kind == "gmm":
        observations = config.get("observations", [])
        if not isinstance(observations, list) or not all(map(is_number, observations)):
            raise ValueError(
                f"model config 'observations' must be a list of numbers, got {observations!r}"
            )
        model = GmmModel(
            clusters=_require(config, "clusters"),
            prior_sigma=_number(config, "prior_sigma"),
            obs_sigma=_number(config, "obs_sigma"),
            observations=observations,
        )
        return GmmJointDensity(model)
    raise ValueError(f"unknown model type {kind!r}")


def _require(config, key):
    if key not in config:
        raise ValueError(f"model config is missing required key {key!r}")
    return config[key]


def _number(config, key):
    """A required JSON number as a float."""
    value = _require(config, key)
    if not is_number(value):
        raise ValueError(f"model config {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # a JSON integer of 309 or more digits
        raise ValueError(f"model config {key!r} is too large for a float") from None
