"""Composite-Simpson reference integrator: the independent checking route.

This module never touches the quadrature rules, Hermite tables, or the
transform engine: it depends on numpy alone, and even the GMM joint is
re-derived here in plain arithmetic. Its results are only accepted after a
self-check: doubling the grid must move the estimate by less than
REFINE_RTOL relatively, otherwise the oracle refuses to vouch for a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalDomainError, OracleRefusedError, as_int

__all__ = [
    "BoxSpec",
    "MAX_DIM",
    "REFINE_RTOL",
    "check_gmm_box",
    "gmm_box_requirement",
    "gmm_evidence_direct",
    "integrate_box",
    "integrate_box_refined",
]

MAX_DIM = 3
REFINE_RTOL = 1e-8

# cap on points per f() call when slabbing the leading axes
_CHUNK_VALUES = 1 << 18


@dataclass(frozen=True)
class BoxSpec:
    """A truncation box with a per-axis Simpson grid.

    ``intervals`` is a sequence of (lo, hi) pairs, one per dimension (at
    most MAX_DIM); ``points_per_axis`` is rounded up to the next odd count
    as composite Simpson requires.
    """

    intervals: tuple
    points_per_axis: int

    def __post_init__(self):
        intervals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not intervals:
            raise ValueError("box needs at least one interval")
        if len(intervals) > MAX_DIM:
            raise CapacityError(
                f"box has {len(intervals)} dimensions, the Simpson oracle handles at most {MAX_DIM}"
            )
        for lo, hi in intervals:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid interval ({lo}, {hi})")
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(
            self, "points_per_axis", as_int(self.points_per_axis, "points_per_axis", 3)
        )

    @property
    def dim(self):
        return len(self.intervals)

    def effective_points(self):
        m = self.points_per_axis
        return m if m % 2 == 1 else m + 1

    def refined(self):
        """The same box with each Simpson interval halved."""
        return BoxSpec(
            intervals=self.intervals, points_per_axis=2 * self.effective_points() - 1
        )


def _simpson_axis(lo, hi, m):
    x = np.linspace(lo, hi, m)
    h = (hi - lo) / (m - 1)
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


def integrate_box(f, box):
    """Tensor-product composite Simpson estimate of integral of f over the box.

    ``f`` must accept an (M, dim) array of row points and return M values.
    Evaluation is slabbed along the leading axes so no call sees more than
    ~2^18 points; slabs are accumulated in ascending order.
    """
    m = box.effective_points()
    axes = [_simpson_axis(lo, hi, m) for lo, hi in box.intervals]
    dim = box.dim
    last_x, last_w = axes[-1]
    lead_sizes = [m] * (dim - 1)
    lead_total = int(np.prod(lead_sizes)) if lead_sizes else 1
    rows_per_chunk = max(1, _CHUNK_VALUES // m)
    acc = 0.0
    for start in range(0, lead_total, rows_per_chunk):
        stop = min(start + rows_per_chunk, lead_total)
        rows = stop - start
        t = np.arange(start, stop)
        w_lead = np.ones(rows)
        # column-major, so f's per-row reductions add along contiguous columns
        pts = np.empty((dim, rows * m)).T
        for k in range(dim - 2, -1, -1):
            jk = t % m
            t = t // m
            w_lead *= axes[k][1][jk]
            pts[:, k] = np.repeat(axes[k][0][jk], m)
        pts[:, dim - 1] = np.tile(last_x, rows)
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (rows * m,):
            raise ValueError(
                f"integrand returned shape {vals.shape}, expected ({rows * m},)"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmin(np.isfinite(vals)))
            raise NumericalDomainError(
                f"integrand is non-finite at {tuple(pts[bad])}"
            )
        acc += float(np.dot(w_lead, vals.reshape(rows, m) @ last_w))
    return acc


def integrate_box_refined(f, box):
    """Simpson estimate accepted only after a halved-step self-check.

    Returns (value, delta) where value is the refined estimate and delta
    the relative change from the coarse one. Raises OracleRefusedError when
    delta >= REFINE_RTOL: the grid did not resolve the integrand.
    """
    coarse = integrate_box(f, box)
    fine = integrate_box(f, box.refined())
    scale = max(abs(coarse), abs(fine), 1e-300)
    delta = abs(fine - coarse) / scale
    if delta >= REFINE_RTOL:
        raise OracleRefusedError(
            f"refinement changed the estimate by {delta:.3e} (>= {REFINE_RTOL:.0e}); "
            "increase points_per_axis or shrink the box"
        )
    return fine, delta


def _gmm_joint_values(model, pts):
    # independent re-derivation of the joint: prior product times, per
    # observation, the equal-weight mixture likelihood, in linear space
    # (safe on a bounded box; lost tails underflow to exact zeros)
    sp = float(model.prior_sigma)
    so = float(model.obs_sigma)
    norm_p = 1.0 / (sp * math.sqrt(2.0 * math.pi))
    norm_o = 1.0 / (so * math.sqrt(2.0 * math.pi))
    vals = np.prod(norm_p * np.exp(-0.5 * (pts / sp) ** 2), axis=1)
    for x in np.asarray(model.observations, dtype=float):
        vals = vals * (
            norm_o * np.mean(np.exp(-0.5 * ((x - pts) / so) ** 2), axis=1)
        )
    return vals


def gmm_box_requirement(model):
    """Per-axis interval any evidence box must cover for this model.

    Observation-implied modes plus eight observation sigmas on both sides;
    with no observations, eight prior sigmas around the origin.
    """
    obs = np.asarray(model.observations, dtype=float)
    if obs.size:
        return (
            float(obs.min() - 8.0 * model.obs_sigma),
            float(obs.max() + 8.0 * model.obs_sigma),
        )
    return (-8.0 * model.prior_sigma, 8.0 * model.prior_sigma)


def check_gmm_box(model, box):
    """Raise ValueError unless the box fits the model's evidence integral.

    The box needs one axis per cluster, each covering
    :func:`gmm_box_requirement`.
    """
    if box.dim != model.clusters:
        raise ValueError(
            f"box dimension {box.dim} != cluster count {model.clusters}"
        )
    lo_req, hi_req = gmm_box_requirement(model)
    for lo, hi in box.intervals:
        if lo > lo_req or hi < hi_req:
            raise ValueError(
                f"box axis ({lo}, {hi}) does not cover the required "
                f"({lo_req}, {hi_req})"
            )


def gmm_evidence_direct(model, box):
    """Evidence of a GMM study by direct Simpson integration of the joint.

    Limited to at most two clusters (the box dimension equals the cluster
    count, and the tensor grid cost explodes beyond that). The box must
    pass :func:`check_gmm_box`.
    """
    if model.clusters > 2:
        raise ValueError(
            f"direct integration supports at most 2 clusters, got {model.clusters}"
        )
    check_gmm_box(model, box)
    value, _ = integrate_box_refined(lambda pts: _gmm_joint_values(model, pts), box)
    return value
