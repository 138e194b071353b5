"""Normalized Hermite polynomials and Hermite functions.

``h_n`` denotes the physicists' Hermite polynomial normalized to unit norm
under the weight e^{-x^2}: h_n = H_n / sqrt(sqrt(pi) * 2^n * n!), seeded by
h_0 = pi^{-1/4} and h_1 = sqrt(2) * pi^{-1/4} * x. The Hermite function
psi_n = h_n * e^{-x^2/2} obeys the same three-term recurrence

    v_{n+1} = x * sqrt(2/(n+1)) * v_n - sqrt(n/(n+1)) * v_{n-1}

with the Gaussian folded into the seed, which keeps it bounded at any x
where h_n alone would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import as_int

__all__ = [
    "HermiteTable",
    "build_table",
    "extend_table",
    "eval_h",
    "eval_psi",
    "psi_table",
]

_H0 = np.pi ** -0.25


def _recurrence(points, max_degree, seed):
    rows = np.empty((max_degree + 1, points.size))
    rows[0] = seed
    if max_degree >= 1:
        rows[1] = np.sqrt(2.0) * points * rows[0]
    for n in range(1, max_degree):
        rows[n + 1] = points * np.sqrt(2.0 / (n + 1)) * rows[n] - np.sqrt(
            n / (n + 1.0)
        ) * rows[n - 1]
    return rows


def _psi_recurrence(points, max_degree):
    # psi_0 = pi^{-1/4} e^{-x^2/2} underflows to 0 far below |x| = 1e150, and
    # every psi_d with it; clipping there keeps x^2 and the recurrence's
    # products finite (no overflow warning, no inf * 0 = nan)
    points = np.clip(points, -1e150, 1e150)
    return _recurrence(points, max_degree, _H0 * np.exp(-0.5 * points**2))


def _eval(n, x, gaussian_seed):
    n = as_int(n, "degree", 0)
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    if gaussian_seed:
        row = _psi_recurrence(pts, n)[n]
    else:
        row = _recurrence(pts, n, np.full_like(pts, _H0))[n]
    return float(row[0]) if scalar else row


def eval_h(n, x):
    """Evaluate the orthonormal Hermite polynomial h_n at x.

    Parameters
    ----------
    n : int
        Degree, >= 0.
    x : float or array_like
        Evaluation point(s).

    Returns
    -------
    float or ndarray
        h_n(x), normalized so that the h_n are orthonormal under e^{-x^2}.
    """
    return _eval(n, x, gaussian_seed=False)


def eval_psi(n, x):
    """Evaluate the Hermite function psi_n(x) = h_n(x) * e^{-x^2/2}.

    Computed by the shared recurrence with the Gaussian folded into the
    seed, so it stays finite for large |x| where h_n alone overflows.
    """
    return _eval(n, x, gaussian_seed=True)


@dataclass(frozen=True)
class HermiteTable:
    """Precomputed h_d(points[i]) values for d = 0..max_degree.

    ``values[d, i]`` is h_d evaluated at ``points[i]``. Instances are
    immutable after construction; use :func:`extend_table` to grow one.
    """

    max_degree: int
    points: np.ndarray
    values: np.ndarray


def build_table(max_degree, points):
    """Build a HermiteTable of h_0..h_max_degree at the given points."""
    max_degree = as_int(max_degree, "max_degree", 0)
    pts = np.asarray(points, dtype=float).reshape(-1).copy()
    if pts.size == 0:
        raise ValueError("points must be non-empty")
    rows = _recurrence(pts, max_degree, np.full_like(pts, _H0))
    pts.setflags(write=False)
    rows.setflags(write=False)
    return HermiteTable(max_degree=max_degree, points=pts, values=rows)


def extend_table(table, new_max_degree):
    """The table grown to new_max_degree on the same points.

    The recurrence computes each row from the two before it, so the rows of
    ``table`` come out bit-identical. Returns ``table`` unchanged when it
    already covers ``new_max_degree``.
    """
    if new_max_degree <= table.max_degree:
        return table
    return build_table(new_max_degree, table.points)


def psi_table(max_degree, points):
    """Array of psi_d(points[i]) for d = 0..max_degree, shape (D+1, m).

    The Gaussian-seeded sibling of :func:`build_table`, used wherever
    densities are reconstructed at arbitrary (possibly large) coordinates.
    """
    max_degree = as_int(max_degree, "max_degree", 0)
    pts = np.asarray(points, dtype=float).reshape(-1)
    if pts.size == 0:
        raise ValueError("points must be non-empty")
    return _psi_recurrence(pts, max_degree)
