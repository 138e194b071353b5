"""The three benchmark workloads: inputs from a seed, one op, its checks.

gmm-evidence    the four acceptance GMM cases with their hand-set maps; the
                paper's use case, and the only workload where the order-128
                rule build and the logsumexp target show
dim4-transform  GaussianIdentity(4) pulled back through a mismatched map; the
                target is as cheap as it gets, so the projection engine is
                nearly the whole op
density-grid    load coefficients, build the density, check its mass and
                tabulate it through the CLI; bypasses the projection engine

Seed 0 reproduces the acceptance cases exactly. Other seeds jitter the
observations and the dim-4 map; orders, grid sizes and degree budgets stay
fixed, so the work per op does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

import opaa
import opaa.cli

PRIOR_SIGMA = 10.0
OBS_SIGMA = 1.0
OBS_JITTER = 0.05
DIM4_SCALE, DIM4_SCALE_JITTER = 0.8, 0.001
DIM4_SHIFT, DIM4_SHIFT_JITTER = 0.3, 0.005
_LOG_2PI = math.log(2.0 * math.pi)


class CheckFailed(Exception):
    """An op produced an output the benchmark does not accept."""


@dataclass(frozen=True)
class Sizes:
    gmm_orders: tuple = (32, 128)
    gmm_degrees: tuple = (20, 60)
    dim4_order: int = 16
    dim4_degree: int = 12
    grid_points: int = 201
    grid_range: tuple = (-30.0, 34.0)
    l1_points_1d: int = 2001
    l1_points_4d: int = 15


FULL = Sizes()
# small enough for a self-test, large enough that every gate still holds
TINY = Sizes(
    gmm_orders=(24, 64),
    gmm_degrees=(12, 24),
    dim4_order=12,
    dim4_degree=10,
    grid_points=41,
    l1_points_1d=401,
    l1_points_4d=9,
)


@dataclass(frozen=True)
class GmmCase:
    clusters: int
    observations: tuple
    scale: tuple
    shift: tuple
    order: int
    max_degree: int
    tol: float

    @property
    def model(self):
        return opaa.GmmModel(
            clusters=self.clusters,
            prior_sigma=PRIOR_SIGMA,
            obs_sigma=OBS_SIGMA,
            observations=self.observations,
        )

    @property
    def grid_points(self):
        return self.order**self.clusters


# acceptance-08: (clusters, observations, scale, shift, tol); the first two
# stop on shell_tolerance, the last two on max_degree
ACCEPTANCE_CASES = (
    (1, (2.0,), (math.sqrt(2.0 / 1.01),), (2.0,), 1e-8),
    (1, (1.2, 2.7, 1.9, 2.3, 1.6), (math.sqrt(2.0 / 5.01),), (1.94,), 1e-8),
    (2, (2.0,), (4.5, 4.5), (2.0, 2.0), 1e-14),
    (2, (-6.0, -3.0, 0.0, 3.0, 6.0), (2.5, 2.5), (0.0, 0.0), 1e-14),
)


def gmm_cases(seed, sizes):
    rng = np.random.default_rng([seed, 8])
    cases = []
    for clusters, obs, scale, shift, tol in ACCEPTANCE_CASES:
        jitter = rng.normal(0.0, OBS_JITTER, len(obs))
        if seed:
            obs = tuple(float(x) for x in np.asarray(obs) + jitter)
        level = clusters - 1
        cases.append(
            GmmCase(
                clusters,
                obs,
                scale,
                shift,
                sizes.gmm_orders[level],
                sizes.gmm_degrees[level],
                tol,
            )
        )
    return cases


def dim4_map(seed):
    rng = np.random.default_rng([seed, 4])
    scale = np.full(4, DIM4_SCALE)
    shift = np.full(4, DIM4_SHIFT)
    if seed:
        scale += rng.uniform(-DIM4_SCALE_JITTER, DIM4_SCALE_JITTER, 4)
        shift += rng.uniform(-DIM4_SHIFT_JITTER, DIM4_SHIFT_JITTER, 4)
    return opaa.AffineMap(scale=scale, shift=shift)


# exact references -----------------------------------------------------------


def cluster_evidence(observations):
    """Marginal likelihood of the observations of one cluster.

    Integrating the cluster mean out leaves x ~ N(0, so^2 I + sp^2 11^T).
    """
    x = np.asarray(observations, dtype=float)
    n = x.size
    if n == 0:
        return 1.0
    cov = OBS_SIGMA**2 * np.eye(n) + PRIOR_SIGMA**2
    _, logdet = np.linalg.slogdet(cov)
    return math.exp(-0.5 * (n * _LOG_2PI + logdet + x @ np.linalg.solve(cov, x)))


def conjugate_evidence(observations):
    """Scalar closed form of the one-cluster evidence (conjugate normal)."""
    x = np.asarray(observations, dtype=float)
    n = x.size
    a = 1.0 / PRIOR_SIGMA**2 + n / OBS_SIGMA**2
    m_star = (x.sum() / OBS_SIGMA**2) / a
    c = float((x**2).sum()) / (2.0 * OBS_SIGMA**2) - 0.5 * m_star**2 * a
    return (
        (2.0 * math.pi) ** (-n / 2.0)
        * OBS_SIGMA ** (-float(n))
        / PRIOR_SIGMA
        / math.sqrt(a)
        * math.exp(-c)
    )


def exact_gmm_evidence(clusters, observations):
    """Evidence of an equal-weight GMM by enumerating cluster assignments.

    The joint factorizes once each observation is assigned to a cluster, so
    Z = K^-n sum over the K^n assignments of the product of per-cluster
    conjugate evidences.
    """
    obs = np.asarray(observations, dtype=float)
    total = 0.0
    for assignment in itertools.product(range(clusters), repeat=obs.size):
        labels = np.asarray(assignment, dtype=int)
        term = 1.0
        for k in range(clusters):
            term *= cluster_evidence(obs[labels == k])
        total += term
    return total / clusters**obs.size


def gmm_log_posterior(clusters, observations, evidence, points):
    """Exact normalized log posterior of the means, derived independently."""
    mus = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.sum(-0.5 * (mus / PRIOR_SIGMA) ** 2, axis=1) - clusters * (
        math.log(PRIOR_SIGMA) + 0.5 * _LOG_2PI
    )
    for x in observations:
        comp = -0.5 * ((x - mus) / OBS_SIGMA) ** 2
        out += np.logaddexp.reduce(comp, axis=1) - math.log(clusters)
        out -= math.log(OBS_SIGMA) + 0.5 * _LOG_2PI
    return out - math.log(evidence)


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def check_evidence_reference(case, exact):
    if case.clusters == 1:
        closed = conjugate_evidence(case.observations)
        require(
            rel_err(exact, closed) <= 1e-12,
            f"assignment-sum evidence {exact!r} != closed form {closed!r}",
        )


def riemann_l1(density_values, exact_values, cell):
    return float(np.sum(np.abs(density_values - exact_values)) * cell)


def density_l1_on_grid(density, log_exact, axes):
    """Riemann-sum L1 distance between a density and an exact one on a grid."""
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    cell = math.prod(float(a[1] - a[0]) for a in axes)
    return riemann_l1(np.asarray(density(pts)), np.exp(log_exact(pts)), cell)


# workloads ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one op produced: counts that must repeat, and its accuracy."""

    counts: dict
    evidence_rel_err: float
    payload: object = None


class GmmEvidence:
    name = "gmm-evidence"

    def setup(self, seed, workdir, sizes, workers):
        cases = gmm_cases(seed, sizes)
        exact = []
        for case in cases:
            z = exact_gmm_evidence(case.clusters, case.observations)
            check_evidence_reference(case, z)
            exact.append(z)
        return {"cases": cases, "exact": exact, "sizes": sizes}

    def op(self, inputs, workers, wrap=None):
        results = []
        for i, case in enumerate(inputs["cases"]):
            target = opaa.GmmJointDensity(case.model)
            if wrap is not None:
                target = wrap(target, i)
            results.append(
                opaa.run_opaa(
                    target,
                    case.order,
                    tol=case.tol,
                    max_degree=case.max_degree,
                    precondition=opaa.AffineMap(scale=case.scale, shift=case.shift),
                    workers=workers,
                )
            )
        return results

    def check(self, inputs, results):
        errs = []
        for case, z, result in zip(inputs["cases"], inputs["exact"], results):
            require(
                math.isfinite(result.evidence) and result.evidence > 0,
                f"evidence {result.evidence!r} is not finite and positive",
            )
            err = rel_err(result.evidence, z)
            # acceptance-08: 1% against the reference, 1e-6 for one cluster
            bound = 1e-6 if case.clusters == 1 else 0.01
            require(err <= bound, f"evidence rel err {err:.3e} > {bound:g} on {case}")
            errs.append(err)
        return Outcome(
            counts=_solve_counts(results),
            evidence_rel_err=max(errs),
            payload=results,
        )

    def grid_points(self, inputs):
        return [case.grid_points for case in inputs["cases"]]

    def density_l1_err(self, inputs, outcome):
        sizes = inputs["sizes"]
        worst = 0.0
        for case, z, result in zip(inputs["cases"], inputs["exact"], outcome.payload):
            density = opaa.build_density(result.coefficients)
            if case.clusters == 1:
                a = 1.0 / PRIOR_SIGMA**2 + len(case.observations) / OBS_SIGMA**2
                mean = sum(case.observations) / OBS_SIGMA**2 / a
                half = 12.0 / math.sqrt(a)
                axes = [np.linspace(mean - half, mean + half, sizes.l1_points_1d)]
            else:
                axes = [np.linspace(*sizes.grid_range, sizes.grid_points)] * 2

            def log_exact(pts, case=case, z=z):
                return gmm_log_posterior(case.clusters, case.observations, z, pts)

            worst = max(worst, density_l1_on_grid(density, log_exact, axes))
        return worst


class Dim4Transform:
    name = "dim4-transform"
    dim = 4

    def setup(self, seed, workdir, sizes, workers):
        return {"map": dim4_map(seed), "sizes": sizes}

    def op(self, inputs, workers, wrap=None):
        sizes = inputs["sizes"]
        target = opaa.GaussianIdentity(self.dim)
        if wrap is not None:
            target = wrap(target, 0)
        return [
            opaa.run_opaa(
                target,
                sizes.dim4_order,
                tol=1e-8,
                max_degree=sizes.dim4_degree,
                precondition=inputs["map"],
                workers=workers,
            )
        ]

    def check(self, inputs, results):
        (result,) = results
        # the pull-back preserves the integral of a normalized Gaussian
        err = rel_err(result.evidence, 1.0)
        require(err <= 1e-5, f"evidence rel err {err:.3e} > 1e-5")
        return Outcome(
            counts=_solve_counts(results), evidence_rel_err=err, payload=results
        )

    def grid_points(self, inputs):
        return [inputs["sizes"].dim4_order**self.dim]

    def density_l1_err(self, inputs, outcome):
        density = opaa.build_density(outcome.payload[0].coefficients)
        axis = np.linspace(-4.0, 4.0, inputs["sizes"].l1_points_4d)

        def log_exact(pts):
            return -0.5 * self.dim * math.log(math.pi) - np.sum(pts**2, axis=1)

        return density_l1_on_grid(density, log_exact, [axis] * self.dim)


class DensityGrid:
    name = "density-grid"

    def setup(self, seed, workdir, sizes, workers):
        case = gmm_cases(seed, sizes)[2]
        exact = exact_gmm_evidence(case.clusters, case.observations)
        result = opaa.run_opaa(
            opaa.GmmJointDensity(case.model),
            case.order,
            tol=case.tol,
            max_degree=case.max_degree,
            precondition=opaa.AffineMap(scale=case.scale, shift=case.shift),
            workers=workers,
        )
        err = rel_err(result.evidence, exact)
        require(err <= 0.01, f"setup evidence rel err {err:.3e} > 0.01")
        coefficients = os.path.join(workdir, "coefficients.jsonl")
        opaa.cli.save_coefficients(result.coefficients, coefficients)
        return {
            "case": case,
            "exact": exact,
            "evidence_rel_err": err,
            "coefficients": coefficients,
            "output": os.path.join(workdir, "grid.csv"),
            "sizes": sizes,
        }

    def op(self, inputs, workers, wrap=None):
        coeffs = opaa.cli.load_coefficients(inputs["coefficients"])
        mass = opaa.build_density(coeffs).mass()
        lo, hi = inputs["sizes"].grid_range
        code = opaa.cli.main(
            [
                "density-grid",
                "--coefficients",
                inputs["coefficients"],
                f"--range={lo!r}:{hi!r}",
                "--points",
                str(inputs["sizes"].grid_points),
                "--output",
                inputs["output"],
            ]
        )
        return coeffs, mass, code

    def check(self, inputs, produced):
        coeffs, mass, code = produced
        require(code == 0, f"opaa density-grid exited {code}")
        require(abs(mass - 1.0) <= 1e-9, f"|mass - 1| = {abs(mass - 1.0):.3e} > 1e-9")
        sizes = inputs["sizes"]
        with open(inputs["output"], "rb") as fh:
            raw = fh.read()
        table = np.loadtxt(inputs["output"], delimiter=",", skiprows=1, ndmin=2)
        n = sizes.grid_points
        require(table.shape == (n * n, 3), f"grid table has shape {table.shape}")
        axis = np.linspace(*sizes.grid_range, n)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        require(
            np.array_equal(table[:, 0], mesh[0].ravel())
            and np.array_equal(table[:, 1], mesh[1].ravel()),
            "grid coordinates differ from the requested grid",
        )
        values = table[:, 2]
        require(np.all(np.isfinite(values)), "grid has non-finite density values")
        require(np.all(values >= 0.0), "grid has negative density values")
        return Outcome(
            counts={
                "core.coefficients": sum(len(s) for s in coeffs.shells),
                "core.shells": len(coeffs.shells),
                "cli.bytes_written": len(raw),
                "grid_sha256": hashlib.sha256(raw).hexdigest(),
            },
            evidence_rel_err=inputs["evidence_rel_err"],
            payload=table,
        )

    def grid_points(self, inputs):
        return []

    def density_l1_err(self, inputs, outcome):
        case = inputs["case"]
        table = outcome.payload
        axis = np.linspace(*inputs["sizes"].grid_range, inputs["sizes"].grid_points)
        exact = np.exp(
            gmm_log_posterior(case.clusters, case.observations, inputs["exact"], table[:, :2])
        )
        return riemann_l1(table[:, 2], exact, float(axis[1] - axis[0]) ** 2)


def _solve_counts(results):
    return {
        "core.coefficients": sum(
            len(s) for r in results for s in r.coefficients.shells
        ),
        "core.shells": sum(len(r.coefficients.shells) for r in results),
        "stop_reasons": tuple(r.stop_reason for r in results),
    }


WORKLOADS = {w.name: w for w in (GmmEvidence(), Dim4Transform(), DensityGrid())}
