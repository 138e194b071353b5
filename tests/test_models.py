import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opaa
from opaa.models import (
    REFERENCE_MEANS,
    GaussianIdentity,
    GmmJointDensity,
    GmmModel,
    PlantedDensity,
    from_config,
    gmm_log_joint,
    gmm_sample_dataset,
    load_config,
)

LOG_INV_SQRT_2PI = -0.5 * math.log(2.0 * math.pi)


def test_gaussian_identity_values():
    target = GaussianIdentity(3)
    assert target.log_density(np.zeros(3)) == pytest.approx(-1.5 * math.log(math.pi))
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
    batch = target.log_density_batch(pts)
    assert batch[1] == pytest.approx(-1.5 * math.log(math.pi) - 6.0)


def test_gaussian_identity_validation():
    with pytest.raises(ValueError):
        GaussianIdentity(0)


def test_planted_equals_identity_for_constant_coefficient():
    planted = PlantedDensity(2, {(0, 0): 1.0})
    identity = GaussianIdentity(2)
    pts = np.array([[0.0, 0.0], [0.7, -1.2], [2.0, 2.0]])
    assert np.allclose(
        planted.log_density_batch(pts), identity.log_density_batch(pts), atol=1e-14
    )


def test_planted_value_at_origin(planted_1d):
    expected = 2.0 * math.log(math.pi**-0.25 * (1.0 - 0.1 / math.sqrt(2.0)))
    assert planted_1d.log_density(np.array([0.0])) == pytest.approx(expected, rel=1e-12)


def test_planted_zero_crossing_gives_minus_inf():
    odd = PlantedDensity(1, {(1,): 1.0})
    assert odd.log_density(np.array([0.0])) == -math.inf


def test_planted_bracket_minimum_1d(planted_1d):
    assert planted_1d.bracket_minimum(5.0) > 0.0


def test_planted_2d_bracket_sign_structure(planted_2d):
    # negative somewhere on a wide box, yet positive at every node of the
    # order-3 rule; the 2-D recovery test leans on the second fact
    assert planted_2d.bracket_minimum(4.0) < 0.0
    rule = opaa.gauss_hermite(3)
    grid = opaa.TensorGrid(rule, 2)
    pts = rule.nodes[grid.decode(0, grid.total_count)]
    assert planted_2d.bracket(pts).min() > 0.0


def test_planted_validation():
    with pytest.raises(ValueError):
        PlantedDensity(1, {})
    with pytest.raises(ValueError):
        PlantedDensity(1, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        PlantedDensity(1, {(-1,): 1.0})
    with pytest.raises(ValueError, match=r"^coefficient of multi-index \(0,\) must be finite"):
        PlantedDensity(1, {(0,): np.nan})


def test_gmm_model_validation():
    with pytest.raises(ValueError):
        GmmModel(clusters=0, prior_sigma=1.0, obs_sigma=1.0, observations=())
    with pytest.raises(ValueError):
        GmmModel(clusters=1, prior_sigma=0.0, obs_sigma=1.0, observations=())
    with pytest.raises(ValueError):
        GmmModel(clusters=1, prior_sigma=1.0, obs_sigma=-2.0, observations=())
    with pytest.raises(ValueError):
        GmmModel(clusters=1, prior_sigma=1.0, obs_sigma=1.0, observations=(np.nan,))
    for name in ("prior_sigma", "obs_sigma"):
        for bad in (math.inf, math.nan):
            # an infinite sigma used to surface as a DegenerateTargetError
            sigmas = {"prior_sigma": 1.0, "obs_sigma": 1.0, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                GmmModel(clusters=1, observations=(), **sigmas)


def _gmm_reference(model, mus):
    # the joint with the mixture reduced by np.logaddexp.reduce over each row
    sp, so = model.prior_sigma, model.obs_sigma
    half_log_2pi = 0.5 * np.log(2.0 * np.pi)
    out = np.sum(-0.5 * (mus / sp) ** 2 - np.log(sp) - half_log_2pi, axis=1)
    for x in model.observations:
        comp = -0.5 * ((x - mus) / so) ** 2 - np.log(so) - half_log_2pi
        out += np.logaddexp.reduce(comp, axis=1) - np.log(model.clusters)
    return out


@pytest.mark.parametrize("clusters", [1, 2, 3, 5, 7])
def test_gmm_mixture_fold_matches_logaddexp_reduce(clusters):
    model = GmmModel(
        clusters=clusters,
        prior_sigma=10.0,
        obs_sigma=1.0,
        observations=(-9.0, -2.5, 0.4, 3.0, 7.7),
    )
    mus = np.random.default_rng(clusters).normal(0.0, 8.0, (301, clusters))
    expected = _gmm_reference(model, mus)
    target = GmmJointDensity(model)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert np.array_equal(target.log_density_batch(layout(mus)), expected)


LAYOUT_TARGETS = (
    [pytest.param(GaussianIdentity(d), id=f"identity-{d}") for d in range(1, 8)]
    + [
        pytest.param(
            PlantedDensity(d, {(0,) * d: 1.0, (1,) * d: 0.3, (2,) + (0,) * (d - 1): -0.2}),
            id=f"planted-{d}",
        )
        for d in range(1, 4)
    ]
    + [
        pytest.param(
            GmmJointDensity(
                GmmModel(
                    clusters=k, prior_sigma=10.0, obs_sigma=1.0, observations=(-4.0, 1.0, 6.5)
                )
            ),
            id=f"gmm-{k}",
        )
        for k in range(1, 8)
    ]
)


@pytest.mark.parametrize("target", LAYOUT_TARGETS)
def test_log_density_batch_ignores_memory_order(target):
    # the engine passes column-major batches; a row-major copy of the same
    # rows must give the same bits
    pts = np.random.default_rng(target.dim).normal(0.0, 3.0, (257, target.dim))
    row_major = target.log_density_batch(np.ascontiguousarray(pts))
    column_major = target.log_density_batch(np.asfortranarray(pts))
    assert row_major.tobytes() == column_major.tobytes()


GRID_OBSERVATIONS = ((), (2.5,), (-6.0, -1.5, 0.4, 3.0, 7.7))
GRID_TARGETS = (
    [pytest.param(GaussianIdentity(d), id=f"identity-{d}") for d in range(1, 10)]
    + [
        pytest.param(
            PlantedDensity(d, {(0,) * d: 1.0, (1,) * d: 0.3, (2,) + (0,) * (d - 1): -0.2}),
            id=f"planted-{d}",
        )
        for d in range(1, 4)
    ]
    + [
        pytest.param(
            GmmJointDensity(
                GmmModel(clusters=k, prior_sigma=10.0, obs_sigma=1.0, observations=obs)
            ),
            id=f"gmm-{k}-obs-{len(obs)}",
        )
        for k in range(1, 8)
        for obs in GRID_OBSERVATIONS
    ]
)


@pytest.mark.parametrize("target", GRID_TARGETS)
def test_log_density_grid_is_the_batch_of_its_points(target):
    # a built-in's per-axis evaluation returns the bits of its batch code on
    # the grid's column-major point batch; axes of unequal lengths catch a
    # transposed or misordered broadcast
    rng = np.random.default_rng(target.dim)
    axes = [rng.normal(0.0, 4.0, 2 + k % 3) for k in range(target.dim)]
    grid = opaa.GridPoints(axes)
    values = target.log_density_grid(grid)
    assert values.shape == (math.prod(grid.shape),)
    assert values.tobytes() == target.log_density_batch(np.asarray(grid)).tobytes()


def _gmm(clusters, observations=(2.5,)):
    return GmmJointDensity(
        GmmModel(clusters=clusters, prior_sigma=10.0, obs_sigma=1.0, observations=observations)
    )


@pytest.fixture
def folded_sizes(monkeypatch):
    """The number of values each GMM log-joint fold computes."""
    sizes = []
    fold = opaa.models._gmm_log_joint

    def spy(*args, **kwargs):
        values = fold(*args, **kwargs)
        sizes.append(values.size)
        return values

    monkeypatch.setattr(opaa.models, "_gmm_log_joint", spy)
    return sizes


@pytest.mark.parametrize("n", [1, 2, 7, 128, 256])
@pytest.mark.parametrize("obs", GRID_OBSERVATIONS, ids=lambda obs: f"obs-{len(obs)}")
def test_two_cluster_grid_on_equal_axes_is_the_batch(n, obs, folded_sizes):
    # the equal-axes grid is folded once per unordered node pair, and the
    # values gathered back are the batch's bits at every point
    target = _gmm(2, obs)
    axis = np.random.default_rng(n).normal(0.0, 6.0, n)
    grid = opaa.GridPoints([axis, axis.copy()])
    values = target.log_density_grid(grid)
    assert folded_sizes == [n * (n + 1) // 2]
    assert values.tobytes() == target.log_density_batch(np.asarray(grid)).tobytes()


@pytest.mark.parametrize(
    "clusters, axes",
    [
        pytest.param(2, [[-1.0, 0.0, 2.0], [-1.0, -0.0, 2.0]], id="signed-zero"),
        pytest.param(2, [[-1.0, 0.0, 2.0], [-1.0, 0.5, 2.0]], id="unequal"),
        pytest.param(2, [[-1.0, 0.0, 2.0], [-1.0, 0.0]], id="unequal-lengths"),
        pytest.param(3, [[-1.0, 0.0, 2.0]] * 3, id="three-clusters"),
    ],
)
def test_other_gmm_grids_take_the_broadcast(clusters, axes, folded_sizes):
    target = _gmm(clusters)
    grid = opaa.GridPoints(axes)
    values = target.log_density_grid(grid)
    assert folded_sizes == [math.prod(grid.shape)]
    assert values.tobytes() == target.log_density_batch(np.asarray(grid)).tobytes()


DIMENSION_TARGETS = [
    pytest.param(GaussianIdentity(2), id="identity"),
    pytest.param(PlantedDensity(2, {(0, 0): 1.0, (1, 0): 0.3}), id="planted"),
    pytest.param(_gmm(2), id="gmm"),
]


@pytest.mark.parametrize("target", DIMENSION_TARGETS)
@pytest.mark.parametrize("dim", [1, 3])
def test_points_of_another_dimension_are_refused(target, dim):
    axis = np.linspace(-1.0, 1.0, 3)
    calls = [
        ("point", lambda: target.log_density(np.zeros(dim))),
        ("point", lambda: target.log_density_batch(np.zeros((4, dim)))),
        ("grid", lambda: target.log_density_grid(opaa.GridPoints([axis] * dim))),
    ]
    for what, call in calls:
        with pytest.raises(ValueError, match=f"^{what} dimension {dim} != target dimension 2$"):
            call()


def test_planted_bracket_on_a_grid():
    target = PlantedDensity(2, {(0, 0): 1.0, (1, 2): 0.4, (3, 0): -0.3})
    grid = opaa.GridPoints([np.linspace(-3.0, 3.0, 7), np.linspace(-2.0, 1.0, 4)])
    assert target.bracket(grid).tobytes() == target.bracket(np.asarray(grid)).tobytes()


def test_gmm_log_joint_prior_only():
    model = GmmModel(clusters=1, prior_sigma=1.0, obs_sigma=1.0, observations=())
    assert gmm_log_joint(model, np.array([0.0])) == pytest.approx(
        LOG_INV_SQRT_2PI, rel=1e-14
    )


def test_gmm_log_joint_single_observation():
    model = GmmModel(clusters=1, prior_sigma=1.0, obs_sigma=1.0, observations=(0.0,))
    assert gmm_log_joint(model, np.array([0.0])) == pytest.approx(
        2.0 * LOG_INV_SQRT_2PI, rel=1e-14
    )


def test_gmm_log_joint_symmetry_is_exact():
    model = GmmModel(
        clusters=2, prior_sigma=10.0, obs_sigma=1.0, observations=(0.4, -1.1, 2.2)
    )
    a = gmm_log_joint(model, np.array([1.3, -0.7]))
    b = gmm_log_joint(model, np.array([-0.7, 1.3]))
    assert a == b


@pytest.mark.parametrize("clusters", [2, 3])
def test_gmm_log_joint_matches_direct_mixture_sum(clusters):
    obs = (0.4, -1.1, 2.2, 3.0)
    model = GmmModel(
        clusters=clusters, prior_sigma=3.0, obs_sigma=1.5, observations=obs
    )
    rng = np.random.default_rng(11)
    for mu in rng.normal(0.0, 2.0, size=(5, clusters)):
        expected = sum(
            -0.5 * (m / 3.0) ** 2 - math.log(3.0) + LOG_INV_SQRT_2PI for m in mu
        )
        for x in obs:
            mixture = sum(
                math.exp(-0.5 * ((x - m) / 1.5) ** 2) / (1.5 * math.sqrt(2 * math.pi))
                for m in mu
            )
            expected += math.log(mixture / clusters)
        assert gmm_log_joint(model, mu) == pytest.approx(expected, rel=1e-13)


def test_gmm_log_joint_finite_everywhere():
    model = GmmModel(
        clusters=2, prior_sigma=10.0, obs_sigma=1.0, observations=(0.5, 8.0)
    )
    rng = np.random.default_rng(5)
    pts = rng.normal(0.0, 30.0, size=(50, 2))
    vals = GmmJointDensity(model).log_density_batch(pts)
    assert np.all(np.isfinite(vals))


def test_gmm_joint_density_adapter():
    model = GmmModel(clusters=2, prior_sigma=2.0, obs_sigma=1.0, observations=(1.0,))
    target = GmmJointDensity(model)
    assert target.dim == 2
    mu = np.array([0.2, -0.4])
    assert target.log_density(mu) == pytest.approx(gmm_log_joint(model, mu), rel=1e-15)


def test_sample_dataset_deterministic():
    a = gmm_sample_dataset(3, 10.0, 1.0, 20, seed=42)
    b = gmm_sample_dataset(3, 10.0, 1.0, 20, seed=42)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[0].shape == (3,)
    assert a[1].shape == (20,)


def test_sample_dataset_empty_and_invalid():
    means, obs = gmm_sample_dataset(2, 1.0, 1.0, 0, seed=0)
    assert obs.size == 0
    with pytest.raises(ValueError):
        gmm_sample_dataset(2, 1.0, 1.0, -1, seed=0)


def test_reference_means_fixture_is_stable():
    # fixed regression input for the 3-cluster study; nothing quantitative
    # is derived from it
    assert REFERENCE_MEANS == (-18.61, 3.81, 8.84)
    model = GmmModel(
        clusters=3,
        prior_sigma=10.0,
        obs_sigma=1.0,
        observations=(-18.2, 4.0, 9.1),
    )
    assert math.isfinite(gmm_log_joint(model, np.array(REFERENCE_MEANS)))


def test_config_round_trip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "gaussian_identity", "dim": 2}))
    target = from_config(load_config(path))
    assert isinstance(target, GaussianIdentity)
    assert target.dim == 2


def test_config_planted_and_gmm():
    planted = from_config(
        {
            "type": "planted",
            "dim": 1,
            "coeffs": [{"tau": [0], "c": 1.0}, {"tau": [2], "c": 0.1}],
        }
    )
    assert isinstance(planted, PlantedDensity)
    gmm = from_config(
        {
            "type": "gmm",
            "clusters": 2,
            "prior_sigma": 10.0,
            "obs_sigma": 1.0,
            "observations": [0.5],
        }
    )
    assert isinstance(gmm, GmmJointDensity)
    assert gmm.model.clusters == 2


@pytest.mark.parametrize(
    "config",
    [
        {},
        {"type": "unknown"},
        {"type": "gaussian_identity"},
        {"type": "planted", "dim": 1},
        {"type": "planted", "dim": 1, "coeffs": []},
        {"type": "planted", "dim": 1, "coeffs": [{"tau": [0]}]},
        {"type": "gmm", "clusters": 1},
    ],
)
def test_config_validation(config):
    with pytest.raises(ValueError):
        from_config(config)


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; importing scipy.special would
    # add about 0.2 s and 24 MB of RSS to every process that imports opaa
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import opaa, sys; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
