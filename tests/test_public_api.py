"""The public surface of opaa, pinned: an export added or removed changes this file."""

import importlib
import inspect
import pkgutil

import opaa
import opaa.core

PUBLIC_NAMES = [
    "AffineMap",
    "ApproxDensity",
    "BoxSpec",
    "CapacityError",
    "CoefficientSet",
    "DegenerateTargetError",
    "GaussianIdentity",
    "GmmJointDensity",
    "GmmModel",
    "GridPoints",
    "HermiteTable",
    "NumericalDomainError",
    "OracleRefusedError",
    "PlantedDensity",
    "QuadratureRule",
    "RunResult",
    "TargetDensity",
    "TensorGrid",
    "__version__",
    "build_density",
    "build_table",
    "coefficient_naive",
    "coefficients_contracted",
    "enumerate_shell",
    "eval_h",
    "eval_psi",
    "extend_table",
    "from_config",
    "gauss_hermite",
    "gmm_evidence_direct",
    "gmm_log_joint",
    "integrate_1d",
    "integrate_box",
    "integrate_box_refined",
    "load_config",
    "run_opaa",
    "weight_multiset_stats",
]


def _modules():
    for info in pkgutil.iter_modules(opaa.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"opaa.{info.name}")


def test_package_exports_are_pinned():
    assert sorted(opaa.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in opaa.__all__:
        assert hasattr(opaa, name), name
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_names_stay_removed():
    modules = {module.__name__: module for module in _modules()}
    for module, name in (
        ("opaa.quadrature", "eigenvector_weights"),
        ("opaa.multiindex", "shell_count"),
        ("opaa.models", "gmm_sample_dataset"),
        ("opaa.models", "REFERENCE_MEANS"),
        ("opaa.core", "WORKER_ENV_VAR"),
    ):
        assert not hasattr(modules[module], name), f"{module}.{name}"
    assert not hasattr(opaa.TensorGrid, "block_ranges")
    # perfbench still reads these two
    assert hasattr(opaa.CoefficientSet, "shells")
    assert hasattr(opaa.hermite, "extend_table")


def test_the_engine_reads_no_environment_variable():
    # the worker count is set by workers= or --workers alone
    assert "environ" not in inspect.getsource(opaa.core)
