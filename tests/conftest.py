"""Shared fixtures: canonical parameter points and random-parameter factory.

Also loads the hypothesis profile every property test runs under, and turns
every warning raised by a test in this directory into an error.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mtphase import ModelParams, ParameterRay, find_threshold

# Hypothesis's pytest plugin imports this module when a property test
# fails.  Where it loads libcst, that import raises a DeprecationWarning,
# which the "error" filter below would turn into an INTERNALERROR that
# ends the whole run.  Import it once here, outside any test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass

# the same examples on every run, and no replay of failures stored by
# earlier runs, so one tree passes or fails the same way each time
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

_TESTS_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # a warning (an unclosed file, a deprecated call) fails the test that
    # raised it; tests collected from other directories are left alone
    for item in items:
        if _TESTS_DIR in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(scope="session")
def canonical_params() -> ModelParams:
    """Unit rates except k7 = 2, equal unit diffusivities, domain length pi."""
    return ModelParams(
        k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
        d1=1.0, d2=1.0, d3=1.0, ell=float(np.pi),
    )


@pytest.fixture(scope="session")
def canonical_ray(canonical_params: ModelParams) -> ParameterRay:
    return ParameterRay(
        base=canonical_params,
        direction={"d1": 1.0, "d2": 1.0, "d3": 1.0},
        bracket=(0.05, 1.0),
    )


@pytest.fixture(scope="session")
def canonical_threshold(canonical_ray: ParameterRay):
    return find_threshold(canonical_ray)


@pytest.fixture()
def random_params_factory():
    """Factory for feasible random parameter sets (K1 bounded away from 0)."""

    def make(rng: np.random.Generator, bc: str = "dirichlet") -> ModelParams:
        for _ in range(200):
            k1, k3, k5, k7, C1, E = 10.0 ** rng.uniform(np.log10(0.3), np.log10(3.0), 6)
            d1, d2, d3 = 10.0 ** rng.uniform(np.log10(0.05), 0.0, 3)
            ell = rng.uniform(2.0, 6.0)
            if C1 * k1 * k7 - k3 * k5 * E <= 0.3 * C1 * k1 * k7:
                continue
            return ModelParams(
                k1=k1, k3=k3, k5=k5, k7=k7, C1=C1, E=E,
                d1=d1, d2=d2, d3=d3, ell=ell, bc=bc,
            )
        raise RuntimeError("no feasible draw")

    return make
