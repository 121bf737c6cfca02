"""Shared fixtures, independent numerical oracles and the Hypothesis profiles.

The default profile draws the same examples on every run and keeps no example
database, so the suite's result depends on the code alone.  Random search runs
under ``--hypothesis-profile=explore``; a failure it finds is pinned with
``@example`` in the test it broke.
"""

import numpy as np
import pytest
from hypothesis import settings

from jumpcurve import (
    ConstantFloor,
    FactorParams,
    GammaJumpMeasure,
    ModelSpec,
)
from jumpcurve.quadrature import gauss_kronrod

settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)
settings.load_profile("default")


@pytest.fixture
def baseline_factor():
    return FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0))


@pytest.fixture
def baseline_spec(baseline_factor):
    """Single-factor reference model used across the suite."""
    return ModelSpec(
        factors=(baseline_factor,),
        floor=ConstantFloor(0.02),
        horizon=10.0,
    )


@pytest.fixture
def two_factor_spec():
    return ModelSpec(
        factors=(
            FactorParams(lam=1.0, sigma=1.0, x0=0.01, measure=GammaJumpMeasure(2.0, 10.0)),
            FactorParams(lam=0.4, sigma=0.6, x0=0.02, measure=GammaJumpMeasure(1.5, 25.0)),
        ),
        floor=ConstantFloor(0.015),
        horizon=10.0,
    )
