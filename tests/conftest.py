import dataclasses

import pytest

from recommerce import canonical_params

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("recommerce", derandomize=True, database=None)
    settings.load_profile("recommerce")


@pytest.fixture()
def canonical():
    return canonical_params()


@pytest.fixture()
def olg_feasible(canonical):
    """Point where both regimes' steady states are fully feasible."""

    return dataclasses.replace(
        canonical, v_L=0.75, alpha=0.95, beta=0.05, delta=0.5
    )


@pytest.fixture()
def cap_failure(canonical):
    """Margin-active point whose valuation-ratio cap fails at the optimum."""

    return dataclasses.replace(
        canonical, v_L=0.95, alpha=0.95, beta=0.2, delta=0.5
    )

