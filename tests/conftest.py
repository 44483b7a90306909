import pytest
import sympy as sp
from hypothesis import settings

from biharm.numkernel import CHART_SYMBOLS, ChartBox, ScalarField
from biharm.geometry import ProductMetric3

# property tests draw the same few examples on every run, so Tier-1 stays
# deterministic and quick
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=8, database=None)
settings.load_profile("tier1")

T, S, Z = CHART_SYMBOLS


@pytest.fixture
def flat_metric3():
    box = ChartBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 0.05)
    return ProductMetric3(ScalarField.constant(0.0, 3), box)


@pytest.fixture
def sphere_metric3():
    """Unit-sphere base: q = log(sin s), Gauss curvature 1."""
    box = ChartBox((-1.0, 0.3, -1.0), (1.0, 2.8, 1.0), 0.05)
    return ProductMetric3(ScalarField.from_sympy(sp.log(sp.sin(S)), 2), box)


@pytest.fixture
def hyperbolic_metric3():
    """q = s, Gauss curvature -1."""
    box = ChartBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 0.05)
    return ProductMetric3(ScalarField.from_sympy(S, 2), box)

