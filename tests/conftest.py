import os

# one BLAS thread, fixed before numpy loads, as bench/run.py runs the program;
# the suite's dense products are small, and a second thread only adds overhead
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from degenwave import CoefficientSpec, Grid, classify  # noqa: E402
from helpers import curvature_seminorm, from_curvature  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def grid48():
    return Grid.uniform(48)


@pytest.fixture(scope="session")
def grid64():
    return Grid.uniform(64)


@pytest.fixture(scope="session")
def wd_profile48(grid48):
    return classify(CoefficientSpec.power_law(0.5), grid48)


@pytest.fixture(scope="session")
def sd_profile48(grid48):
    return classify(CoefficientSpec.power_law(1.5), grid48)


def random_clamped(grid, rng, target_seminorm=None):
    """Random element of the discrete clamped space {u(0)=u'(0)=0}."""
    curv = rng.standard_normal(grid.n - 1)
    u = from_curvature(grid, curv)
    if target_seminorm is not None:
        nrm = curvature_seminorm(grid, u)
        if nrm > 0:
            u = u * (target_seminorm / nrm)
    return u


def random_state(generator, rng, scale=1.0):
    return scale * rng.standard_normal(2 * generator.ndof)
