"""Shared session fixtures for the heavy modal machinery.

On a shared 2-core machine the order-20 Fourier-Zernike mode set (231
modes on the default grid) builds in 9.5-10.5 s and holds no field
stack, only its 231 x 231 transform and sampling tables; the build
process peaks at 173 MB.  Each coronagraph extraction against it takes
3.3-5 s (perfect 3.3 s, PIAACMC 3.4 s, vortex 4.8 s), and every other pass
over the set regenerates the samples: 1.4-3.1 s for one ``field``,
``project``, ``synthesize`` or ``gram``.  All of them are session scoped
and nothing is kept on disk: each session extracts afresh.
"""

import pytest

from artifact.coronagraph import (
    extract_operator,
    perfect_plan,
    piaacmc_plan,
    vortex_plan,
)
from artifact.modebasis import FourierZernikeBasis, mode_field_stack
from artifact.optics import GridSpec


@pytest.fixture(scope="session")
def grid():
    return GridSpec()


@pytest.fixture(scope="session")
def stack6(grid):
    return mode_field_stack(FourierZernikeBasis(6), grid)


@pytest.fixture(scope="session")
def stack20(grid):
    return mode_field_stack(FourierZernikeBasis(20), grid)


@pytest.fixture(scope="session")
def plan_perfect20(stack20, grid):
    return perfect_plan(stack20.field(0), grid)


@pytest.fixture(scope="session")
def plan_piaacmc(grid):
    return piaacmc_plan(grid)


@pytest.fixture(scope="session")
def plan_vortex(grid):
    return vortex_plan(grid)


@pytest.fixture(scope="session")
def op_perfect20(plan_perfect20, stack20):
    return extract_operator(plan_perfect20, stack20)


@pytest.fixture(scope="session")
def op_piaacmc20(plan_piaacmc, stack20):
    return extract_operator(plan_piaacmc, stack20)


@pytest.fixture(scope="session")
def op_vortex20(plan_vortex, stack20):
    return extract_operator(plan_vortex, stack20)
