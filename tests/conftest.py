"""Shared session fixtures for the heavy modal machinery.

On a shared 2-core machine the order-20 Fourier-Zernike mode set (231
modes on the default grid) builds in 4.2 s and holds no field stack,
only its 231 x 231 transform and sampling tables on one grid quadrant;
the build process peaks at 144 MB.  Each coronagraph extraction against
it takes 0.6-0.9 s (perfect 0.58 s, PIAACMC 0.75 s, vortex 0.94 s), and
every other pass over the set regenerates the quadrant's samples:
0.35-0.46 s for one ``field`` or ``project``; ``gram`` makes no pass.
Sampling every pixel of the grid, the same steps took 6.5 s and 149 MB,
2.2-3.6 s and 1.0-2.4 s.  All of them are session scoped and nothing is
kept on disk: each session extracts afresh.
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
