"""Shared session fixtures for the heavy modal machinery.

On a shared 2-core machine the order-20 Fourier-Zernike field stack (231
modes, 924 MB of float32 on the default grid) builds in 17-20 s, and each
coronagraph extraction against it takes 2-6.5 s (PIAACMC 2-2.5 s, perfect
and vortex 4-6.5 s).  All of them are session scoped and nothing is kept
on disk: each session extracts afresh.
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
