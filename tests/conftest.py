"""Shared session fixtures for the heavy modal machinery.

Building the order-20 Fourier-Zernike field stack takes about a minute
and each coronagraph extraction against it several minutes, so both are
session scoped.  Extractions are additionally cached as JSON under
``~/.cache/artifact-tests``, keyed by a digest of everything an extraction
depends on: the plan's element and projector arrays, the grid, the basis,
the samples of the mode stack, the package version and the source of the
modules that extract (``coronagraph``, ``modebasis`` and ``optics``).  A
change to any of them misses the cache and extracts afresh; writing the
fresh file deletes the files of the same design and order under any other
digest.
"""

import hashlib
import os
import re

import numpy as np
import pytest

import artifact
from artifact import coronagraph, modebasis, optics
from artifact.coronagraph import (
    extract_operator,
    load_operator,
    perfect_plan,
    piaacmc_plan,
    save_operator,
    vortex_plan,
)
from artifact.modebasis import FourierZernikeBasis, mode_field_stack
from artifact.optics import GridSpec

CACHE_DIR = os.path.expanduser("~/.cache/artifact-tests")


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


def _operator_digest(plan, stack):
    """Hex digest of the version, extraction source, plan arrays, grid, basis and stack."""
    h = hashlib.sha256()
    ident = (artifact.__version__, plan.name, plan.input_domain, plan.grid, stack.basis)
    h.update(repr(ident).encode())
    # the version does not move when the extraction code does
    for module in (coronagraph, modebasis, optics):
        with open(module.__file__, "rb") as fh:
            h.update(fh.read())
    # the stack's own samples: a change to how modes are sampled moves them
    # without touching the basis (about 0.75 s for the order-20 stack)
    for kind, arr in plan.elements + (("projector", plan.projector), ("stack", stack.stack)):
        h.update(kind.encode())
        if arr is not None:
            arr = np.ascontiguousarray(arr)
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            # hashed in place: a bytes copy of the order-20 stack is 924 MB
            h.update(arr.data)
    return h.hexdigest()[:16]


def _cached_operator(name, plan, stack):
    key = _operator_digest(plan, stack)
    path = os.path.join(CACHE_DIR, "op_%s_n%d_%s.json" % (name, stack.basis.n_max, key))
    if os.path.exists(path):
        try:
            return load_operator(path, stack)
        except (ValueError, KeyError):
            pass
    op = extract_operator(plan, stack)
    os.makedirs(CACHE_DIR, exist_ok=True)
    save_operator(path, op)
    # superseded digests of this design and order, and the undigested
    # files of the first cache layout
    stale = re.compile(r"op_%s_n%d(_[0-9a-f]{16})?\.json" % (name, stack.basis.n_max))
    for entry in os.listdir(CACHE_DIR):
        if stale.fullmatch(entry) and entry != os.path.basename(path):
            os.remove(os.path.join(CACHE_DIR, entry))
    return op


@pytest.fixture(scope="session")
def op_perfect20(plan_perfect20, stack20):
    return _cached_operator("perfect", plan_perfect20, stack20)


@pytest.fixture(scope="session")
def op_piaacmc20(plan_piaacmc, stack20):
    return _cached_operator("piaacmc", plan_piaacmc, stack20)


@pytest.fixture(scope="session")
def op_vortex20(plan_vortex, stack20):
    return _cached_operator("vortex", plan_vortex, stack20)
