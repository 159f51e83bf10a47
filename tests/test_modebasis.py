"""Tests for the transform-domain Zernike basis and its probabilities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import j1_first_zero, miller_row

from artifact.modebasis import (
    FourierZernikeBasis,
    ModeFieldSet,
    all_mode_probabilities,
    _radial_factor,
    all_probability_gradients,
    mode_field_stack,
    source_coefficient_gradients,
    source_coefficients,
)
from artifact.coronagraph import extract_operator, perfect_plan
from artifact.optics import GridSpec, OpticalField, Scene, overlap, psf_field
from artifact.specfun import ZernikeIndex, zernike_angular


# ---------------------------------------------------------------------------
# basis structure


def test_mode_count_and_ordering():
    for n_max in (0, 3, 10):
        basis = FourierZernikeBasis(n_max)
        assert basis.count == (n_max + 1) * (n_max + 2) // 2
        assert [idx.linear for idx in basis.modes] == list(range(basis.count))


def test_basis_validation():
    with pytest.raises(ValueError):
        FourierZernikeBasis(-1)
    # the modes carry no unimodular phase: coefficients are real
    assert source_coefficients(FourierZernikeBasis(4), 0.3, 1.1).dtype == np.float64


# ---------------------------------------------------------------------------
# pointwise evaluation


# the mode amplitude psi_nm is the projection coefficient times sqrt(pi)


def _projection(idx, r, phi):
    """Projection coefficient of a unit point source at (r, phi) onto mode idx."""
    return source_coefficients(FourierZernikeBasis(idx.n), r, phi)[..., idx.linear]


def test_projection_center():
    assert math.sqrt(math.pi) * _projection(ZernikeIndex(0, 0), 0.0, 0.0) == pytest.approx(
        math.sqrt(math.pi), rel=1e-15
    )
    assert _projection(ZernikeIndex(3, 1), 0.0, 0.3) == 0.0


def test_projection_against_bessel_oracle():
    x = 2.0 * math.pi * 0.3
    j2 = miller_row(x, 2)[2]
    expect = math.sqrt(2.0) * math.sqrt(2.0) * j2 / (math.sqrt(math.pi) * 0.3)
    got = math.sqrt(math.pi) * _projection(ZernikeIndex(1, 1), 0.3, 0.0)
    assert got == pytest.approx(expect, rel=1e-12)


def test_projection_sine_node():
    # sin(2 phi) vanishes at phi = pi/2
    assert abs(_projection(ZernikeIndex(2, -2), 0.5, math.pi / 2)) < 1e-15


def test_projection_vectorized_and_domain():
    r = np.array([0.0, 0.2, 0.4])
    out = _projection(ZernikeIndex(0, 0), r, np.zeros(3))
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        _projection(ZernikeIndex(0, 0), -0.1, 0.0)


def test_projection_examples():
    assert _projection(ZernikeIndex(0, 0), 0.0, 0.0) == 1.0
    node = j1_first_zero() / (2.0 * math.pi)
    assert abs(_projection(ZernikeIndex(0, 0), node, 1.1)) < 1e-6


def _completeness_deficit(basis, r, phi):
    """Probability mass of a point source outside the truncated basis."""
    return 1.0 - float(np.sum(source_coefficients(basis, r, phi) ** 2))


def test_projection_completeness_at_high_truncation():
    deficit = _completeness_deficit(FourierZernikeBasis(60), 0.4, 0.3)
    assert abs(deficit) < 1e-6


def test_completeness_deficit_monotone_in_truncation():
    deficits = [_completeness_deficit(FourierZernikeBasis(n), 0.4, 0.3) for n in (10, 20, 40, 60)]
    for lo, hi in zip(deficits[1:], deficits[:-1]):
        assert lo <= hi + 1e-15


# ---------------------------------------------------------------------------
# scene probabilities


def test_fundamental_mode_probability_high_contrast():
    b = 1e-9
    scene = Scene(0.5, 0.0, b)
    gamma0 = _projection(ZernikeIndex(0, 0), 0.5, 0.0)
    expected = 1.0 - b * (1.0 - gamma0**2)
    got = all_mode_probabilities(FourierZernikeBasis(4), scene)[ZernikeIndex(0, 0).linear]
    assert got == pytest.approx(expected, rel=1e-12)


def test_zero_separation_concentrates_in_fundamental():
    probs = all_mode_probabilities(FourierZernikeBasis(6), Scene(0.0, 1.0, 0.3))
    assert probs[0] == 1.0
    assert np.all(probs[1:] == 0.0)


def test_equal_brightness_half_turn_symmetry():
    basis = FourierZernikeBasis(6)
    p1 = all_mode_probabilities(basis, Scene(0.8, 0.7, 0.5))
    p2 = all_mode_probabilities(basis, Scene(0.8, 0.7 + math.pi, 0.5))
    assert_allclose(p1, p2, atol=1e-12)


@given(
    r=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    phi=st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
    b=st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_probabilities_form_a_subdistribution(r, phi, b):
    probs = all_mode_probabilities(FourierZernikeBasis(8), Scene(r, phi, b))
    assert np.all(probs >= 0.0)
    assert probs.sum() <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# batched modal kernel

# on-axis, below and at the 1e-8 on-axis cut, exact quarter turns (where
# the angular reduction matters), and generic interior points
_BATCH_R = np.array([0.0, 5e-9, 1e-8, 0.3, 0.3, 0.3, 0.3, 0.05, 1.7, 2.9])
_BATCH_PHI = np.array(
    [1.0, 0.4, 2.0, 0.0, math.pi / 2, math.pi, 1.5 * math.pi, 6.28, 0.9, 3.3]
)


@pytest.mark.parametrize("rotation", [0.0, 0.25 * math.pi, 0.3])
@pytest.mark.parametrize("b", [1e-9, 0.5])
def test_batch_equals_single_scene_calls(rotation, b):
    basis = FourierZernikeBasis(10, rotation=rotation)
    batch = all_mode_probabilities(basis, _BATCH_R, _BATCH_PHI, b)
    single = np.stack(
        [all_mode_probabilities(basis, Scene(r, phi, b)) for r, phi in zip(_BATCH_R, _BATCH_PHI)]
    )
    assert batch.shape == (_BATCH_R.size, basis.count)
    assert batch.flags.c_contiguous
    assert np.array_equal(batch, single)
    # a scalar separation broadcasts against an angle row
    row = all_mode_probabilities(basis, 0.3, _BATCH_PHI, b)
    assert np.array_equal(row[3:7], batch[3:7])


@pytest.mark.parametrize("rotation", [0.0, 0.3])
def test_source_coefficient_batch_equals_scalar_calls(rotation):
    basis = FourierZernikeBasis(12, rotation=rotation)
    batch = source_coefficients(basis, _BATCH_R, _BATCH_PHI)
    single = np.stack([source_coefficients(basis, r, phi) for r, phi in zip(_BATCH_R, _BATCH_PHI)])
    assert batch.flags.c_contiguous
    assert np.array_equal(batch, single)
    # one mode at a time, radial factor times angular factor, is the loop
    # reference
    for k, idx in enumerate(basis.modes):
        expect = _radial_factor(idx.n, _BATCH_R) * zernike_angular(idx.m, _BATCH_PHI - rotation)
        assert np.array_equal(batch[:, k], expect)


def test_kernel_rejects_invalid_sources():
    basis = FourierZernikeBasis(4)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            all_mode_probabilities(basis, Scene(bad, 0.0, 0.1))
        with pytest.raises(ValueError):
            all_mode_probabilities(basis, [0.1, bad], [0.0, 0.0], 0.1)
        with pytest.raises(ValueError):
            source_coefficients(basis, bad, 0.0)
        with pytest.raises(ValueError):
            source_coefficients(basis, 0.2, bad)
    with pytest.raises(ValueError):
        source_coefficients(basis, -0.1, 0.0)
    # the batch form keeps the Scene domain
    with pytest.raises(ValueError):
        all_mode_probabilities(basis, [-0.1], [0.0], 0.1)
    with pytest.raises(ValueError):
        all_mode_probabilities(basis, [0.1], [2.0 * math.pi], 0.1)
    with pytest.raises(ValueError):
        all_mode_probabilities(basis, [0.1], [0.0], 1.0)
    with pytest.raises(ValueError):
        all_mode_probabilities(basis, [[0.1]], [[0.0]], 0.1)


# ---------------------------------------------------------------------------
# probability gradients


def test_gradient_matches_finite_differences():
    basis = FourierZernikeBasis(6)
    r, phi, b = 0.3, math.pi / 4, 1e-3
    h = 1e-6 * max(1.0, r)
    ana = all_probability_gradients(basis, Scene(r, phi, b))
    fd_r = (
        all_mode_probabilities(basis, Scene(r + h, phi, b))
        - all_mode_probabilities(basis, Scene(r - h, phi, b))
    ) / (2 * h)
    fd_phi = (
        all_mode_probabilities(basis, Scene(r, phi + h, b))
        - all_mode_probabilities(basis, Scene(r, phi - h, b))
    ) / (2 * h)
    assert_allclose(ana[:, 0], fd_r, rtol=1e-5, atol=1e-12)
    assert_allclose(ana[:, 1], fd_phi, rtol=1e-5, atol=1e-12)


@pytest.mark.parametrize("rotation", [0.0, 0.3])
def test_source_coefficient_gradients_match_central_differences(rotation):
    basis = FourierZernikeBasis(6, rotation=rotation)
    h = 1e-6
    for r, phi in ((0.05, 0.4), (0.3, 1.1), (0.9, 2.5)):
        grad = source_coefficient_gradients(basis, r, phi)
        assert grad.shape == (basis.count, 2)
        fd_r = (
            source_coefficients(basis, r + h, phi) - source_coefficients(basis, r - h, phi)
        ) / (2 * h)
        fd_phi = (
            source_coefficients(basis, r, phi + h) - source_coefficients(basis, r, phi - h)
        ) / (2 * h)
        assert_allclose(grad[:, 0], fd_r, rtol=0, atol=1e-8)
        assert_allclose(grad[:, 1], fd_phi, rtol=0, atol=1e-8)


@pytest.mark.parametrize("rotation", [0.0, 0.3])
def test_source_coefficient_gradients_on_axis_bessel_limit(rotation):
    # on axis the ladder leaves only J_0(0) = 1: the n = 1 radial factor
    # sqrt(2) J_2(2 pi r)/(pi r) ~ pi r / sqrt(2) has slope pi / sqrt(2),
    # every other order is flat, and no mode varies with the angle
    basis = FourierZernikeBasis(4, rotation=rotation)
    phi = 0.7
    grad = source_coefficient_gradients(basis, 0.0, phi)
    slope = [
        math.pi / math.sqrt(2.0) * zernike_angular(idx.m, phi - rotation)
        if idx.n == 1
        else 0.0
        for idx in basis.modes
    ]
    assert_allclose(grad[:, 0], slope, rtol=1e-15, atol=0)
    assert np.all(grad[:, 1] == 0.0)
    # and the one-sided difference from the axis agrees to O(pi^2 h)
    h = 1e-7
    fd_r = (source_coefficients(basis, h, phi) - source_coefficients(basis, 0.0, phi)) / h
    assert_allclose(grad[:, 0], fd_r, rtol=0, atol=1e-6)


@pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
def test_angle_gradient_vanishes_exactly_on_symmetry_axes(phi):
    scene = Scene(0.3, phi, 1e-3)
    grads = all_probability_gradients(FourierZernikeBasis(8), scene)
    assert np.all(grads[:, 1] == 0.0)


def test_fundamental_radial_gradient_vanishes_on_axis():
    basis = FourierZernikeBasis(4)
    for r in (1e-3, 1e-5):
        g = all_probability_gradients(basis, Scene(r, 0.0, 0.5))[ZernikeIndex(0, 0).linear]
        assert g[0] <= 0.0
        assert abs(g[0]) <= 10.0 * r


def test_gradient_rejects_zero_separation():
    with pytest.raises(ValueError):
        all_probability_gradients(FourierZernikeBasis(4), Scene(0.0, 0.0, 0.5))


def test_rotated_basis_shifts_the_angle_argument():
    basis = FourierZernikeBasis(6, rotation=math.pi / 4)
    plain = FourierZernikeBasis(6)
    sc = Scene(0.4, 1.2, 1e-2)
    sc_shifted = Scene(0.4, 1.2 - math.pi / 4, 1e-2)
    assert_allclose(
        all_mode_probabilities(basis, sc),
        all_mode_probabilities(plain, sc_shifted),
        rtol=0,
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# grid realizations


def _per_pixel_stack(basis, grid):
    """The mode stack with the radial factor evaluated at every pixel.

    Orthonormalized as ``mode_field_stack`` does, in one block.
    """
    x, y = grid.mesh()
    r = np.hypot(x, y).ravel()
    phi = np.arctan2(y, x).ravel() - basis.rotation
    dx = grid.dx
    stack = np.empty((basis.count, r.size), dtype=np.float32)
    for n in range(basis.n_max + 1):
        radial = _radial_factor(n, r)
        for m in range(-n, n + 1, 2):
            samples = radial * zernike_angular(m, phi)
            samples /= math.sqrt(float(np.dot(samples, samples)) * dx * dx)
            stack[ZernikeIndex(n, m).linear] = samples.astype(np.float32)
    vals, vecs = np.linalg.eigh(ModeFieldSet(basis, grid, stack).gram())
    rot = (vecs / np.sqrt(vals)) @ vecs.T
    # accumulated onto zeros as the library does, which maps -0.0 to 0.0
    acc = np.zeros(stack.shape)
    acc += rot @ stack.astype(np.float64)
    return acc.astype(np.float32)


# n_max 11 is 78 modes; the 300-pixel grid's 90,000 pixels end in a
# partial chunk
@pytest.mark.parametrize(
    "grid_args, n_max",
    [((1024, 16.0), 6), ((256, 8.0), 6), ((256, 8.0), 11), ((300, 8.0), 11)],
    ids=["grid_args0", "grid_args1", "n_max11", "n_max11_partial_chunk"],
)
def test_mode_stack_matches_per_pixel_sampling_bit_for_bit(grid_args, n_max, stack6):
    grid = GridSpec(*grid_args)
    basis = FourierZernikeBasis(n_max)
    prebuilt = (basis, grid) == (stack6.basis, stack6.grid)
    fields = stack6 if prebuilt else mode_field_stack(basis, grid)
    expect = _per_pixel_stack(basis, grid)
    assert np.array_equal(fields.stack.view(np.uint32), expect.view(np.uint32))


def test_mode_stack_gram_is_identity(stack20):
    gram = stack20.gram()
    assert np.max(np.abs(gram - np.eye(stack20.count))) < 1e-4


def test_mode_stack_fundamental_matches_psf(stack20):
    f0 = stack20.field(0)
    pf = psf_field(stack20.grid)
    assert abs(overlap(f0, pf)) > 0.999
    assert np.max(np.abs(f0.samples - pf.samples)) < 1e-2


def test_mode_stack_fields_are_normalized(stack20):
    for k in (0, 5, 100, 230):
        assert stack20.field(k).norm() == pytest.approx(1.0, abs=1e-5)


def test_project_synthesize_roundtrip():
    fields = mode_field_stack(FourierZernikeBasis(6), GridSpec(256, 8.0))
    coeffs = fields.project(fields.field(3))
    expect = np.zeros(fields.count)
    expect[3] = 1.0
    assert_allclose(coeffs.real, expect, atol=1e-6)
    rebuilt = fields.synthesize(coeffs)
    assert np.max(np.abs(rebuilt.samples - fields.field(3).samples)) < 1e-5


def test_project_and_synthesize_match_dense_products_over_a_partial_chunk():
    fields = mode_field_stack(FourierZernikeBasis(11), GridSpec(300, 8.0))
    dense = fields.stack.astype(np.float64)
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    coeffs = rng.standard_normal(fields.count) + 1j * rng.standard_normal(fields.count)
    projected = fields.project(OpticalField(samples, "focal", 8.0))
    cases = [
        (projected, dense @ samples.ravel() * fields.grid.dx**2),
        (fields.synthesize(coeffs).samples.ravel(), coeffs @ dense),
    ]
    for got, expect in cases:
        assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


def test_stack_passes_hold_pixel_chunks_not_stack_copies(stack6):
    # each pass holds a few 28 x 65,536 float64 blocks; the 64-mode slabs
    # they replace upcast the whole 28 x 1,048,576 stack, 448-704 MB
    field = stack6.field(3)
    coeffs = np.linspace(1.0, 2.0, stack6.count)
    plan = perfect_plan(stack6.field(0))
    passes = {
        "gram": stack6.gram,
        "project": lambda: stack6.project(field),
        "synthesize": lambda: stack6.synthesize(coeffs),
        "extract_operator": lambda: extract_operator(plan, stack6),
    }
    for name, run in passes.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20, name


def test_stack_build_frees_sampling_arrays_before_the_gram():
    # beyond the 112 MiB float32 stack, the n6 build peaks at 72.6 MiB of
    # tracemalloc; holding the per-pixel sampling arrays through the Gram
    # and the rotation peaks at 84.7 MiB
    tracemalloc.start()
    try:
        fields = mode_field_stack(FourierZernikeBasis(6), GridSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - fields.stack.nbytes < 78 * 2**20


def test_project_rejects_mismatched_field():
    fields = mode_field_stack(FourierZernikeBasis(2), GridSpec(128, 4.0))
    with pytest.raises(ValueError):
        fields.project(psf_field(GridSpec(64, 4.0)))
