"""Tests for the transform-domain Zernike basis and its probabilities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import j1_first_zero, miller_row

from artifact import modebasis
from artifact.modebasis import (
    FourierZernikeBasis,
    all_mode_probabilities,
    _radial_factor,
    all_probability_gradients,
    mode_field_stack,
    source_coefficients,
)
from artifact.coronagraph import extract_operator, perfect_plan
from artifact.optics import _R_EPS, GridSpec, OpticalField, Scene, overlap, psf_field
from artifact.specfun import ZernikeIndex, bessel_j, zernike_angular


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
    rotation=st.one_of(st.just(0.0), st.floats(min_value=-6.28, max_value=6.28)),
)
@settings(max_examples=40, deadline=None)
def test_probabilities_form_a_subdistribution(r, phi, b, rotation):
    # a rotated sorter's outcomes are the same modes turned, so they stay a
    # subdistribution at every rotation
    probs = all_mode_probabilities(FourierZernikeBasis(8, rotation=rotation), Scene(r, phi, b))
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


def _substitute_radius_factor(n, r):
    # the former evaluation: on-axis radii went through jv at the substitute
    # radius 1 and the result was then overwritten by the exact value
    r = np.asarray(r, dtype=float)
    on_axis = r < _R_EPS
    safe = np.where(on_axis, 1.0, r)
    out = np.sqrt(n + 1.0) * bessel_j(n + 1, 2.0 * math.pi * safe) / (math.pi * safe)
    return np.where(on_axis, np.equal(n, 0), out)


# on-axis radii (below 1e-8) mixed in with off-axis ones, 1e-8 itself off axis
_MIXED_R = np.array([0.0, 0.3, 5e-9, 1.7, 0.0, 1e-8, 2.9, 9.999e-9, 0.05])


def test_radial_factor_keeps_on_axis_radii_from_bessel(monkeypatch):
    # the kernel's call shapes: (S, 1) radii against (K,) orders as in
    # _source_rows, (K, 1) orders against (R,) radii as in _radius_tables,
    # and scalars as in quantum_bounds._gamma0
    arguments = []

    def spy(n, x):
        arguments.append(np.array(x, dtype=float).ravel())
        return bessel_j(n, x)

    monkeypatch.setattr(modebasis, "bessel_j", spy)
    orders = np.arange(11)
    off_axis = 2.0 * math.pi * _MIXED_R[_MIXED_R >= _R_EPS]
    cases = [
        (orders, _MIXED_R[:, None], off_axis),
        (orders[:, None], _MIXED_R, off_axis),
        (orders, np.zeros((4, 1)), []),
        (orders[:, None], np.full(3, 5e-9), []),
        (0, 0.0, []),
        (3, 9e-9, []),
        (0, 0.4, [2.0 * math.pi * 0.4]),
        (4, np.array([0.0]), []),
    ]
    for n, r, expect in cases:
        arguments.clear()
        got = _radial_factor(n, r)
        ref = _substitute_radius_factor(n, r)
        assert got.shape == ref.shape
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(ref).view(np.uint64))
        seen = np.concatenate(arguments) if arguments else np.array([])
        assert np.array_equal(seen, expect)
    # the same through the two kernels: a star at b = 1e-9 sits on axis
    arguments.clear()
    basis = FourierZernikeBasis(6)
    all_mode_probabilities(basis, np.array([0.1, 0.5, 2.0]), np.array([0.3, 1.0, 4.0]), 1e-9)
    radial, _ = modebasis._radius_tables(basis, GridSpec(64, 8.0))
    assert arguments and min(a.min() for a in arguments) >= 2.0 * math.pi * _R_EPS
    assert radial[0, 0] == 1.0 and not radial[1:, 0].any()


def test_radius_tables_match_the_one_call_build_across_chunks(monkeypatch):
    # filled a chunk of radii at a time and indexed by searchsorted, the
    # tables are the bits of one _radial_factor call over np.unique's
    # distinct radii and its inverse; 100-radius chunks split the 457
    # distinct radii of this quadrant unevenly, the on-axis one in the first
    monkeypatch.setattr(modebasis, "_RADIAL_CHUNK", 100)
    basis, grid = FourierZernikeBasis(5), GridSpec(64, 8.0)
    radial, index = modebasis._radius_tables(basis, grid)
    offsets = grid.dx * np.arange(grid.n_pixels // 2 + 1)
    radii, inverse = np.unique(np.hypot(offsets, offsets[:, None]), return_inverse=True)
    assert radii.size == 457
    expect = _radial_factor(basis._radial_orders[:, None], radii)
    assert np.array_equal(radial.view(np.uint64), expect.view(np.uint64))
    assert index.dtype == np.int32
    assert np.array_equal(index, inverse.reshape(offsets.size, offsets.size))
    assert not radial.flags.writeable and not index.flags.writeable


@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("n_max", [2, 20])
def test_pass_blocks_hold_at_most_sixteen_grid_rows_of_every_mode(n_max, shift):
    # a block of raw samples, the vortex's extra functions included, holds
    # no more float64 bytes than 16 grid rows of every mode (32 before)
    basis, grid = FourierZernikeBasis(n_max), GridSpec(64, 7.3)
    sizes, rows_seen = [], []

    def visit(rows, block):
        sizes.append(block.nbytes)
        rows_seen.extend(range(rows.start, rows.stop))

    mode_field_stack(basis, grid, visit, shift)
    assert rows_seen == list(range(grid.n_pixels // 2 + 1))
    assert max(sizes) <= basis.count * 16 * grid.n_pixels * 8


def test_radial_factor_rejects_what_bessel_rejects():
    orders = np.arange(5)
    for bad in (math.nan, math.inf):
        for r in (np.array([bad]), np.array([0.0, bad, 0.2]), bad):
            with pytest.raises(ValueError):
                _radial_factor(orders[:, None], r)
        with pytest.raises(ValueError):
            _radial_factor(orders, np.array([0.0, bad])[:, None])
    # an on-axis radius among radii that vary along two axes has no one
    # axis to gather the others along
    with pytest.raises(ValueError):
        _radial_factor(0, np.array([[0.0, 0.1], [0.2, 0.3]]))


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
def test_source_coefficients_on_axis_slope_is_the_bessel_limit(rotation):
    # on axis the Bessel ladder leaves only J_0(0) = 1: the n = 1 radial
    # factor sqrt(2) J_2(2 pi r)/(pi r) ~ pi r / sqrt(2) has slope
    # pi / sqrt(2), every other order is flat, and no mode varies with the
    # angle; the one-sided difference from the axis agrees to O(pi^2 h)
    basis = FourierZernikeBasis(4, rotation=rotation)
    phi = 0.7
    slope = [
        math.pi / math.sqrt(2.0) * zernike_angular(idx.m, phi - rotation)
        if idx.n == 1
        else 0.0
        for idx in basis.modes
    ]
    h = 1e-7
    fd_r = (source_coefficients(basis, h, phi) - source_coefficients(basis, 0.0, phi)) / h
    assert_allclose(fd_r, slope, rtol=0, atol=1e-6)
    on_axis = source_coefficients(basis, 0.0, phi)
    assert np.array_equal(on_axis, source_coefficients(basis, 0.0, phi + 1.0))
    assert np.array_equal(on_axis, np.eye(basis.count)[0])


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


def _per_pixel_raw(functions, x, y, rotation=0.0):
    """Samples of R_n Theta_m, (n, m) in ``functions``, with R_n taken at every point."""
    r = np.hypot(x, y).ravel()
    phi = np.arctan2(y, x).ravel() - rotation
    raw = np.empty((len(functions), r.size))
    radial = {n: _radial_factor(n, r) for n in sorted({n for n, _ in functions})}
    for i, (n, m) in enumerate(functions):
        raw[i] = radial[n] * zernike_angular(m, phi)
    return raw


def _unfolded(quadrant, functions, n):
    """Quadrant samples (functions, (n/2 + 1)^2) carried to the n x n grid by their parities.

    Pixel offset (ox, oy) takes the sample at (|ox|, |oy|), times Theta_m's
    sign under each axis that is mirrored.
    """
    h = n // 2
    offsets = np.arange(n) - h
    fold = np.abs(offsets)
    signs = np.array([modebasis._parities(m) for _, m in functions], dtype=float)
    sx = np.where(offsets < 0, signs[:, :1], 1.0)
    sy = np.where(offsets < 0, signs[:, 1:], 1.0)
    grid = quadrant.reshape(len(functions), h + 1, h + 1)[:, fold[:, None], fold]
    return (grid * sy[:, :, None] * sx[:, None, :]).reshape(len(functions), -1)


def _one_block_transform(raw, dx):
    """Normalization and symmetric orthonormalization of ``raw`` in one block."""
    g = raw @ raw.T * (dx * dx)
    scale = 1.0 / np.sqrt(np.diag(g))
    vals, vecs = np.linalg.eigh(g * scale[:, None] * scale)
    return ((vecs / np.sqrt(vals)) @ vecs.T) * scale


# n_max 11 is 78 modes; the 151 quadrant rows of the 300-pixel grid end in
# a partial block
@pytest.mark.parametrize(
    "grid_args, n_max",
    [((1024, 16.0), 6), ((256, 8.0), 6), ((256, 8.0), 11), ((300, 8.0), 11)],
    ids=["grid_args0", "grid_args1", "n_max11", "n_max11_partial_chunk"],
)
def test_mode_stack_matches_per_pixel_sampling_bit_for_bit(grid_args, n_max, stack6):
    # the set samples one quadrant, offsets 0..n/2, and reaches the grid
    # through the parities of Theta_m
    grid = GridSpec(*grid_args)
    basis = FourierZernikeBasis(n_max)
    prebuilt = (basis, grid) == (stack6.basis, stack6.grid)
    fields = stack6 if prebuilt else mode_field_stack(basis, grid)
    n, width = grid.n_pixels, grid.n_pixels // 2 + 1
    functions = modebasis._pass_layout(n_max)[0]
    offsets = grid.dx * np.arange(width)
    x, y = np.meshgrid(offsets, offsets)
    quadrant = _per_pixel_raw(functions, x, y)
    ends = []
    for rows, block in fields._raw_blocks():
        cols = slice(rows.start * width, rows.stop * width)
        assert np.array_equal(block.view(np.uint64), quadrant[:, cols].view(np.uint64))
        ends.append(rows.stop)
    assert ends[-1] == width
    osa = np.argsort(fields._order)
    unfolded = _unfolded(quadrant, functions, n)[osa]
    # each field is the set's transform applied to the unfolded samples,
    # summed over the modes in OSA order, bit for bit
    for k in (0, 1, fields.count // 2, fields.count - 1):
        samples = fields.field(k).samples
        assert not samples.imag.any()
        expect = np.zeros(n * n)
        for weight, row in zip(fields.transform[k], unfolded):
            expect += weight * row
        assert np.array_equal(samples.real.ravel().view(np.uint64), expect.view(np.uint64))
    # the unfolded samples are the per-pixel ones up to the rounding of
    # arctan2 at the mirrored pixels: measured 9.4e-16 to 1.03e-15 of the
    # largest sample over the four cases
    modes = [(idx.n, idx.m) for idx in basis.modes]
    full = _per_pixel_raw(modes, *grid.mesh())
    assert np.max(np.abs(unfolded - full)) <= 2e-15 * np.max(np.abs(full))
    # the transform is the one-block orthonormalization up to the order of
    # the Gram sums
    ref = _one_block_transform(full, grid.dx)
    assert np.max(np.abs(fields.transform - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid_args", [(64, 7.3), (300, 8.0)])
def test_unpaired_edge_enters_with_the_parity_product(grid_args):
    # offsets run over -n/2..n/2 - 1: the quadrant's +n/2 edge stands in
    # for the unpaired row and column at -n/2, whose samples are sigma
    # times it, so a pair of modes weighs it with sigma_i sigma_j, not 0.
    # Pairs of opposite parity meet there alone: their Gram entries reach
    # 1.3e-5 and 5.8e-6 here, against a diagonal of about 0.31
    grid = GridSpec(*grid_args)
    basis = FourierZernikeBasis(3)
    fields = mode_field_stack(basis, grid)
    assert np.array_equal(modebasis._axis_weights(5, 1), [1.0, 2.0, 2.0, 2.0, 1.0])
    assert np.array_equal(modebasis._axis_weights(5, -1), [1.0, 0.0, 0.0, 0.0, -1.0])
    modes = [(idx.n, idx.m) for idx in basis.modes]
    n, h = grid.n_pixels, grid.n_pixels // 2
    full = _per_pixel_raw(modes, *grid.mesh())
    offsets = grid.dx * np.arange(h + 1)
    edge = _per_pixel_raw(modes, np.full(h + 1, offsets[h]), offsets)
    signs = np.array([modebasis._parities(m)[0] for _, m in modes])[:, None]
    on_grid = full.reshape(-1, n, n)[:, h:, 0]  # the column at offset -n/2
    assert np.max(np.abs(on_grid - signs * edge[:, :h])) <= 1e-15 * np.max(np.abs(full))
    gram = full @ full.T * grid.dx**2
    parities = np.array([modebasis._parities(m) for _, m in modes])
    cross = (parities[:, None] != parities[None, :]).any(axis=2)
    assert np.max(np.abs(gram[cross])) > 1e-6
    assert np.max(np.abs(fields._raw_gram() - gram)) <= 1e-14
    # a field on the unpaired row and column alone projects as the dense
    # products do: measured 2.8e-16 and 7.5e-16 of the largest coefficient
    rng = np.random.default_rng(5)
    samples = np.zeros((n, n), dtype=complex)
    samples[0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    samples[:, 0] = rng.standard_normal(n)
    dense = np.stack([fields.field(k).samples.real.ravel() for k in range(fields.count)])
    expect = dense @ samples.ravel() * grid.dx**2
    got = fields.project(OpticalField(samples, "focal", grid.half_width))
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("grid_args, n_max", [((256, 8.0), 6), ((300, 8.0), 11)])
def test_rotated_mode_stack_matches_per_pixel_rotated_sampling(grid_args, n_max):
    # a rotated basis is sampled unrotated and its rotation turns each
    # (n, +-m) pair inside the transform; against per-pixel samples of
    # Theta_m(phi - 0.1) each field reads within 3.1e-15 and 5.6e-15 of its
    # largest sample here, and the transform within 2.0e-15 and 2.4e-15
    grid = GridSpec(*grid_args)
    basis = FourierZernikeBasis(n_max, rotation=0.1)
    fields = mode_field_stack(basis, grid)
    full = _per_pixel_raw([(idx.n, idx.m) for idx in basis.modes], *grid.mesh(), rotation=0.1)
    for k in (0, 1, 2, fields.count // 2, fields.count - 1):
        expect = fields.transform[k] @ full
        got = fields.field(k).samples.real.ravel()
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
    ref = _one_block_transform(full, grid.dx)
    assert np.max(np.abs(fields.transform - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def test_project_recovers_a_mode():
    fields = mode_field_stack(FourierZernikeBasis(6), GridSpec(256, 8.0))
    coeffs = fields.project(fields.field(3))
    expect = np.zeros(fields.count)
    expect[3] = 1.0
    assert_allclose(coeffs.real, expect, atol=1e-6)


def test_project_matches_dense_products_over_a_partial_chunk():
    fields = mode_field_stack(FourierZernikeBasis(11), GridSpec(300, 8.0))
    dense = np.stack([fields.field(k).samples.real.ravel() for k in range(fields.count)])
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    got = fields.project(OpticalField(samples, "focal", 8.0))
    expect = dense @ samples.ravel() * fields.grid.dx**2
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_stack_passes_hold_pixel_chunks_not_stack_copies(stack6):
    # each pass holds one 28 x 15,903 float64 block of raw samples and the
    # radial rows of its 7 orders; the 64-mode slabs of the float32 stack
    # upcast all 28 x 1,048,576 samples, 448-704 MB
    field = stack6.field(3)
    plan = perfect_plan(stack6.field(0))
    passes = {
        "gram": stack6.gram,
        "project": lambda: stack6.project(field),
        "extract_operator": lambda: extract_operator(plan, stack6),
    }
    for name, run in passes.items():
        peak, _ = _traced_peak(run)
        assert peak < 96 * 2**20, name


def test_project_holds_no_complex_block(stack6):
    # the raw blocks and the transform are real, so the field enters as
    # real and imaginary parts: projecting peaks no higher than the Gram
    # pass plus one block.  Upcasting each float64 block to complex took
    # 42 MB against the Gram's 28 MB
    rng = np.random.default_rng(3)
    n = stack6.grid.n_pixels
    field = OpticalField(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), "focal", 16.0)
    block = stack6.count * modebasis._ROW_BLOCK * n * 8
    gram, _ = _traced_peak(stack6._raw_gram)
    project, _ = _traced_peak(lambda: stack6.project(field))
    assert project <= gram + block


def test_stack_build_frees_sampling_arrays_before_the_gram():
    # the whole n6 build holds the sampling tables and one row block of
    # raw samples: 10.2 MiB of tracemalloc.  The float32 stack it replaced
    # was 112 MiB on its own, and its build peaked 72.6 MiB above that
    peak, _ = _traced_peak(lambda: mode_field_stack(FourierZernikeBasis(6), GridSpec()))
    assert peak < 32 * 2**20


def test_project_rejects_mismatched_field():
    fields = mode_field_stack(FourierZernikeBasis(2), GridSpec(128, 4.0))
    with pytest.raises(ValueError):
        fields.project(psf_field(GridSpec(64, 4.0)))
