"""Tests for coronagraph chains, modal extraction, and imaging."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import j1

from artifact import coronagraph, optics
from artifact.coronagraph import (
    ELEMENT_KINDS,
    RASTER_MAGIC,
    CoronagraphOperator,
    PropagatorPlan,
    _bounding_box,
    _chain_matrix,
    _prolate_seed,
    _singular_operator,
    _spot_roundtrip,
    extract_operator,
    lyot_stop_array,
    perfect_plan,
    piaacmc_design,
    piaacmc_plan,
    prolate_c_star,
    prolate_radial,
    read_raster,
    vortex_plan,
    write_raster,
)
from artifact.modebasis import FourierZernikeBasis, mode_field_stack
from artifact.optics import (
    AIRY_SIGMA,
    GridSpec,
    OpticalField,
    Scene,
    _disk_coverage,
    inverse_propagate,
    overlap,
    propagate,
    pupil_disk_field,
    shifted_source_field,
)
from artifact.coronagraph import output_state_image


# ---------------------------------------------------------------------------
# raster container


def test_raster_header_layout(tmp_path):
    path = str(tmp_path / "a.raster")
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_raster(path, arr)
    with open(path, "rb") as fh:
        blob = fh.read()
    expect = struct.pack("<4sIII", b"FR32", 3, 2, 0) + arr.astype("<f4").tobytes()
    assert blob == expect
    assert RASTER_MAGIC == b"FR32"


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
        elements=st.floats(-1e6, 1e6, width=32),
    )
)
def test_raster_round_trip(tmp_path_factory, arr):
    path = str(tmp_path_factory.mktemp("raster") / "r.raster")
    write_raster(path, arr)
    back = read_raster(path)
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_raster_rejects_bad_payloads(tmp_path):
    path = str(tmp_path / "bad.raster")
    with pytest.raises(ValueError):
        write_raster(path, np.zeros(4, dtype=np.float32))
    with pytest.raises(ValueError):
        write_raster(path, np.zeros((2, 2), dtype=complex))
    write_raster(path, np.zeros((2, 2), dtype=np.float32))
    blob = open(path, "rb").read()
    open(path, "wb").write(b"XX32" + blob[4:])
    with pytest.raises(ValueError):
        read_raster(path)
    open(path, "wb").write(blob[:12] + struct.pack("<I", 7) + blob[16:])
    with pytest.raises(ValueError):
        read_raster(path)
    open(path, "wb").write(blob[:-4])
    with pytest.raises(ValueError):
        read_raster(path)
    open(path, "wb").write(blob[:8])
    with pytest.raises(ValueError):
        read_raster(path)


# ---------------------------------------------------------------------------
# stops and plan plumbing


def test_lyot_stop_is_inner_binary_raster(grid):
    stop = lyot_stop_array(grid)
    assert set(np.unique(stop)) <= {0.0, 1.0}
    assert np.array_equal(stop * stop, stop)
    x, y = grid.mesh()
    rho = np.hypot(x, y)
    assert rho[stop > 0].max() < 1.0
    deep = rho <= 1.0 - grid.dx
    assert np.all(stop[deep] == 1.0)


def test_plan_validates_inputs(grid):
    assert ELEMENT_KINDS == ("apodizer", "focal_mask", "lyot_stop", "inverse_apodizer")
    with pytest.raises(ValueError):
        PropagatorPlan("x", grid, (), "sideways")
    with pytest.raises(ValueError):
        PropagatorPlan("x", grid, (("mystery", np.ones((4, 4))),), "pupil")
    with pytest.raises(ValueError):
        PropagatorPlan("x", grid, (("lyot_stop", np.ones((4, 4))),), "pupil")
    with pytest.raises(ValueError):
        PropagatorPlan("x", grid, (), "pupil", np.ones((4, 4)))
    plan = PropagatorPlan("x", grid, (), "pupil")
    focal = OpticalField(np.zeros((grid.n_pixels,) * 2, complex), "focal", grid.half_width)
    with pytest.raises(ValueError):
        plan.apply(focal)
    small = GridSpec(n_pixels=64, half_width=16.0)
    with pytest.raises(ValueError):
        plan.apply(pupil_disk_field(small))


def test_plan_is_linear(plan_vortex, grid):
    rng = np.random.default_rng(11)
    shape = (grid.n_pixels, grid.n_pixels)
    x, y = grid.mesh()
    env = np.exp(-(x**2 + y**2) / 2.0)
    a = OpticalField(env * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), "pupil", grid.half_width)
    b = OpticalField(env * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), "pupil", grid.half_width)
    al, be = 0.7 - 0.2j, -0.4 + 1.1j
    mixed = OpticalField(al * a.samples + be * b.samples, "pupil", grid.half_width)
    lhs = plan_vortex.apply(mixed).samples
    rhs = al * plan_vortex.apply(a).samples + be * plan_vortex.apply(b).samples
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def _reference_apply(plan, samples):
    """The chain on the whole grid: every element, numpy's fft2/ifft2 per crossing."""
    assert plan.projector is None
    n = plan.grid.n_pixels
    half_width, domain = plan.grid.half_width, plan.input_domain
    cur = np.asarray(samples, dtype=complex)

    def cross(cur, half_width, inverse):
        dx = 2.0 * half_width / n
        if inverse:
            out = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(cur))) * (n * n * dx * dx)
        else:
            out = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(cur))) * (dx * dx)
        return out, 0.5 / dx

    for kind, arr in plan.elements:
        need = "focal" if kind == "focal_mask" else "pupil"
        if domain != need:
            cur, half_width = cross(cur, half_width, domain == "focal")
            domain = need
        cur = cur * arr
    if domain != "focal":
        cur, half_width = cross(cur, half_width, False)
    return cur, half_width


def _reference_source(grid, polar):
    """The tilted aperture field of a pupil-fed source, on the whole grid."""
    r, phi = polar
    disk = pupil_disk_field(grid).normalized().samples
    x, y = grid.mesh()
    return disk * np.exp(2j * math.pi * r * (x * math.cos(phi) + y * math.sin(phi)))


def _chain(design, grid, plan_piaacmc, plan_vortex):
    if design == "focal-fed":  # the pupil box met straight from a focal input
        (_, phase), (_, stop) = vortex_plan(grid).elements
        elements = (("lyot_stop", stop), ("focal_mask", phase), ("lyot_stop", stop))
        return PropagatorPlan("x", grid, elements, "focal")
    if grid.n_pixels == 1024:
        return plan_piaacmc if design == "piaacmc" else plan_vortex
    return piaacmc_plan(grid) if design == "piaacmc" else vortex_plan(grid)


@pytest.mark.parametrize("design", ["vortex", "piaacmc", "focal-fed"])
@pytest.mark.parametrize("grid_args", [(1024, 16.0), (256, 8.0)])
def test_apply_is_the_full_grid_chain(grid_args, design, plan_piaacmc, plan_vortex):
    # pruned transforms leave every sample of the full-grid chain as it was
    grid = GridSpec(*grid_args)
    plan = _chain(design, grid, plan_piaacmc, plan_vortex)
    n = grid.n_pixels
    rng = np.random.default_rng(3)
    fields = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
    if plan.input_domain == "pupil":
        fields.append(_reference_source(grid, (0.4, 2.0)))
    for samples in fields:
        got = plan.apply(OpticalField(samples, plan.input_domain, grid.half_width))
        ref, half_width = _reference_apply(plan, samples)
        assert np.array_equal(got.samples, ref)
        assert got.half_width == half_width


@pytest.mark.parametrize("design", ["vortex", "piaacmc"])
@pytest.mark.parametrize("grid_args", [(1024, 16.0), (256, 8.0)])
def test_pupil_fed_image_is_the_full_grid_image(grid_args, design, plan_piaacmc, plan_vortex):
    # the source is built on the disk's bounding box; the image is that of
    # the tilted field built on the whole grid, bit for bit
    grid = GridSpec(*grid_args)
    plan = _chain(design, grid, plan_piaacmc, plan_vortex)
    scene = Scene(0.7, 5.0, 0.2)
    star, planet = (
        np.abs(_reference_apply(plan, _reference_source(grid, polar))[0]) ** 2
        for polar in (scene.star_polar, scene.planet_polar)
    )
    ref = (1.0 - scene.b) * star + scene.b * planet
    assert np.array_equal(output_state_image(plan, scene), ref)


def test_pupil_fed_images_build_the_disk_once_per_grid(monkeypatch):
    grid = GridSpec(128, 8.0)
    plan = vortex_plan(grid)
    calls = []

    def counting_disk(g):
        calls.append(g)
        return pupil_disk_field(g)

    monkeypatch.setattr(coronagraph, "pupil_disk_field", counting_disk)
    coronagraph._pupil_source.cache_clear()
    try:
        for r in (0.3, 0.7, 1.1):
            output_state_image(plan, Scene(r, 5.0, 0.2))
        output_state_image(plan, Scene(0.5, 1.0, 0.1), star_only=True)
    finally:
        coronagraph._pupil_source.cache_clear()
    assert calls == [grid]


def test_pupil_box_is_the_joint_support_of_the_pupil_elements(plan_vortex, plan_piaacmc, grid):
    # the Lyot stop's 63 x 63 pixels on the default grid; the PIAACMC
    # apodizers share the stop's support
    box = _bounding_box(lyot_stop_array(grid) > 0.0)
    assert (box[0].stop - box[0].start, box[1].stop - box[1].start) == (63, 63)
    assert plan_vortex.pupil_box == box
    assert plan_piaacmc.pupil_box == box
    assert plan_vortex.pupil_box is plan_vortex.pupil_box
    assert perfect_plan(grid=GridSpec(64, 4.0)).pupil_box is None


# ---------------------------------------------------------------------------
# perfect design


def test_perfect_rejects_fundamental_and_passes_higher_modes(stack6, grid):
    plan = perfect_plan(stack6.field(0), grid)
    out = plan.apply(stack6.field(0))
    assert out.norm() ** 2 <= 1e-12
    for k in (1, 2, 5, 9):
        fk = stack6.field(k)
        diff = plan.apply(fk).samples - fk.samples
        assert np.linalg.norm(diff) * grid.dx <= 1e-6


def test_perfect_mismatched_fundamental_raises(grid):
    pup = pupil_disk_field(grid)
    with pytest.raises(ValueError):
        perfect_plan(pup, grid)
    small = GridSpec(n_pixels=64, half_width=16.0)
    from artifact.optics import psf_field

    with pytest.raises(ValueError):
        perfect_plan(psf_field(small), grid)


def test_perfect_shifted_source_energy(grid):
    # The transmitted energy obeys Pythagoras against the measured overlap
    # exactly; the analytic Airy overlap is grid limited at the few 1e-3
    # level by the sampled tails.
    chi = shifted_source_field((0.3, 0.0), grid)
    from artifact.optics import psf_field

    fund = psf_field(grid).normalized()
    out = perfect_plan(fund, grid).apply(chi)
    c = overlap(fund, chi)
    measured = out.norm() ** 2
    pythag = chi.norm() ** 2 - abs(c) ** 2
    assert abs(measured - pythag) <= 1e-10
    r = 0.3
    gamma0 = j1(2.0 * math.pi * r) / (math.pi * r)
    assert abs(measured - (1.0 - gamma0**2)) <= 5e-3


# ---------------------------------------------------------------------------
# prolate solver and piaacmc design


def test_prolate_radial_properties():
    for c in (1.0, 1.7, 2.4):
        gamma, x, w, v = prolate_radial(c)
        assert 0.0 < gamma < 1.0
        assert np.all(v > 0.0)
        assert abs(float(np.sum(w * x * v * v)) - 1.0) <= 1e-12
    g1 = prolate_radial(1.2)[0]
    g2 = prolate_radial(2.2)[0]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert g1 < inv_sqrt2 < g2
    with pytest.raises(ValueError):
        prolate_radial(-1.0)


def test_prolate_critical_bandwidth():
    c_star = prolate_c_star()
    assert abs(c_star - 1.6678729536422447) <= 1e-9
    gamma = prolate_radial(c_star)[0]
    assert abs(gamma - 1.0 / math.sqrt(2.0)) <= 1e-10


def test_piaacmc_design_scalars(grid):
    d = piaacmc_design(grid)
    assert abs(d.c_value - prolate_c_star()) <= 1e-15
    assert abs(d.mask_radius - 0.2698608241) <= 2e-6
    assert abs(d.gamma_grid - 0.5) <= 1e-4
    assert abs(d.gamma_grid - 0.49999199569048) <= 1e-8


def test_piaacmc_design_arrays(grid):
    d = piaacmc_design(grid)
    support = d.lyot_stop > 0.0
    assert np.array_equal(d.lyot_stop, lyot_stop_array(grid))
    # pi-phase spot: -1 inside, +1 outside, fractional only on the rim
    assert d.focal_mask.min() >= -1.0 and d.focal_mask.max() <= 1.0
    assert float(np.mean(np.abs(d.focal_mask) == 1.0)) >= 0.999
    # remap strengths stay order one and invert exactly on the support
    assert 0.82 <= d.apodizer[support].min() <= 0.86
    assert 1.17 <= d.apodizer[support].max() <= 1.20
    prod = d.apodizer[support] * d.inverse_apodizer[support]
    assert np.max(np.abs(prod - 1.0)) <= 1e-12
    assert np.all(d.apodizer[~support] == 0.0)
    # the apodized profile carries unit energy on the grid
    energy = float(np.sum(d.apodized_profile**2)) * grid.dx**2
    assert abs(energy - 1.0) <= 1e-12


def test_prolate_quadrature_built_once():
    _, x1, w1, _ = prolate_radial(1.7)
    _, x2, w2, _ = prolate_radial(2.4)
    assert x1 is x2 and w1 is w2
    assert not x1.flags.writeable and not w1.flags.writeable
    nodes, weights = np.polynomial.legendre.leggauss(256)
    assert np.array_equal(x1, 0.5 * (nodes + 1.0))
    assert np.array_equal(w1, 0.5 * weights)


def test_piaacmc_design_converges_off_self_conjugate_grid():
    # pupil pitch 1/16, focal pitch 1/32: the spot lives on the conjugate grid
    d = piaacmc_design(GridSpec(512, 16.0))
    assert abs(d.gamma_grid - 0.5) <= 1e-4
    assert abs(d.mask_radius - 0.27525) <= 1e-5
    energy = float(np.sum(d.apodized_profile**2)) * d.grid.dx**2
    assert abs(energy - 1.0) <= 1e-12


def test_piaacmc_design_without_a_root_in_the_bracket():
    # on GridSpec(64, 7.3) gamma - 1/2 is negative at both ends of the
    # spot-radius bracket [0.94, 1.10] c/(2 pi); the bracket stays as it is,
    # which keeps the default-grid design as it was
    with pytest.raises(ValueError) as err:
        piaacmc_plan(GridSpec(64, 7.3))
    message = str(err.value)
    assert "GridSpec(n_pixels=64, half_width=7.3)" in message
    assert "[0.94, 1.10] c/(2 pi)" in message
    assert "-1.334e-01 at 0.249523 and -3.685e-02 at 0.291995" in message
    for grid_args in ((128, 5.0), (256, 8.0)):
        assert abs(piaacmc_design(GridSpec(*grid_args)).gamma_grid - 0.5) <= 1e-3


@pytest.mark.parametrize("grid_args", [(1024, 16.0), (512, 16.0)])
def test_spot_roundtrip_matches_full_grid_fft(grid_args):
    grid = GridSpec(*grid_args)
    c = prolate_c_star()
    stop = lyot_stop_array(grid)
    box = _bounding_box(stop > 0.0)
    support = stop[box] > 0.0
    seed = _prolate_seed(grid, box, support, c, prolate_radial(c))
    spot = _disk_coverage(grid.conjugate(), 0.27, 32)
    # one full-grid round trip: propagate, spot, inverse_propagate
    full = np.zeros((grid.n_pixels, grid.n_pixels))
    full[box] = seed
    foc = propagate(OpticalField(full, "pupil", grid.half_width))
    back = inverse_propagate(OpticalField(foc.samples * spot, "focal", foc.half_width))
    assert back.half_width == grid.half_width
    windowed = np.zeros_like(back.samples)
    windowed[box] = _spot_roundtrip(grid, box, spot)(seed)
    assert np.max(np.abs(windowed - back.samples) * (stop > 0.0)) <= 1e-13
    # the round trip is not trivially small on the support
    assert np.max(np.abs(back.samples[stop > 0.0])) >= 0.1


def test_piaacmc_design_runs_no_fft(monkeypatch):
    calls = []
    fft = optics._centered_fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(optics, "_centered_fft", counting_fft)
    propagate(pupil_disk_field(GridSpec(64, 2.0)))
    assert len(calls) == 1
    piaacmc_design(GridSpec(512, 16.0))
    assert len(calls) == 1


def test_piaacmc_null_and_throughput(plan_piaacmc, grid):
    pup = pupil_disk_field(grid)
    null = plan_piaacmc.apply(pup).norm() ** 2
    assert null <= 1e-6
    assert math.sqrt(null) <= 1e-3
    expected = {0.5: 0.806620, 1.0: 0.965668, 3.0: 0.978682}
    for r, ref in expected.items():
        chi = shifted_source_field((r, 0.0), grid)
        out = plan_piaacmc.apply(inverse_propagate(chi))
        thr = out.norm() ** 2 / chi.norm() ** 2
        assert abs(thr - ref) <= 1e-3
    assert expected[3.0] >= 0.8


# ---------------------------------------------------------------------------
# vortex design


def test_vortex_null_and_throughput(plan_vortex, grid):
    pup = pupil_disk_field(grid)
    null = plan_vortex.apply(pup).norm() ** 2
    assert null <= 1e-3
    assert abs(null - 1.931e-4) <= 2e-5
    for r, ref in {1.0: 0.777516, 3.0: 0.914073}.items():
        chi = shifted_source_field((r, 0.0), grid)
        thr = plan_vortex.apply(inverse_propagate(chi)).norm() ** 2 / chi.norm() ** 2
        assert abs(thr - ref) <= 1e-3


def test_vortex_doughnut_image(plan_vortex, grid):
    chi = shifted_source_field((0.5 * AIRY_SIGMA, 0.0), grid)
    img = np.abs(plan_vortex.apply(inverse_propagate(chi)).samples) ** 2
    c = grid.n_pixels // 2
    assert img[c, c] <= 1e-2 * img.max()


def test_vortex_rotational_covariance(plan_vortex, grid):
    r = 0.5 * AIRY_SIGMA

    def image(s):
        chi = shifted_source_field(s, grid)
        return np.abs(plan_vortex.apply(inverse_propagate(chi)).samples) ** 2

    ix = image((r, 0.0))
    iy = image((0.0, r))
    # quarter-turn of the source rotates the image; the one-pixel roll
    # recenters the even-sized fftshifted grid
    rot = np.roll(np.rot90(ix, 3), 1, axis=1)
    assert np.linalg.norm(rot - iy) <= 1e-4 * np.linalg.norm(iy)


# ---------------------------------------------------------------------------
# passivity


def _probe_fields(stack6, grid):
    rng = np.random.default_rng(7)
    fields = [shifted_source_field((r, 0.0), grid) for r in (0.3, 1.0, 3.0)]
    co = rng.standard_normal(stack6.count) + 1j * rng.standard_normal(stack6.count)
    fields.append(stack6.synthesize(co).normalized())
    return fields


def test_perfect_and_vortex_are_passive(stack6, plan_vortex, grid):
    plan_p = perfect_plan(stack6.field(0), grid)
    for f in _probe_fields(stack6, grid):
        assert plan_p.apply(f).norm() <= f.norm() * (1.0 + 1e-6)
        assert plan_vortex.apply(inverse_propagate(f)).norm() <= f.norm() * (1.0 + 1e-6)


def test_piaacmc_passive_on_sources(stack6, plan_piaacmc, grid):
    # The multiplicative remap model contracts every physical point-source
    # field; ring-like modal inputs can gain about a percent, bounded by
    # the operator-level ceiling checked in the extraction tests.
    for f in _probe_fields(stack6, grid):
        assert plan_piaacmc.apply(inverse_propagate(f)).norm() <= f.norm() * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# modal extraction


def test_extraction_guard_rejects_deep_truncation(plan_vortex):
    with pytest.raises(ValueError):
        extract_operator(plan_vortex, FourierZernikeBasis(31))


def test_extraction_grid_mismatch(plan_vortex):
    small = GridSpec(n_pixels=64, half_width=16.0)
    stack = mode_field_stack(FourierZernikeBasis(1), small)
    with pytest.raises(ValueError):
        extract_operator(plan_vortex, stack)


def test_extraction_off_a_self_conjugate_grid():
    # a pupil-fed chain on GridSpec(256, 16) returns on the conjugate
    # half-width-4 grid, where the modes are sampled; the vortex nulls the
    # three lowest modes and passes the other three in part
    op = extract_operator(vortex_plan(GridSpec(256, 16.0)), FourierZernikeBasis(2))
    assert op.fields.grid == GridSpec(256, 4.0)
    power = np.abs(op.transmissions) ** 2
    assert np.all(power[:3] < 1e-4)
    assert np.all(power[3:] > 0.5)
    assert np.all(np.abs(op.transmissions) <= 1.0 + 1e-12)


def test_extraction_where_the_conjugate_grid_rounds():
    # the focal grid of GridSpec(64, 7.3) has a conjugate of half-width
    # 7.300000000000001, so feeding the chain inverse-propagated modes
    # would land off the plan grid; the box path never builds that field
    plan = vortex_plan(GridSpec(64, 7.3))
    op = extract_operator(plan, FourierZernikeBasis(1))
    assert op.fields.grid == plan.output_grid
    assert np.all(np.abs(op.transmissions) <= 1.0 + 1e-12)


@pytest.fixture(scope="module")
def stack4(grid):
    return mode_field_stack(FourierZernikeBasis(4), grid)


def _chain_plan(design, stack, grid, plan_piaacmc, plan_vortex):
    if design == "perfect":
        return perfect_plan(stack.field(0), grid)
    return plan_piaacmc if design == "piaacmc" else plan_vortex


def _full_grid_matrix(plan, stack):
    """Oracle: every mode through the full-grid chain, projected on the stack."""
    brute = np.empty((stack.count, stack.count), dtype=complex)
    for k in range(stack.count):
        chi = stack.field(k)
        fin = inverse_propagate(chi) if plan.input_domain == "pupil" else chi
        brute[:, k] = stack.project(plan.apply(fin))
    return brute


@pytest.mark.parametrize("design", ["perfect", "vortex", "piaacmc"])
def test_extraction_matches_full_grid_chain(design, stack4, grid, plan_piaacmc, plan_vortex):
    plan = _chain_plan(design, stack4, grid, plan_piaacmc, plan_vortex)
    brute = _full_grid_matrix(plan, stack4)
    assert np.max(np.abs(_chain_matrix(plan, stack4)[1] - brute)) <= 1e-13

    op = extract_operator(plan, stack4)
    ref = _singular_operator(plan.name, stack4, brute)
    assert np.max(np.abs(np.abs(op.transmissions) - np.abs(ref.transmissions))) <= 1e-13
    # a transmission's phase is that of the diagonal entry v^H M v; the
    # vortex shifts m by 2, so its entries are 1e-6 to 2e-3 of |tau|, and
    # rounding the matrices at 1e-15 moves their phases by up to 3e-8 here
    # (in the brute-force algorithm as much as in the box path); compare
    # where the entry is at least 1e-3 of |tau|
    v = op.mode_coefficients
    diag = np.abs(np.einsum("ij,ij->j", v.conj(), brute @ v))
    tau = np.abs(op.transmissions)
    kept = (tau > 1e-6) & (diag >= 1e-3 * tau)
    assert kept.any()
    if design != "vortex":
        assert np.array_equal(kept, tau > 1e-6)
    assert np.max(np.abs(op.transmissions - ref.transmissions)[kept]) <= 1e-12


@pytest.mark.parametrize("layout", ["projector", "focal pair"])
def test_extraction_of_layouts_no_design_builds(layout):
    # a projector after pupil elements runs through the box as well; two
    # adjacent focal masks act in one plane, and after a pupil element a
    # mask that is not 1 on most of the grid still goes through the round trip
    grid = GridSpec(256, 8.0)
    stack = mode_field_stack(FourierZernikeBasis(3), grid)
    (_, phase), (_, stop) = vortex_plan(grid).elements
    if layout == "projector":
        plan = PropagatorPlan("x", grid, vortex_plan(grid).elements, "pupil", stack.field(0).samples)
    else:
        half = np.sqrt(phase)
        elements = (("apodizer", stop), ("focal_mask", half), ("focal_mask", half), ("lyot_stop", stop))
        plan = PropagatorPlan("x", grid, elements, "pupil")
    brute = _full_grid_matrix(plan, stack)
    assert np.max(np.abs(_chain_matrix(plan, stack)[1] - brute)) <= 1e-13


def test_extraction_with_an_empty_stop():
    # no pixel of GridSpec(8, 16) lies inside the unit disk: nothing passes
    op = extract_operator(vortex_plan(GridSpec(8, 16.0)), FourierZernikeBasis(0))
    assert np.array_equal(op.transmissions, np.zeros(1))


def test_extraction_runs_no_fft(monkeypatch):
    grid = GridSpec(256, 8.0)
    stack = mode_field_stack(FourierZernikeBasis(2), grid)
    plans = (perfect_plan(stack.field(0), grid), piaacmc_plan(grid), vortex_plan(grid))
    calls = []
    fft = optics._centered_fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(optics, "_centered_fft", counting_fft)
    propagate(pupil_disk_field(GridSpec(64, 2.0)))
    assert len(calls) == 1
    for plan in plans:
        extract_operator(plan, stack)
    assert len(calls) == 1


def test_extraction_memory_beyond_the_stack(plan_vortex, stack6):
    # the box path holds one mode in float64 and its masked copy at a time,
    # about 30 MB on the default grid; the full-grid column loop took 1 GB
    tracemalloc.start()
    try:
        extract_operator(plan_vortex, stack6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_extraction_from_a_basis_holds_no_stack():
    # each mode is sampled once, in row blocks, and no stack is kept: the
    # float32 n6 stack alone was 112 MiB
    plan = vortex_plan()
    tracemalloc.start()
    try:
        extract_operator(plan, FourierZernikeBasis(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_extraction_rejects_chains_without_a_box_form(grid):
    stack = mode_field_stack(FourierZernikeBasis(1), grid)
    phase = vortex_plan(grid).elements[0][1]
    focal_only = PropagatorPlan("x", grid, (("focal_mask", phase),), "focal")
    with pytest.raises(ValueError):
        extract_operator(focal_only, stack)
    stop = lyot_stop_array(grid)
    focal_last = PropagatorPlan("x", grid, (("lyot_stop", stop), ("focal_mask", phase)), "pupil")
    with pytest.raises(ValueError):
        extract_operator(focal_last, stack)


def test_extraction_svd_failure_is_a_runtime_error(monkeypatch):
    grid = GridSpec(64, 4.0)

    def failing_svd(matrix):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(RuntimeError):
        extract_operator(vortex_plan(grid), FourierZernikeBasis(1))


def test_perfect_spectrum_structure(op_perfect20):
    a = np.abs(op_perfect20.transmissions)
    assert a[0] <= 1e-8
    assert np.max(np.abs(a[1:] - 1.0)) <= 1e-3
    assert np.all(np.diff(a) >= -1e-12)


def test_operator_invariants(op_piaacmc20):
    v = op_piaacmc20.mode_coefficients
    eye = v.conj().T @ v
    assert np.max(np.abs(eye - np.eye(v.shape[0]))) <= 1e-10
    a = np.abs(op_piaacmc20.transmissions)
    assert np.all(np.diff(a) >= -1e-12)
    assert a.max() <= 1.05


def test_operator_constructor_validations(grid):
    stack = mode_field_stack(FourierZernikeBasis(1), grid)
    count = stack.count
    tau = np.zeros(count, complex)
    vmat = np.eye(count, dtype=complex)
    with pytest.raises(ValueError):
        CoronagraphOperator("x", stack, tau[:-1], vmat)
    with pytest.raises(ValueError):
        CoronagraphOperator("x", stack, tau, vmat[:, :-1])
    hot = tau.copy()
    hot[0] = 1.5
    with pytest.raises(ValueError):
        CoronagraphOperator("x", stack, hot, vmat)


def _tip_tilt_span_overlap(op, positions):
    basis = op.fields.basis
    tt_rows = [k for k, idx in enumerate(basis.modes) if idx.n == 1]
    assert len(tt_rows) == 2
    v = op.mode_coefficients
    return sum(float(np.sum(np.abs(v[tt_rows, p]) ** 2)) for p in positions) / 2.0


def test_piaacmc_tip_tilt_pair(plan_piaacmc, grid):
    stack3 = mode_field_stack(FourierZernikeBasis(3), grid)
    op = extract_operator(plan_piaacmc, stack3)
    ov = _tip_tilt_span_overlap(op, (1, 2))
    assert abs(ov - 0.9379) <= 2e-3
    assert ov > 0.90


def test_vortex_null_floor_structure(plan_vortex, grid):
    # A charge-2 vortex nulls exactly one combination of each conjugate-m
    # pair: the null floor holds one nearly pure tip-tilt combination
    # while the complementary combination transmits at high throughput.
    stack2 = mode_field_stack(FourierZernikeBasis(2), grid)
    op = extract_operator(plan_vortex, stack2)
    a = np.abs(op.transmissions)
    floor = [k for k in range(op.fields.count) if a[k] <= 1e-2]
    assert len(floor) == 3
    tt = [2.0 * _tip_tilt_span_overlap(op, (k,)) for k in range(op.fields.count)]
    assert max(tt[k] for k in floor) >= 0.9
    passing = [k for k in range(op.fields.count) if a[k] >= 0.9]
    assert max(tt[k] for k in passing) >= 0.9


def _spatial_recon_error(op, plan, shift, grid):
    chi = shifted_source_field(shift, grid)
    fin = inverse_propagate(chi) if plan.input_domain == "pupil" else chi
    direct = plan.apply(fin).samples
    stack = op.fields
    modal = stack.synthesize(op.apply_coefficients(stack.project(chi))).samples
    return np.linalg.norm(direct - modal) / np.linalg.norm(direct)


@pytest.mark.parametrize("shift", [(0.3, 0.0), (0.7, 0.4), (1.0, 0.0)])
def test_reconstruction_spatial_perfect(shift, op_perfect20, plan_perfect20, grid):
    # The perfect chain is Hermitian, so the one-sided singular-mode form
    # reconstructs it; for the non-normal chains see the envelope test.
    assert _spatial_recon_error(op_perfect20, plan_perfect20, shift, grid) <= 0.02


def test_reconstruction_nonnormal_envelopes(
    op_piaacmc20, op_vortex20, plan_piaacmc, plan_vortex, grid
):
    # The remap pair makes the compressed piaacmc matrix mildly non-normal
    # and the charge-2 phase shifts angular momentum by two, so the
    # one-sided form cannot reproduce those chains spatially; pin the
    # measured envelopes so a regression in either direction is caught.
    e_p = _spatial_recon_error(op_piaacmc20, plan_piaacmc, (0.7, 0.4), grid)
    e_v = _spatial_recon_error(op_vortex20, plan_vortex, (0.7, 0.4), grid)
    assert 0.02 <= e_p <= 0.2
    assert 0.5 <= e_v <= 2.0


@pytest.mark.parametrize("shift", [(0.3, 0.0), (0.7, 0.4), (1.0, 0.0)])
def test_reconstruction_energy_all_designs(
    shift, op_perfect20, op_piaacmc20, op_vortex20, plan_perfect20, plan_piaacmc, plan_vortex, grid
):
    # Singular pairs guarantee the output energy identity regardless of
    # normality; truncation at n_max=20 must hold it to 2% for |s| <= 1.
    chi = shifted_source_field(shift, grid)
    pairs = (
        (op_perfect20, plan_perfect20),
        (op_piaacmc20, plan_piaacmc),
        (op_vortex20, plan_vortex),
    )
    for op, plan in pairs:
        fin = inverse_propagate(chi) if plan.input_domain == "pupil" else chi
        e_direct = plan.apply(fin).norm() ** 2
        z = op.mode_coefficients.conj().T @ op.fields.project(chi)
        e_modal = float(np.sum(np.abs(op.transmissions) ** 2 * np.abs(z) ** 2))
        assert abs(e_modal - e_direct) <= 0.02 * e_direct


def test_cumulative_low_order_ordering(op_piaacmc20, op_vortex20):
    a_v = np.abs(op_vortex20.transmissions)
    a_p = np.abs(op_piaacmc20.transmissions)
    assert float(np.sum(a_v[:10] ** 2)) < float(np.sum(a_p[:10] ** 2))


def test_extracted_operators_passive_where_physical(op_perfect20, op_vortex20):
    assert np.max(np.abs(op_perfect20.transmissions)) <= 1.0 + 1e-6
    assert np.max(np.abs(op_vortex20.transmissions)) <= 1.0 + 1e-6


def test_apply_matches_apply_coefficients(op_perfect20):
    rng = np.random.default_rng(3)
    stack = op_perfect20.fields
    co = rng.standard_normal(stack.count) + 1j * rng.standard_normal(stack.count)
    field = stack.synthesize(co)
    out = op_perfect20.apply(field)
    ref = stack.synthesize(op_perfect20.apply_coefficients(co))
    assert np.linalg.norm(out.samples - ref.samples) <= 1e-6 * np.linalg.norm(ref.samples)


# ---------------------------------------------------------------------------
# imaging


def test_output_state_image_star_suppression(op_perfect20):
    sc = Scene(r_delta=0.2 * AIRY_SIGMA, phi_delta=0.0, b=1e-9)
    star = output_state_image(op_perfect20, sc, star_only=True)
    assert star.max() <= 1e-8


def test_output_state_image_two_lobes(op_perfect20, grid):
    sc = Scene(r_delta=0.2 * AIRY_SIGMA, phi_delta=0.0, b=1e-9)
    img = output_state_image(op_perfect20, sc)
    inner = img[1:-1, 1:-1]
    neigh = [img[:-2, 1:-1], img[2:, 1:-1], img[1:-1, :-2], img[1:-1, 2:],
             img[:-2, :-2], img[2:, 2:], img[:-2, 2:], img[2:, :-2]]
    peaks = inner > 0.1 * img.max()
    for nb in neigh:
        peaks &= inner > nb
    assert int(peaks.sum()) == 2


def test_pupil_fed_image_weighted_by_output_grid():
    # GridSpec(512, 16) is not self-conjugate: the pupil-fed vortex chain
    # returns on GridSpec(512, 8), whose pixel has a quarter of the plan
    # pixel's area.  A unit source 1.5 off axis then reads 0.829 (0.854 on
    # GridSpec(2048, 16)); weighted by the plan pixel it read 3.32
    from artifact.cli import planet_throughput

    grid = GridSpec(512, 16.0)
    plan = vortex_plan(grid)
    assert plan.output_grid == GridSpec(512, 8.0)
    assert vortex_plan().output_grid == GridSpec()
    assert PropagatorPlan("open", grid, (), input_domain="focal").output_grid == grid
    probe = Scene(3.0, 0.3 + math.pi, 0.5)  # star_only: unit source at (1.5, 0.3)
    image = output_state_image(plan, probe, star_only=True)
    energy = float(image.sum()) * plan.output_grid.dx**2
    assert energy == pytest.approx(0.83, abs=0.01)
    assert planet_throughput(plan, 1.5) == pytest.approx(energy, rel=1e-12)


def test_output_state_image_detected_energy_modal(op_vortex20, plan_vortex, grid):
    # contract value 1e-3; measured 1.83e-2, the order-20 truncation on
    # both sides of the operator.  Output side: 0.92% of the direct
    # detected energy falls outside the stack (the chain's output projected
    # onto it; the phase mask shifts angular order by 2).  Input side: the
    # analytic source coefficients instead of the sampled source's
    # projections shift the in-basis energy by 0.87%.  The extraction is
    # right: the grid chain at equal truncation matches the modal path to
    # 5e-15 in coefficients and 4.9e-10 in the rendered image, and the grid
    # chain fed only the in-basis part of the sampled source matches the
    # direct image to 3.7e-4.  Order 30 needs 496 modes, 2.1 GB of float32
    # stack before the float64 slabs, beyond a 7 GB machine with today's
    # stack code, so this is expected to fail until the contract number is
    # revisited
    sc = Scene(r_delta=AIRY_SIGMA, phi_delta=0.3, b=0.1)
    modal = output_state_image(op_vortex20, sc)
    direct = output_state_image(plan_vortex, sc)
    e_modal = float(np.sum(modal)) * grid.dx**2
    e_direct = float(np.sum(direct)) * grid.dx**2
    rel = abs(e_modal - e_direct) / e_direct
    assert rel <= 1e-3, f"relative detected-energy gap {rel:.3e}"
