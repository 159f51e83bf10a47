"""Tests for coronagraph chains, modal extraction, and imaging."""

import gc
import math
import re
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import j1

from _oracles import embed

from artifact import coronagraph, optics
from artifact.classical_info import _modal_energy
from artifact.coronagraph import (
    ELEMENT_KINDS,
    RASTER_MAGIC,
    CoronagraphOperator,
    PropagatorPlan,
    _bounding_box,
    _brentq,
    _chain_matrix,
    _cut_to_support,
    _pupil_source,
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
from artifact.modebasis import FourierZernikeBasis, _pass_layout, mode_field_stack
from artifact.optics import (
    AIRY_SIGMA,
    GridSpec,
    OpticalField,
    Scene,
    _disk_coverage,
    _intensity,
    inverse_propagate,
    overlap,
    propagate,
    psf_field,
    pupil_disk_field,
    separation_from_sigma_units,
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
    stop = embed(*lyot_stop_array(grid), grid.n_pixels)
    assert set(np.unique(stop)) <= {0.0, 1.0}
    assert np.array_equal(stop * stop, stop)
    x, y = grid.mesh()
    rho = np.hypot(x, y)
    assert rho[stop > 0].max() < 1.0
    deep = rho <= 1.0 - grid.dx
    assert np.all(stop[deep] == 1.0)


def test_plan_validates_inputs(grid):
    assert ELEMENT_KINDS == ("apodizer", "focal_mask", "lyot_stop", "inverse_apodizer")
    n = grid.n_pixels
    vortex = vortex_plan(grid)
    ((_, stop, box),) = vortex.elements
    phase, whole = vortex.spiral_phase, (slice(0, n),) * 2
    with pytest.raises(ValueError):
        PropagatorPlan("x", grid, (("mystery", stop, box),))
    with pytest.raises(ValueError, match="must match its box"):
        PropagatorPlan("x", grid, (("lyot_stop", np.ones((4, 4)), box),))
    off_grid = (slice(n - 2, n + 2),) * 2
    with pytest.raises(ValueError, match="must match its box"):
        PropagatorPlan("x", grid, (("lyot_stop", np.ones((4, 4)), off_grid),))
    with pytest.raises(ValueError):
        PropagatorPlan("x", grid, (), np.ones((4, 4)))
    # only the three designs' layouts are built; every other one is
    # rejected when the plan is made, before any transform.  A projector
    # makes the chain focal-fed, and without one it is pupil-fed
    projector = np.ones((n, n))
    mask, pupil = ("focal_mask", phase, whole), ("lyot_stop", stop, box)
    rejected = (
        ((pupil,), projector, "focal-fed plan takes a projector and no elements"),
        ((mask, pupil), projector, "focal-fed plan takes a projector and no elements"),
        ((), None, "needs a pupil-plane element"),
        ((mask,), None, "needs a pupil-plane element"),
        ((mask, mask, pupil), None, "two focal masks side by side"),
        ((pupil, mask, mask, pupil), None, "two focal masks side by side"),
        ((pupil, mask), None, "must end in a pupil-plane element"),
        ((mask, pupil, mask), None, "must end in a pupil-plane element"),
        ((mask, pupil, ("inverse_apodizer", embed(stop, box, n), whole)), None,
         "pupil-plane elements must share one box"),
        ((("focal_mask", phase[box], box), pupil), None, "opens with a pupil-plane element"),
        ((mask, pupil), None, "leading vortex mask is given by its charge"),
    )
    for elements, proj, message in rejected:
        with pytest.raises(ValueError, match=message):
            PropagatorPlan("x", grid, elements, proj)
    with pytest.raises(ValueError, match="no elements or charge"):
        PropagatorPlan("x", grid, (), projector, charge=2)
    # the layouts of the three designs
    piaacmc = (("apodizer", stop, box), mask, pupil, ("inverse_apodizer", stop, box))
    assert PropagatorPlan("x", grid, piaacmc).input_domain == "pupil"
    assert PropagatorPlan("x", grid, (pupil,), charge=2).input_domain == "pupil"
    plan = PropagatorPlan("x", grid, (), projector)
    assert plan.input_domain == "focal"
    with pytest.raises(ValueError):
        plan.apply(pupil_disk_field(grid))
    small = GridSpec(n_pixels=64, half_width=16.0)
    with pytest.raises(ValueError):
        plan.apply(OpticalField(np.zeros((64, 64), complex), "focal", small.half_width))


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


def _reference_cross(cur, half_width, inverse):
    """One plane crossing on the whole grid with numpy's fft2 or ifft2."""
    n = cur.shape[0]
    dx = 2.0 * half_width / n
    if inverse:
        out = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(cur))) * (n * n * dx * dx)
    else:
        out = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(cur))) * (dx * dx)
    return out, 0.5 / dx


def _reference_apply(plan, samples):
    """The chain on the whole grid: every element, numpy's fft2/ifft2 per crossing.

    Each element is embedded in the grid from its box: a focal mask is one
    off it and a pupil element zero; a charge's spiral mask comes first.
    The projector, if any, subtracts its component from the focal output,
    the coefficient summed by the chain's own reduction.
    """
    half_width, domain = plan.grid.half_width, plan.input_domain
    cur = np.asarray(samples, dtype=complex)
    elements = plan.elements
    if plan.charge:
        whole = slice(0, cur.shape[0])
        elements = (("focal_mask", plan.spiral_phase, (whole, whole)),) + elements
    for kind, arr, box in elements:
        need = "focal" if kind == "focal_mask" else "pupil"
        if domain != need:
            cur, half_width = _reference_cross(cur, half_width, domain == "focal")
            domain = need
        # a named operand: numpy would write the product of a temporary
        # into its buffer, whose complex loop rounds differently
        mask = embed(arr, box, cur.shape[0], 1.0 if need == "focal" else 0.0)
        cur = cur * mask
    if domain != "focal":
        cur, half_width = _reference_cross(cur, half_width, False)
    if plan.projector is not None:
        dx = 2.0 * half_width / cur.shape[0]
        c = np.einsum("ij,ij->", plan.projector.conj(), cur)
        cur = cur - c * dx * dx * plan.projector
    return cur, half_width


def _reference_source(grid, polar):
    """The tilted aperture field of a pupil-fed source, on the whole grid."""
    r, phi = polar
    disk = pupil_disk_field(grid).normalized().samples
    x, y = grid.mesh()
    return disk * np.exp(2j * math.pi * r * (x * math.cos(phi) + y * math.sin(phi)))


def _chain(design, grid, plan_piaacmc, plan_vortex):
    if grid.n_pixels == 1024:
        return plan_piaacmc if design == "piaacmc" else plan_vortex
    return piaacmc_plan(grid) if design == "piaacmc" else vortex_plan(grid)


@pytest.mark.parametrize("design", ["vortex", "piaacmc"])
@pytest.mark.parametrize("grid_args", [(1024, 16.0), (256, 8.0)])
def test_apply_is_the_full_grid_chain(grid_args, design, plan_piaacmc, plan_vortex):
    # the vortex meets its focal mask before the box: pruned transforms
    # leave every sample of the full-grid chain as it was.  A focal mask
    # between pupil elements acts on the box as a matrix Fourier round trip,
    # which agrees to rounding: measured 3e-16 to 9e-16 of the largest sample
    grid = GridSpec(*grid_args)
    plan = _chain(design, grid, plan_piaacmc, plan_vortex)
    n = grid.n_pixels
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fields = [dense]
    # inputs with partial support: one box that overlaps the pupil box in
    # part and one that misses it
    for rows, cols in ((slice(n // 2 - 40, n // 2 - 20), slice(n // 2 + 5, n // 2 + 50)),
                       (slice(3, 9), slice(n - 7, n - 2))):
        part = np.zeros_like(dense)
        part[rows, cols] = dense[rows, cols]
        fields.append(part)
    fields.append(_reference_source(grid, (0.4, 2.0)))
    for samples in fields:
        got = plan.apply(OpticalField(samples, "pupil", grid.half_width))
        ref, half_width = _reference_apply(plan, samples)
        if design == "vortex":
            assert np.array_equal(got.samples, ref)
        else:
            assert np.max(np.abs(got.samples - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert got.half_width == half_width


def test_apply_in_place_steps_are_the_out_of_place_formulas():
    # the vortex's leading mask multiplies its propagated field in place;
    # the perfect projector step forms samples - c * projector in one new
    # buffer.  Both give the out-of-place products bit for bit, and the
    # caller's field is left as it was
    grid = GridSpec(256, 8.0)
    rng = np.random.default_rng(5)
    samples, fundamental = (
        rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)) for _ in "ab"
    )
    # a complex projector: with a real one the product's operand order
    # would not show in the bits
    fundamental = OpticalField(fundamental, "focal", grid.half_width)
    for plan in (vortex_plan(grid), perfect_plan(fundamental, grid)):
        kept = samples.copy()
        got = plan.apply(OpticalField(samples, plan.input_domain, grid.half_width))
        assert np.array_equal(samples, kept)
        ref, _ = _reference_apply(plan, samples)
        assert np.array_equal(got.samples, ref)


def test_apply_labels_its_output_with_the_output_grid():
    # on GridSpec(40, 3.0) the conjugate grid's conjugate rounds off the
    # plan grid, so the vortex's three crossings end on half-width
    # 3.333333333333334 where output_grid has 3.3333333333333335; the
    # output is labelled with output_grid and its samples are those of the
    # chain's own transforms
    grid = GridSpec(40, 3.0)
    plan = vortex_plan(grid)
    rng = np.random.default_rng(8)
    samples = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    ref, half_width = _reference_apply(plan, samples)
    assert half_width != plan.output_grid.half_width
    got = plan.apply(OpticalField(samples, "pupil", grid.half_width))
    assert got.grid == plan.output_grid
    assert np.array_equal(got.samples, ref)


@pytest.mark.parametrize("design", ["vortex", "piaacmc"])
@pytest.mark.parametrize("grid_args", [(1024, 16.0), (256, 8.0)])
def test_pupil_fed_image_is_the_full_grid_image(grid_args, design, plan_piaacmc, plan_vortex):
    # the source is built on the disk's bounding box; the image is that of
    # the tilted field built on the whole grid, bit for bit for the vortex
    # and to the rounding of the box round trip for the PIAACMC chain
    grid = GridSpec(*grid_args)
    plan = _chain(design, grid, plan_piaacmc, plan_vortex)
    scene = Scene(0.7, 5.0, 0.2)
    star, planet = (
        np.abs(_reference_apply(plan, _reference_source(grid, polar))[0]) ** 2
        for polar in (scene.star_polar, scene.planet_polar)
    )
    ref = (1.0 - scene.b) * star + scene.b * planet
    got = output_state_image(plan, scene)
    if design == "vortex":
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _counting_fft(monkeypatch):
    """Count optics._centered_fft calls, also those made from coronagraph."""
    calls = []
    fft = optics._centered_fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    for module in (optics, coronagraph):
        monkeypatch.setattr(module, "_centered_fft", counting_fft)
    return calls


def test_image_fft_counts(monkeypatch, plan_piaacmc, plan_vortex):
    # the PIAACMC chain meets a pupil element first and its spot on the
    # box: one transform per source field, to the focal grid.  The vortex
    # spiral acts on the whole focal grid: in, back to the box, and out
    calls = _counting_fft(monkeypatch)
    scene = Scene(0.7, 5.0, 0.2)
    output_state_image(plan_piaacmc, scene, star_only=True)
    assert len(calls) == 1
    output_state_image(plan_vortex, scene, star_only=True)
    assert len(calls) == 4


def _design_plan(design, grid, plan_piaacmc, plan_vortex):
    if design == "perfect":
        return perfect_plan(grid=grid)
    return plan_piaacmc if design == "piaacmc" else plan_vortex


@pytest.mark.parametrize("star_only", [False, True])
@pytest.mark.parametrize("design", ["perfect", "piaacmc", "vortex"])
def test_image_is_the_unfused_image(design, star_only, plan_piaacmc, plan_vortex, grid):
    # each output is squared in the pass that computes it and added into
    # the image, weighted; the image is the one squared from the whole
    # complex output of each source and weighted and summed after, bit for
    # bit, from the same sources through the same chain
    plan = _design_plan(design, grid, plan_piaacmc, plan_vortex)
    scene = Scene(0.7, 5.0, 0.2)

    def source_output(polar):
        r, phi = polar
        if plan.input_domain == "focal":
            source = shifted_source_field((r * math.cos(phi), r * math.sin(phi)), grid)
            return plan.apply(source).samples
        box, disk, x, y = _pupil_source(grid)
        tilt = np.exp(2j * math.pi * r * (x * math.cos(phi) + y * math.sin(phi)))
        return plan._run(disk * tilt, box).samples

    star = _intensity(source_output(scene.star_polar))
    if not star_only:
        star *= 1.0 - scene.b
        planet = _intensity(source_output(scene.planet_polar))
        planet *= scene.b
        star += planet
    assert np.array_equal(output_state_image(plan, scene, star_only=star_only), star)


@pytest.mark.parametrize(
    "design, bound_mib", [("perfect", 18), ("piaacmc", 13), ("vortex", 21)]
)
def test_image_memory(design, bound_mib, plan_piaacmc, plan_vortex, grid):
    # one two-source image on the default grid holds the image (8 MiB) and
    # no full-grid complex output: each output is squared into the image
    # batch by batch.  Measured 12.1 MiB of tracemalloc for PIAACMC, whose
    # source enters on its disk box and whose one transform starts on the
    # Lyot box; 20.2 MiB for the vortex, whose sources are staged before
    # the image exists, so its full-grid focal field (16 MiB) never meets
    # the image; 17.2 MiB for the perfect chain, the image and one real
    # source (8 MiB each) whose radii come in row blocks.  These read
    # 12.2 / 28.2 / 25.0 MiB when the vortex staged into the allocated
    # image and the Airy sampler held its radii whole, and 32.1 / 32.1 /
    # 41.0 MiB when each output was built whole and squared after.  One
    # more full-grid real image breaks every bound
    plan = _design_plan(design, grid, plan_piaacmc, plan_vortex)
    scene = Scene(0.7, 5.0, 0.2)
    output_state_image(plan, scene)  # the source disk is built once per grid
    tracemalloc.start()
    try:
        output_state_image(plan, scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_vortex_phase_is_the_mesh_formula(grid):
    # the plan records its charge and builds the phase on first use, from
    # broadcast axes in blocks of 64 rows, each block's product and exp in
    # the phase's own rows: 16.6 MiB of tracemalloc (24.1 MiB with the
    # angles of the whole grid at once, 48.0 MiB for the mesh form)
    x, y = grid.mesh()
    expect = np.exp(1j * coronagraph.VORTEX_CHARGE * np.arctan2(y, x))
    expect[grid.n_pixels // 2, grid.n_pixels // 2] = 0.0
    del x, y
    plan = vortex_plan(grid)
    assert plan.charge == coronagraph.VORTEX_CHARGE
    tracemalloc.start()
    try:
        phase = plan.spiral_phase
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.spiral_phase is phase
    assert np.array_equal(phase.view(np.float64), expect.view(np.float64))
    assert np.array_equal(np.signbit(phase.view(np.float64)), np.signbit(expect.view(np.float64)))
    assert peak <= 17 * 2**20


@pytest.mark.parametrize("design", ["perfect", "piaacmc", "vortex"])
def test_sources_beyond_the_window_are_rejected(design, plan_piaacmc, plan_vortex, grid):
    # a pupil-fed source images periodically in the window: at 30 sigma
    # (18.3 focal units) a unit source once imaged at -13.7, wrapped by the
    # 32-unit period.  Both kinds of source keep |s| + 3 <= half_width, and
    # the message names the separation
    if design == "perfect":
        plan = perfect_plan(grid=grid)
    else:
        plan = plan_piaacmc if design == "piaacmc" else plan_vortex
    r = separation_from_sigma_units(30.0)
    with pytest.raises(ValueError, match=r"separation 18\.29\d* \(focal units\)"):
        output_state_image(plan, Scene(2.0 * r, 0.0, 0.5), star_only=True)
    with pytest.raises(ValueError, match=r"separation 18\.29"):  # the planet
        output_state_image(plan, Scene(r / 0.8, 0.0, 0.2))
    # the edge itself is inside: a unit source at 13 focal units
    edge = output_state_image(plan, Scene(26.0, math.pi, 0.5), star_only=True)
    assert np.isfinite(edge).all()


def test_pupil_fed_images_build_the_disk_once_per_grid(monkeypatch):
    grid = GridSpec(128, 8.0)
    plan = vortex_plan(grid)
    calls = []

    def counting_disk(g, normalizations=1):
        calls.append(g)
        return optics._pupil_disk(g, normalizations)

    monkeypatch.setattr(coronagraph, "_pupil_disk", counting_disk)
    coronagraph._pupil_source.cache_clear()
    try:
        for r in (0.3, 0.7, 1.1):
            output_state_image(plan, Scene(r, 5.0, 0.2))
        output_state_image(plan, Scene(0.5, 1.0, 0.1), star_only=True)
    finally:
        coronagraph._pupil_source.cache_clear()
    assert calls == [grid]


@pytest.mark.parametrize(
    "grid_args", [(1024, 16.0), (256, 8.0), (128, 8.0), (96, 5.0), (64, 4.0), (40, 3.0)]
)
def test_pupil_source_is_the_normalized_disk_field(grid_args):
    # the vortex rows move by 1.9e-6 relative when the disk moves by one
    # ulp, so the disk built on its coverage box is the box of the
    # full-grid complex disk, normalized once more, bit for bit: the real
    # and imaginary parts and their signs.  The reference is the complex
    # cast of the coverage divided by sqrt(pi), which pupil_disk_field
    # matches bit for bit too
    grid = GridSpec(*grid_args)
    box, disk, x, y = _pupil_source(grid)
    part, cov_box = _disk_coverage(grid, 1.0)
    cov = np.zeros((grid.n_pixels, grid.n_pixels))
    cov[cov_box] = part
    field = OpticalField(cov.astype(complex) / math.sqrt(math.pi), "pupil", grid.half_width)
    field = field.normalized()
    assert np.array_equal(pupil_disk_field(grid).samples.view(np.float64), field.samples.view(np.float64))
    full = field.normalized().samples
    assert _bounding_box(full != 0.0) == box
    assert disk.dtype == complex
    assert np.array_equal(disk.view(np.float64), full[box].view(np.float64))
    assert np.array_equal(np.signbit(disk.view(np.float64)), np.signbit(full[box].view(np.float64)))
    ax = grid.axis()
    assert np.array_equal(x, np.broadcast_to(ax[box[1]], x.shape))
    assert np.array_equal(y, np.broadcast_to(ax[box[0], None], y.shape))


def test_pupil_source_memory(grid):
    # the disk is built on its coverage box, and its two norms are summed
    # on one real full-grid buffer (8 MiB): 8.5 MiB of tracemalloc on the
    # default grid, where the full-grid complex disk took 40.0 MiB
    coronagraph._pupil_source.cache_clear()
    tracemalloc.start()
    try:
        _pupil_source(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


def test_pupil_box_is_the_joint_support_of_the_pupil_elements(plan_vortex, plan_piaacmc, grid):
    # the Lyot stop's 63 x 63 pixels on the default grid; the PIAACMC
    # apodizers share the stop's support
    n = grid.n_pixels
    box = _bounding_box(embed(*lyot_stop_array(grid), n) > 0.0)
    assert (box[0].stop - box[0].start, box[1].stop - box[1].start) == (63, 63)
    for plan in (plan_vortex, plan_piaacmc):
        pupil = [
            embed(arr, at, n) != 0.0 for kind, arr, at in plan.elements if kind != "focal_mask"
        ]
        assert plan.pupil_box == _bounding_box(np.any(pupil, axis=0)) == box
    assert plan_vortex.pupil_box is plan_vortex.pupil_box
    assert perfect_plan(grid=GridSpec(64, 4.0)).pupil_box is None


def _reachable_arrays(obj):
    """The base arrays reachable from ``obj``: through its attributes and
    containers, and through the closures and partials of its steps."""
    seen, found, todo = set(), {}, [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            found[id(item)] = item
        elif isinstance(item, types.FunctionType):  # its closure, not its module
            todo.extend(cell.cell_contents for cell in item.__closure__ or ())
        else:
            todo.extend(gc.get_referents(item))
    return list(found.values())


def test_plans_hold_only_what_their_chains_read(plan_vortex, plan_piaacmc, grid):
    # after construction and a rendered image, which builds the box steps:
    # a PIAACMC plan holds its elements on the Lyot and spot boxes and no
    # full-grid array; a vortex plan holds one, the spiral phase that its
    # first image built
    scene = Scene(0.7, 5.0, 0.2)
    n2 = grid.n_pixels**2
    for plan in (plan_vortex, plan_piaacmc):
        output_state_image(plan, scene, star_only=True)
    assert plan_piaacmc._box_chain and plan_vortex._box_chain
    assert [a for a in _reachable_arrays(plan_piaacmc) if a.size >= n2] == []
    big = [a for a in _reachable_arrays(plan_vortex) if a.size >= n2]
    assert len(big) == 1 and big[0] is plan_vortex.spiral_phase
    assert plan_vortex.spiral_phase.shape == (grid.n_pixels, grid.n_pixels)


# ---------------------------------------------------------------------------
# perfect design


def test_perfect_plan_keeps_a_real_projector(grid):
    # the default fundamental is the real Airy field, and the projector
    # keeps its dtype: a real 8 MiB array, built at 16.0 MiB of
    # tracemalloc, the field and its normalized copy, since the sampler
    # takes its radii in row blocks (17.0 MiB with a full-grid radius
    # buffer, 32.0 MiB with the complex copy).  A complex fundamental gives
    # a complex projector
    tracemalloc.start()
    try:
        plan = perfect_plan(grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.projector.dtype == np.float64
    assert plan.projector.nbytes == 8 * 2**20
    assert peak <= 16.5 * 2**20
    small = GridSpec(64, 4.0)
    fundamental = OpticalField(psf_field(small).samples * 1j, "focal", small.half_width)
    assert perfect_plan(fundamental, small).projector.dtype == complex


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


def _brent_cases():
    """(f, a, b) triples: smooth, flat, steep, polynomial and tangent roots."""
    rng = np.random.default_rng(5)
    cases = [
        (lambda x: x**3 - 2.0 * x - 5.0, 0.0, 3.0),
        (lambda x: math.cos(x) - x, -1.0, 2.0),
        (lambda x: math.exp(x) - 3.0, 0.0, 2.0),
        (lambda x: (x - 1e-3) ** 5, -5.0, 5.0),
        (lambda x: math.tanh(50.0 * (x - 0.123)), 0.1, 10.0),
        (lambda x: x - 0.25, 0.0, 0.5),  # the midpoint is the root
        (lambda x: x, 0.0, 1.0),  # f(a) == 0
    ]
    for _ in range(40):
        c = rng.standard_normal(4)
        a, b = sorted(rng.uniform(-3.0, 3.0, 2))
        poly = lambda x, c=c: ((c[0] * x + c[1]) * x + c[2]) * x + c[3]  # noqa: E731
        if poly(a) * poly(b) < 0.0:
            cases.append((poly, a, b))
    return cases


@pytest.mark.parametrize("xtol", [5e-324, 2e-12, 1e-12, 5e-7, 1e-3])
def test_brent_port_matches_scipy_brentq(xtol):
    from scipy.optimize import brentq

    for f, a, b in _brent_cases():
        ref, info = brentq(f, a, b, xtol=xtol, full_output=True, disp=False)
        if info.converged:
            assert _brentq(f, a, b, xtol) == ref
        else:  # the steep quintic at the smallest xtol: the same last point
            with pytest.raises(RuntimeError, match=re.escape(f"value is {ref!r}") + "$"):
                _brentq(f, a, b, xtol)
    # a bracket without a sign change and a NaN end with scipy's ValueError
    for root in (_brentq, lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol)):
        with pytest.raises(ValueError, match="different signs"):
            root(f, 3.0, 4.0, xtol)
        with pytest.raises(ValueError, match="NaN"):
            root(lambda x: math.nan, 0.0, 1.0, xtol)


def test_brent_port_matches_scipy_at_both_call_sites(monkeypatch):
    # the critical bandwidth and the default-grid spot radius, with the
    # port and with scipy's brentq in its place: the same floats
    from scipy.optimize import brentq

    ported = (prolate_c_star(), piaacmc_design().mask_radius)
    monkeypatch.setattr(coronagraph, "_brentq", lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol))
    prolate_c_star.cache_clear()
    try:
        reference = (prolate_c_star(), piaacmc_design().mask_radius)
    finally:
        prolate_c_star.cache_clear()
    assert ported == reference
    assert all(type(v) is float for v in ported)


def test_piaacmc_design_scalars(grid):
    d = piaacmc_design(grid)
    assert abs(d.c_value - prolate_c_star()) <= 1e-15
    assert abs(d.mask_radius - 0.2698608241) <= 2e-6
    assert abs(d.gamma_grid - 0.5) <= 1e-4
    assert abs(d.gamma_grid - 0.49999199569048) <= 1e-8


def test_piaacmc_design_arrays(grid):
    # the arrays come on the Lyot stop's box and the spot's 19 x 19 box;
    # on the grid, a pupil array is zero off its box and the mask one
    d = piaacmc_design(grid)
    n = grid.n_pixels
    apodizer, lyot_stop, inverse_apodizer, profile = (
        embed(a, d.box, n)
        for a in (d.apodizer, d.lyot_stop, d.inverse_apodizer, d.apodized_profile)
    )
    focal_mask = embed(d.focal_mask, d.spot_box, n, 1.0)
    assert [s.stop - s.start for s in d.spot_box] == [19, 19]
    support = lyot_stop > 0.0
    assert np.array_equal(lyot_stop, embed(*lyot_stop_array(grid), n))
    # pi-phase spot: -1 inside, +1 outside, fractional only on the rim
    assert focal_mask.min() >= -1.0 and focal_mask.max() <= 1.0
    assert float(np.mean(np.abs(focal_mask) == 1.0)) >= 0.999
    # remap strengths stay order one and invert exactly on the support
    assert 0.82 <= apodizer[support].min() <= 0.86
    assert 1.17 <= apodizer[support].max() <= 1.20
    prod = apodizer[support] * inverse_apodizer[support]
    assert np.max(np.abs(prod - 1.0)) <= 1e-12
    assert np.all(apodizer[~support] == 0.0)
    # the apodized profile carries unit energy on the grid
    energy = float(np.sum(profile**2)) * grid.dx**2
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
    energy = float(np.sum(embed(d.apodized_profile, d.box, 512) ** 2)) * d.grid.dx**2
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
    n = grid.n_pixels
    c = prolate_c_star()
    stop, box = lyot_stop_array(grid)
    full_stop = embed(stop, box, n) > 0.0
    assert box == _bounding_box(full_stop)
    seed = _prolate_seed(grid, box, stop > 0.0, c, prolate_radial(c))
    values, window = _disk_coverage(grid.conjugate(), 0.27, 32)
    spot = embed(values, window, n)
    # one full-grid round trip: propagate, spot, inverse_propagate
    full = np.zeros((n, n))
    full[box] = seed
    foc = propagate(OpticalField(full, "pupil", grid.half_width))
    back = inverse_propagate(OpticalField(foc.samples * spot, "focal", foc.half_width))
    assert back.half_width == grid.half_width
    windowed = np.zeros_like(back.samples)
    windowed[box] = _spot_roundtrip(grid, box, *_cut_to_support(values, window))(seed)
    assert np.max(np.abs(windowed - back.samples) * full_stop) <= 1e-13
    # the round trip is not trivially small on the support
    assert np.max(np.abs(back.samples[full_stop])) >= 0.1


def test_piaacmc_design_runs_no_fft(monkeypatch):
    calls = _counting_fft(monkeypatch)
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
    # three point sources and a seeded complex combination of a few modes,
    # ring-like and of mixed angular order
    rng = np.random.default_rng(7)
    fields = [shifted_source_field((r, 0.0), grid) for r in (0.3, 1.0, 3.0)]
    modes = (0, 4, 12, 27)
    co = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    samples = sum(c * stack6.field(k).samples for c, k in zip(co, modes))
    fields.append(OpticalField(samples, "focal", grid.half_width).normalized())
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


def test_extraction_rejects_a_leading_mask_other_than_the_vortex_phase():
    # extraction enters the vortex mask as the angular-order shift of its
    # charge, so a plan's image and its extraction read one mask: a leading
    # focal mask given as an array, the vortex phase's conjugate here, is
    # refused when the plan is made, and extraction builds no phase
    grid = GridSpec(64, 7.3)
    vortex = vortex_plan(grid)
    whole = (slice(0, grid.n_pixels),) * 2
    conjugate = ("focal_mask", vortex.spiral_phase.conj(), whole)
    with pytest.raises(ValueError, match="leading vortex mask is given by its charge"):
        PropagatorPlan("x", grid, (conjugate,) + vortex.elements)
    plan = vortex_plan(grid)
    extract_operator(plan, FourierZernikeBasis(1))
    assert "spiral_phase" not in vars(plan)


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
    """Oracle: every mode through the full-grid chain, projected on the stack.

    The chain is ``_reference_apply`` (numpy's fft2 and ifft2 on the whole
    grid), so the oracle shares no code with the box steps it checks.
    """
    brute = np.empty((stack.count, stack.count), dtype=complex)
    for k in range(stack.count):
        chi = stack.field(k)
        fin = chi.samples
        if plan.input_domain == "pupil":
            fin = _reference_cross(fin, chi.half_width, True)[0]
        out, half_width = _reference_apply(plan, fin)
        brute[:, k] = stack.project(OpticalField(out, "focal", half_width))
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


@pytest.mark.parametrize("rotation", [0.0, 0.1])
@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("grid_args", [(64, 7.3), (300, 8.0)])
def test_vortex_shift_matches_full_grid_chain(grid_args, n_max, rotation):
    # the vortex's leading mask enters extraction as the angular-order
    # shift of e^{2 i phi} plus a rank-one term for the centre pixel, where
    # the plan's phase is 0: at n_max 0 that pixel holds the on-axis
    # sample of the one mode.  The 151 quadrant rows of the 300-pixel grid
    # end in a partial block
    plan = vortex_plan(GridSpec(*grid_args))
    basis = FourierZernikeBasis(n_max, rotation)
    fields, matrix = _chain_matrix(plan, basis)
    brute = _full_grid_matrix(plan, fields)
    assert np.max(np.abs(matrix - brute)) <= 1e-13
    if grid_args[0] == 300:
        blocks = fields._raw_blocks(coronagraph.VORTEX_CHARGE)
        sizes = [rows.stop - rows.start for rows, _ in blocks]
        assert sizes[-1] < sizes[0]


def test_odd_kernels_keep_their_real_edge_entries(monkeypatch):
    # folded onto the quadrant with parity -1 a kernel reads K(+u) - K(-u),
    # imaginary, except at u = 0, which is one pixel (K(0) = 1), and at
    # u = n/2, whose only pixel is -n/2: -K(-n/2) = -(-1)^k, real.  The
    # even fold is real
    n = 64
    kernel = coronagraph._centered_dft_matrix(n, slice(0, n), slice(0, n)).conj()
    quadrant = slice(0, n // 2 + 1)
    even = coronagraph._fold_rows(kernel.T, quadrant, 1).T
    odd = coronagraph._fold_rows(kernel.T, quadrant, -1).T
    assert np.max(np.abs(even.imag)) <= 1e-15
    assert np.max(np.abs(odd[:, 1:-1].real)) <= 1e-15
    assert np.array_equal(odd[:, 0], np.ones(n))
    assert np.max(np.abs(odd[:, -1] + (-1.0) ** (np.arange(n) - n // 2))) <= 1e-15
    # without the entry at -n/2 the vortex chain misses the unpaired column,
    # by 1.9e-3 here
    plan = vortex_plan(GridSpec(64, 7.3))
    fields, matrix = _chain_matrix(plan, FourierZernikeBasis(2))
    brute = _full_grid_matrix(plan, fields)
    fold = coronagraph._fold_rows

    def without_the_edge(a, rows, parity):
        out = fold(a, rows, parity)
        if parity < 0:
            out[rows.stop - 1 - rows.start] = 0.0
        return out

    monkeypatch.setattr(coronagraph, "_fold_rows", without_the_edge)
    assert np.max(np.abs(_chain_matrix(plan, fields)[1] - brute)) > 1e-4


def test_extraction_with_an_empty_stop():
    # no pixel of GridSpec(8, 16) lies inside the unit disk: nothing passes
    op = extract_operator(vortex_plan(GridSpec(8, 16.0)), FourierZernikeBasis(0))
    assert np.array_equal(op.transmissions, np.zeros(1))


def test_extraction_runs_no_fft(monkeypatch):
    grid = GridSpec(256, 8.0)
    stack = mode_field_stack(FourierZernikeBasis(2), grid)
    plans = (perfect_plan(stack.field(0), grid), piaacmc_plan(grid), vortex_plan(grid))
    calls = _counting_fft(monkeypatch)
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
    # each mode is sampled once, in blocks of quadrant rows, and no stack is
    # kept: the float32 n6 stack alone was 112 MiB.  Measured 15.3 MiB of
    # tracemalloc, the post-pass, with 1.7 MiB of margin here; 23.6 MiB
    # with 32-row blocks, a one-call radial table and box sums and chain
    # inputs formed whole, 28.6 MiB when every block spanned whole grid
    # rows and the pass held a full-grid radius map
    plan = vortex_plan()
    tracemalloc.start()
    try:
        extract_operator(plan, FourierZernikeBasis(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 2**20


def test_extraction_holds_no_order_sized_array_beyond_its_own():
    # the order-sized arrays of a vortex extraction are the tables, the
    # box transforms of the sampled functions (raw_inputs), the modes' own
    # (inputs) and the chain's outputs: the box sums, the starts and the
    # conjugate in M take no fresh copies.  The 31 x 31 box of a 128-pixel
    # grid puts inputs and outputs (7.1 MB at n20) above one pass block
    # (3.8 MB), and the count x count and count x functions matrices of the
    # set and its shifted mix, 3.4 MB measured, fit in the margin of four
    # count x functions complex arrays.  With three more inputs-sized
    # arrays and a fresh box sum per block it read 22.0 MB, against 15.0
    plan = vortex_plan(GridSpec(128, 4.0))
    plan._box_chain
    basis = FourierZernikeBasis(20)
    functions, _ = _pass_layout(basis.n_max, plan.charge)
    box = plan.pupil_box
    box_pixels = (box[0].stop - box[0].start) * (box[1].stop - box[1].start)
    tracemalloc.start()
    try:
        fields, _ = _chain_matrix(plan, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = fields.radial.nbytes + fields.radius_index.nbytes
    held = tables + (len(functions) + 2 * basis.count) * box_pixels * 16
    assert box_pixels == 31 * 31
    assert peak <= held + 4 * basis.count * len(functions) * 16


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
    # |direct - modal| / |direct| for the modal output sum_k c_k chi_k,
    # taken in coefficient space: the modes are orthonormal on the grid, so
    # |direct - modal|^2 = |direct|^2 - 2 Re <modal, direct> + |c|^2.  The
    # perfect chain's error cancels to its floor there, at most 4.5e-8
    chi = shifted_source_field(shift, grid)
    fin = inverse_propagate(chi) if plan.input_domain == "pupil" else chi
    direct = plan.apply(fin)
    stack = op.fields
    c = op.apply_coefficients(stack.project(chi))
    cross = float(np.vdot(c, stack.project(direct)).real)
    energy = direct.norm() ** 2
    return math.sqrt(abs(energy - 2.0 * cross + float(np.vdot(c, c).real)) / energy)


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


# ---------------------------------------------------------------------------
# imaging


def test_output_state_image_star_suppression(grid):
    # measured 2.4e-19 through the plan
    sc = Scene(r_delta=0.2 * AIRY_SIGMA, phi_delta=0.0, b=1e-9)
    star = output_state_image(perfect_plan(grid=grid), sc, star_only=True)
    assert star.max() <= 1e-8


def test_output_state_image_two_lobes(grid):
    sc = Scene(r_delta=0.2 * AIRY_SIGMA, phi_delta=0.0, b=1e-9)
    img = output_state_image(perfect_plan(grid=grid), sc)
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
    assert perfect_plan(grid=grid).output_grid == grid
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
    # direct image to 3.7e-4.  The modal side is the detected energy of the
    # operator's output coefficients, which the modes' orthonormality makes
    # the modal image's energy: the gap read 1.8288322873962e-2 either way.
    # This is expected to fail until the contract number is revisited
    sc = Scene(r_delta=AIRY_SIGMA, phi_delta=0.3, b=0.1)
    e_modal = (1.0 - sc.b) * _modal_energy(op_vortex20, *sc.star_polar)
    e_modal += sc.b * _modal_energy(op_vortex20, *sc.planet_polar)
    direct = output_state_image(plan_vortex, sc)
    e_direct = float(np.sum(direct)) * grid.dx**2
    rel = abs(e_modal - e_direct) / e_direct
    assert rel <= 1e-3, f"relative detected-energy gap {rel:.3e}"
