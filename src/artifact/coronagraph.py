"""Coronagraph chain models, modal extraction, and output-state imaging.

Three stellar-rejection designs share one propagation backbone:

* ``perfect``: rank-one rejection in the focal plane, removing the
  component along the fundamental mode and passing everything else.
* ``piaacmc``: prolate-apodized pupil remap, a pi-phase focal spot, a
  Lyot stop, and the inverse remap.  The apodization is the leading
  eigenfunction of the finite Fourier transform over the aperture
  support; the spot radius is tuned so the on-axis Lyot field vanishes.
* ``vortex``: a charge-2 spiral phase in the focal plane followed by a
  Lyot stop; on-axis light diffracts outside the clear aperture.

A chain is a ``PropagatorPlan`` in one of the three designs' layouts,
holding each element on the box where it acts.
``extract_operator`` compresses a plan onto a truncated mode basis and
factors it into singular modes with complex per-mode transmissions; the
resulting ``CoronagraphOperator`` applies in coefficient space.
``output_state_image`` renders the detected intensity of a two-point
scene through a plan, the one imaging route: it stages each source first
(a pupil-fed one to its last pupil-plane field on the Lyot box) and then
squares its output in the pass that computes it, so no full-grid complex
output is built and none meets the image.

Extraction never transforms a full grid and holds no mode stack.  The
centered DFT is unitary, so <chi_j, plan(chi_k)> equals an inner product
of F^-1 chi_j with the chain's last pupil-plane field, and that field
vanishes outside the box of the Lyot stop (63 x 63 pixels on the default
1024^2 grid).  Every transform into the box is a matrix Fourier transform
(Soummer et al., Opt. Express 15, 15935 (2007)), summed over blocks of
rows of one grid quadrant while the modes are sampled there, with kernels
folded by the modes' parities: each mode is generated once, and the
orthonormalizing map of the mode set is applied to the box-sized sums.
The vortex's phase enters as a shift of the angular order.  At n_max 6 on
the default grid, measured on a shared 2-core machine, the vortex
extraction from a bare basis takes 0.46 s, the median of 6 fresh
processes (1.11 s when every block spanned whole grid rows and the mask
multiplied each row's kernel), and peaks at 23.6 MiB of ``tracemalloc``
with or without the plan's construction, which samples no phase (28.6
and 44.7 MiB over whole grid rows, when the plan built its phase).
``PropagatorPlan.apply`` runs the same box steps as extraction: from the
first pupil element on it carries a field on the Lyot box and transforms
it to the focal grid once, with full-grid FFTs only for the vortex's
leading mask, pruned to the rows and columns that the chain's supports
leave nonzero.

Mode images can be written as flat binary rasters: a 16 byte header
(little-endian: 4 byte magic ``FR32``, uint32 width, uint32 height,
uint32 zero) followed by width*height float32 samples, row-major with
row 0 first, little-endian.
"""

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0

from .modebasis import (
    ModeFieldSet,
    _fold_products,
    _fold_rows,
    _pass_layout,
    mode_field_stack,
)
from .optics import (
    _CHUNK,
    GridSpec,
    OpticalField,
    _add_intensity,
    _centered_fft,
    _disk_coverage,
    _pupil_disk,
    check_source_in_window,
    psf_field,
    shifted_source_field,
)

__all__ = [
    "ELEMENT_KINDS",
    "RASTER_MAGIC",
    "VORTEX_CHARGE",
    "PropagatorPlan",
    "CoronagraphOperator",
    "PiaacmcDesign",
    "lyot_stop_array",
    "perfect_plan",
    "prolate_radial",
    "prolate_c_star",
    "piaacmc_design",
    "piaacmc_plan",
    "vortex_plan",
    "extract_operator",
    "output_state_image",
    "write_raster",
    "read_raster",
]

ELEMENT_KINDS = ("apodizer", "focal_mask", "lyot_stop", "inverse_apodizer")
RASTER_MAGIC = b"FR32"
VORTEX_CHARGE = 2

_MAX_EXTRACTION_ORDER = 30


# ---------------------------------------------------------------------------
# raster container


def write_raster(path, array):
    """Write a real 2D array as header + row-major little-endian float32.

    Header layout (16 bytes): magic ``FR32``, uint32 width (columns),
    uint32 height (rows), uint32 reserved zero, all little-endian.
    """
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError("raster payload must be a 2D array")
    if np.iscomplexobj(arr):
        raise ValueError("raster payload must be real-valued")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", RASTER_MAGIC, w, h, 0))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_raster(path):
    """Read a raster written by write_raster; returns float32 (height, width)."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16:
            raise ValueError("raster header truncated")
        magic, w, h, reserved = struct.unpack("<4sIII", head)
        if magic != RASTER_MAGIC:
            raise ValueError("bad raster magic %r" % magic)
        if reserved != 0:
            raise ValueError("nonzero reserved header field")
        data = fh.read(4 * w * h)
    if len(data) != 4 * w * h:
        raise ValueError("raster payload truncated")
    return np.frombuffer(data, dtype="<f4").reshape(h, w).astype(np.float32)


# ---------------------------------------------------------------------------
# propagation chains


def lyot_stop_array(grid):
    """Binary unit-disk stop: pixels lying entirely inside the aperture.

    Returns (stop, box): the stop on ``box``, the row and column slices of
    the bounding box of its pixels (63 x 63 on the default grid); the stop
    is zero off it.  Boundary-straddling pixels are excluded; keeping them
    admits the rasterized edge jump of nulled fields at the 1e-3 energy
    level, an order above the nulls the inner rasterization reaches.
    """
    cov, box = _disk_coverage(grid, 1.0)
    return _cut_to_support((cov >= 1.0).astype(float), box)


@dataclass(frozen=True)
class PropagatorPlan:
    """A coronagraph chain in one of the three designs' layouts.

    Elements are (kind, array, box) triples: ``box`` holds row and column
    slices of the grid and ``array`` the element's samples there.  Off its
    box a pupil-plane element (apodizer, lyot_stop, inverse_apodizer) is
    zero and a focal_mask is one, so a plan holds each element only where
    it acts: a PIAACMC plan holds its pupil elements on the Lyot stop's
    63 x 63 box and its spot on a 19 x 19 box on the default grid, and no
    full-grid array.  A nonzero ``charge`` q opens a pupil-fed chain with
    the vortex's spiral mask e^{iq phi} on the whole focal grid
    (``spiral_phase``), which a plan samples (16 MiB on the default grid)
    only when it first renders an image: extraction reads the charge.
    Each element triggers a propagation whenever the running field is in
    the other plane, and the output is always returned in the focal plane.
    Only the designs' layouts are built, others raise ValueError: with a
    ``projector``, which subtracts the component along a fixed focal field,
    the chain is focal-fed and has no elements and no charge (perfect);
    without one it is pupil-fed, a pupil element first (PIAACMC, or the
    vortex after its charge), no two masks side by side, a pupil element
    last, and every pupil element on one box, ``pupil_box``.  The projector is real for
    the default Airy fundamental, and a chain fed real samples keeps them
    real.
    """

    name: str
    grid: GridSpec
    elements: tuple
    projector: np.ndarray = None
    charge: int = 0

    def __post_init__(self):
        n = self.grid.n_pixels
        for kind, arr, box in self.elements:
            if kind not in ELEMENT_KINDS:
                raise ValueError("unknown element kind %r" % kind)
            if not all(0 <= s.start <= s.stop <= n for s in box) or np.shape(arr) != tuple(
                s.stop - s.start for s in box
            ):
                raise ValueError("element %r array must match its box on the grid" % kind)
        if self.projector is not None and self.projector.shape != (n, n):
            raise ValueError("projector must match the grid")
        kinds = [kind for kind, _, _ in self.elements]
        pupil_boxes = [box for kind, _, box in self.elements if kind != "focal_mask"]
        if self.projector is not None:
            if kinds or self.charge:
                raise ValueError("a focal-fed plan takes a projector and no elements or charge")
        elif set(kinds) <= {"focal_mask"}:
            raise ValueError("a pupil-fed plan needs a pupil-plane element")
        elif ("focal_mask", "focal_mask") in zip(kinds, kinds[1:]):
            raise ValueError("two focal masks side by side")
        elif kinds[-1] == "focal_mask":
            raise ValueError("the chain must end in a pupil-plane element")
        elif any(box != pupil_boxes[0] for box in pupil_boxes):
            raise ValueError("the pupil-plane elements must share one box")
        elif kinds[0] == "focal_mask":
            raise ValueError(
                "a pupil-fed chain opens with a pupil-plane element; a leading "
                "vortex mask is given by its charge"
            )

    @property
    def input_domain(self):
        """The plane a chain is fed in: "focal" with a projector, else "pupil"."""
        return "pupil" if self.projector is None else "focal"

    @property
    def output_grid(self):
        """Grid of the focal field that apply returns.

        A focal-fed chain returns on the plan grid; a pupil-fed chain
        crosses an odd number of Fourier transforms and returns on the
        FFT-conjugate grid.  The two coincide on self-conjugate grids such
        as the default one.
        """
        return self.grid if self.input_domain == "focal" else self.grid.conjugate()

    @property
    def pupil_box(self):
        """Row and column slices of the box that the pupil elements share.

        None for a chain without pupil elements.  A pupil-plane field is
        zero off this box once it has met a pupil element: the Lyot stop's
        63 x 63 pixels on the default grid for the vortex and PIAACMC
        chains, the bounding box of their elements' joint support.
        """
        return next((box for kind, _, box in self.elements if kind != "focal_mask"), None)

    @functools.cached_property
    def _box_chain(self):
        """A pupil-fed chain's elements in their box form, built once per plan.

        One ``_box_step`` per element, each mapping a pupil field on
        ``pupil_box`` to the next; ``apply`` and ``_chain_matrix`` both run
        these steps.  The charge's spiral mask is not among them.
        """
        return tuple(_box_step(*element, self.grid, self.pupil_box) for element in self.elements)

    @functools.cached_property
    def spiral_phase(self):
        """The leading focal mask e^{i charge phi} on the whole grid, built on first use.

        Sampled at pixel centres with the singular centre pixel zeroed.
        The mesh's angles come from broadcast axes in blocks of _CHUNK
        rows, and each block's product and exp run in the phase's own rows:
        the values of exp(1j * charge * arctan2(y, x)) on the mesh, bit for
        bit.  On the default grid the build peaks at 16.6 MiB of
        ``tracemalloc``, the 16 MiB held from then on and one block of
        angles (24.1 MiB when the angles came whole).
        """
        ax = self.grid.axis()
        n = self.grid.n_pixels
        phase = np.empty((n, n), dtype=complex)
        for start in range(0, n, _CHUNK):
            rows = slice(start, start + _CHUNK)
            block = phase[rows]
            np.multiply(1j * self.charge, np.arctan2(ax[rows, None], ax), out=block, dtype=complex)
            np.exp(block, out=block)
        phase[n // 2, n // 2] = 0.0
        return phase

    def apply(self, field):
        """Run the chain on one field; linear; returns a focal-plane field.

        From the first pupil element on, the field is carried on
        ``pupil_box`` through the plan's box steps, and one transform takes
        it to the focal grid at the end; that transform's row pass runs on
        the box rows alone.  A focal mask between pupil elements acts there
        as a windowed matrix Fourier round trip (``_box_step``), so its
        output agrees with the full-grid chain to rounding, within 1e-13 of
        the largest output sample: one FFT renders a PIAACMC image.  The
        vortex's spiral mask multiplies on the whole grid, and its three
        FFTs give the full-grid chain's samples bit for bit.  The input is
        read in place, not copied (``_run``).  A pupil-fed chain runs in the
        two steps that images take, ``_stage`` and then ``_render``.
        """
        if field.domain != self.input_domain:
            raise ValueError(
                "plan %r expects a %s-domain field" % (self.name, self.input_domain)
            )
        if field.n_pixels != self.grid.n_pixels or field.half_width != self.grid.half_width:
            raise ValueError("field grid does not match the plan grid")
        whole = slice(0, self.grid.n_pixels)
        return self._run(field.samples, (whole, whole))

    def _run(self, block, at, accumulate=None):
        """The chain on an input given as its ``block`` on the box ``at``.

        ``at`` holds row and column slices of the plan grid; the input is
        zero off them.  A pupil-fed chain runs ``_stage`` and then
        ``_render``; the perfect chain takes the whole grid.  With
        ``accumulate`` = (image, weight) the output is squared in the pass
        that computes it and weight times it is added into the real
        ``image`` (``optics._add_intensity``), which is returned: the
        column batches of the last transform, or row batches of the perfect
        chain's difference.

        The perfect chain's coefficient c = <p, s> dx^2 is einsum's
        elementwise-product sum, whose order does not depend on the BLAS
        build or its thread count, and its arithmetic is real for a real
        projector and source: on the default grid a source and the
        projector are 8 MiB each.
        """
        if self.input_domain == "pupil":
            return self._render(self._stage(block, at), accumulate)
        grid = self.grid
        # block - c * projector; the operand order of the product matters,
        # since numpy's complex multiply does not round the imaginary part
        # symmetrically
        c = np.einsum("ij,ij->", self.projector.conj(), block) * grid.dx * grid.dx
        if accumulate is None:
            samples = c * self.projector
            np.subtract(block, samples, out=samples)
            return OpticalField(samples, "focal", grid.half_width)
        image, weight = accumulate
        for start in range(0, grid.n_pixels, _CHUNK):
            rows = slice(start, start + _CHUNK)
            part = c * self.projector[rows]
            np.subtract(block[rows], part, out=part)
            _add_intensity(image[rows], part, weight)
        return image

    def _stage(self, block, at):
        """A pupil-fed chain up to its last pupil-plane field, on ``pupil_box``.

        The input is its ``block`` on the box ``at``, as in ``_run``.  The
        vortex transforms from ``at``, masks in place and transforms back
        to ``pupil_box`` alone, which frees its focal field (16 MiB complex
        on the default grid) before this returns; PIAACMC cuts the input
        to ``pupil_box``, inside ``at``.  Then the plan's box steps run.
        The result is box-sized, 63 x 63 complex samples on the default
        grid, and ``_render`` takes it to the focal plane.
        """
        box = self.pupil_box
        if not self.charge:
            v = block[tuple(slice(b.start - a.start, b.stop - a.start) for a, b in zip(at, box))]
        else:
            # the phase first: a first image builds it before its focal
            # field exists, so its scratch angles add nothing to the peak
            phase = self.spiral_phase
            # propagate; the transform is this call's own, so mask it in place
            focal = _centered_fft(block, self.grid.dx, at=(at, self.grid.n_pixels))
            focal *= phase
            v = _centered_fft(focal, self.grid.conjugate().dx, inverse=True, box=box)
            del focal  # no full-grid field outlives the box
        for step in self._box_chain:
            v = step(v)
        return v

    def _render(self, v, accumulate=None):
        """The last transform of a pupil-fed chain: ``_stage``'s box field to the focal grid.

        The row pass runs on the box rows alone.  Returns the focal field,
        labelled with ``output_grid``, which three crossings miss on
        GridSpec(40, 3.0), or with ``accumulate`` the image (``_run``).
        """
        # each transform runs at its own plane's pitch: after the vortex's
        # round trip that is the conjugate grid's conjugate
        grid = self.grid.conjugate().conjugate() if self.charge else self.grid
        samples = _centered_fft(
            v, grid.dx, at=(self.pupil_box, grid.n_pixels), accumulate=accumulate
        )
        if accumulate is not None:
            return samples
        return OpticalField(samples, "focal", self.output_grid.half_width)

    def _stage_source(self, polar):
        """A unit point source at ``polar`` made ready for ``_render_source``.

        The source must keep the margin of ``check_source_in_window``.  A
        pupil-fed source is the tilted aperture field on the disk's box
        (65 x 65 pixels on the default grid), run to its last pupil-plane
        field (``_stage``): a round trip through the focal grid would add
        ~1e-3 sampling error on top of the chain's own null floor.  A
        focal-fed source stays its position, since it is sampled on the
        whole grid (8 MiB on the default one) only when it is rendered.
        """
        r, phi = polar
        check_source_in_window(r, self.output_grid)
        if self.input_domain == "focal":
            return polar
        box, disk, x, y = _pupil_source(self.grid)
        tilt = np.exp(2j * math.pi * r * (x * math.cos(phi) + y * math.sin(phi)))
        # the source enters the chain on the disk's box, around the stop's
        return self._stage(disk * tilt, box)

    def _render_source(self, state, image, weight):
        """Add weight times the intensity of a staged source into ``image``."""
        if self.input_domain == "pupil":
            self._render(state, (image, weight))
            return
        r, phi = state
        source = shifted_source_field((r * math.cos(phi), r * math.sin(phi)), self.grid)
        whole = slice(0, self.grid.n_pixels)
        self._run(source.samples, (whole, whole), (image, weight))


def perfect_plan(fundamental=None, grid=None):
    """Rank-one rejection of the fundamental mode in the focal plane.

    ``fundamental`` defaults to the sampled PSF field.  High-precision
    orthogonality at the mode-stack level needs the stack's own
    fundamental (pass ``stack.field(0)``), whose grid orthonormalization
    differs from the raw PSF samples at the 1e-2 level.  The projector
    keeps the fundamental's dtype: the default is a real 8 MiB array on
    the default grid, whose build peaks at 16.0 MiB of ``tracemalloc``,
    the sampled field and its normalized copy (17.0 MiB with a full-grid
    radius buffer, 32.0 MiB for the complex copy).
    """
    grid = grid or GridSpec()
    if fundamental is None:
        fundamental = psf_field(grid)
    if fundamental.domain != "focal":
        raise ValueError("fundamental must be a focal-domain field")
    if fundamental.grid != grid:
        raise ValueError("fundamental grid does not match")
    proj = np.asarray(fundamental.normalized().samples)
    return PropagatorPlan("perfect", grid, (), proj)


# ---------------------------------------------------------------------------
# prolate apodization design


@functools.cache
def _radial_quadrature():
    """256 Gauss-Legendre nodes and weights on [0, 1], built once per process."""
    x, w = leggauss(256)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def prolate_radial(c):
    """Leading eigenpair of the radial finite-Fourier kernel at bandwidth c.

    Solves (H_c f)(x) = c * int_0^1 J0(c x y) f(y) y dy = gamma f(x) on
    256 Gauss-Legendre nodes by power iteration (to 1e-10 in the vector and
    the eigenvalue, at most 1000 steps) and normalizes the eigenfunction to
    int_0^1 f(x)^2 x dx = 1.  Returns
    (gamma, nodes, weights, values); nodes and weights are read-only.
    """
    if c <= 0:
        raise ValueError("bandwidth c must be positive")
    x, w = _radial_quadrature()
    kernel = c * j0(c * np.outer(x, x)) * (x * w)[None, :]
    v = np.exp(-(x**2))
    v /= math.sqrt(float(v @ v))
    gamma = 0.0
    for _ in range(1000):
        v2 = kernel @ v
        gamma_new = math.sqrt(float(v2 @ v2))
        v2 /= gamma_new
        if np.max(np.abs(v2 - v)) < 1e-10 and abs(gamma_new - gamma) < 1e-10:
            v = v2
            gamma = gamma_new
            break
        v = v2
        gamma = gamma_new
    else:
        raise RuntimeError("radial prolate power iteration did not converge")
    v = v / math.sqrt(float(np.sum(w * x * v * v)))
    if v[0] < 0:
        v = -v
    return gamma, x, w, v


_BRENT_RTOL = 4.0 * math.ulp(1.0)  # scipy's default rtol, 4 eps
_BRENT_MAXITER = 100  # scipy's default maxiter


def _brentq(f, a, b, xtol):
    """A root of f in [a, b] by Brent's method, as scipy 1.17's ``brentq``.

    A port of scipy's ``brentq.c`` with its wrapper's NaN guard, step for
    step and bit for bit at scipy's default rtol: the same inverse
    quadratic interpolation, secant and bisection steps, the same stopping
    test |blk - x| / 2 < (xtol + rtol |x|) / 2, and the same sequence of
    points evaluated.  Where C divides by zero the step is not finite and
    bisection is taken, as it is there.  Raises ValueError when f(a) and
    f(b) share a sign or f gives NaN, and RuntimeError after scipy's
    default 100 iterations, as scipy does.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


@functools.cache
def prolate_c_star():
    """Bandwidth where the leading eigenvalue equals 1/sqrt(2).

    At this bandwidth a pi-phase spot of focal radius c/(2 pi) cancels the
    apodized pupil field exactly in the continuum limit.
    """
    return _brentq(
        lambda c: prolate_radial(c)[0] - 1.0 / math.sqrt(2.0),
        1.2,
        2.2,
        xtol=1e-12,
    )


@dataclass(frozen=True)
class PiaacmcDesign:
    """Element arrays on their boxes plus the scalars that produced them.

    The apodizer, Lyot stop, inverse apodizer and apodized profile are
    given on ``box``, the Lyot stop's box, and are zero off it; the focal
    mask is given on ``spot_box``, the bounding box of the spot, and is
    one off it.
    """

    grid: GridSpec
    c_value: float
    gamma_radial: float
    mask_radius: float
    gamma_grid: float
    box: tuple
    spot_box: tuple
    apodizer: np.ndarray
    focal_mask: np.ndarray
    lyot_stop: np.ndarray
    inverse_apodizer: np.ndarray
    apodized_profile: np.ndarray


_SPOT_SUPERSAMPLE = 32


def _bounding_box(mask):
    """Row and column slices of the smallest box holding every True pixel.

    A mask without a True pixel gives two empty slices.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def _cut_to_support(values, box):
    """Cut ``values``, given on ``box``, to the bounding box of their nonzero samples.

    Returns the cut values, a copy, and their box as row and column slices
    of the grid.
    """
    cut = _bounding_box(values != 0.0)
    return values[cut].copy(), tuple(
        slice(outer.start + inner.start, outer.start + inner.stop) for outer, inner in zip(box, cut)
    )


def _centered_dft_matrix(n, out_idx, in_idx):
    """Kernel exp(-2 pi i (k - n/2)(j - n/2) / n), k in out_idx, j in in_idx.

    These are the rows and columns of the centered n-point DFT that
    ``propagate`` applies along each axis; the integer phase is reduced
    mod n before it is scaled.
    """
    k = np.arange(out_idx.start, out_idx.stop) - n // 2
    j = np.arange(in_idx.start, in_idx.stop) - n // 2
    return np.exp(-2j * math.pi * (np.outer(k, j) % n) / n)


def _spot_roundtrip(grid, box, spot, spot_box):
    """Pupil -> spot -> pupil round trip as a windowed matrix Fourier transform.

    Evaluates inverse_propagate(spot * propagate(v)) on the pupil ``box``
    only, for a field v that vanishes off it, passing through only
    ``spot_box`` on the conjugate grid, where ``spot`` is given; it is zero
    off it (Soummer et al., Opt. Express 15, 15935 (2007)).  ``spot`` may
    be complex.  The separable kernel makes each transform two small
    matrix products, Ey @ V @ Ex.T; the forward one is scaled by the pupil
    dx^2 and the inverse by the conjugate grid's dx^2, as the full-grid
    transforms are.  Returns the map from samples on ``box`` to the
    complex round-trip field on ``box``.
    """
    n = grid.n_pixels
    ey = _centered_dft_matrix(n, spot_box[0], box[0])
    ex = _centered_dft_matrix(n, spot_box[1], box[1])
    ey_inv = ey.conj().T
    ex_inv = ex.conj()
    pupil_area = grid.dx**2
    focal_area = grid.conjugate().dx ** 2

    def step(v):
        foc = (ey @ v @ ex.T) * pupil_area
        return (ey_inv @ (foc * spot) @ ex_inv) * focal_area

    return step


def _prolate_seed(grid, box, support, c, radial):
    """Nystrom extension of the radial eigenfunction onto the stop support.

    Scaled to the unit-energy apodization profile Lambda = f / sqrt(2);
    returned on ``box``, zero off ``support``.
    """
    gamma_r, xq, wq, vq = radial
    ax = grid.axis()
    x, y = np.meshgrid(ax[box[1]], ax[box[0]], indexing="xy")
    rr = np.hypot(x, y)[support]
    acc = np.zeros_like(rr)
    for xj, wj, vj in zip(xq, wq, vq):
        acc += j0(c * rr * xj) * (vj * xj * wj)
    seed = np.zeros(support.shape)
    seed[support] = (c / gamma_r) * acc / math.sqrt(2.0)
    return seed


def _grid_prolate(roundtrip, support, seed, tol):
    """Leading eigenpair of stop . roundtrip restricted to the stop support."""
    v = seed / np.linalg.norm(seed)
    gamma = 0.0
    for _ in range(600):
        w = np.where(support, roundtrip(v).real, 0.0)
        gamma_new = float(v.ravel() @ w.ravel())
        w /= np.linalg.norm(w)
        if np.linalg.norm(w - v) < tol and abs(gamma_new - gamma) < tol:
            return gamma_new, w
        v = w
        gamma = gamma_new
    raise RuntimeError("grid prolate power iteration did not converge")


def piaacmc_design(grid=None):
    """Solve the apodization and spot radius for a grid.

    The radial eigenfunction at the critical bandwidth seeds a power
    iteration of the discrete pupil->spot->pupil operator on the actual
    grid; the spot radius is then root-found so the leading eigenvalue of
    the round trip hits 1/2, which zeroes the stopped on-axis Lyot field
    (I - 2*roundtrip annihilates its gamma=1/2 eigenvector).  The spot is
    rasterized on the FFT-conjugate grid, where the focal mask acts.

    The round trip is the centered DFT that ``propagate`` and
    ``inverse_propagate`` apply, evaluated as a matrix Fourier transform
    (``_spot_roundtrip``) between the bounding box of the Lyot stop (63 x
    63 pixels on the default grid) and that of the spot (19 x 19) instead
    of two full-grid FFTs per iteration; no FFT runs during the solve.
    Each power iteration starts from the previous eigenvector and runs to
    1e-10 inside the root search, 1e-12 at the final radius.  The solve
    takes about 0.1-0.2 s on the default grid, so it is not cached.  Both
    root searches (here and in ``prolate_c_star``) run ``_brentq``, a port
    of scipy's ``brentq`` that gives its roots bit for bit, so the solve
    imports none of scipy's optimizers.  Every array is built and returned
    on its box, the Lyot stop's or the spot's; none spans the grid.
    """
    grid = grid or GridSpec()
    c = prolate_c_star()
    radial = prolate_radial(c)
    stop, box = lyot_stop_array(grid)
    support = stop > 0.0
    focal = grid.conjugate()
    state = {"v": _prolate_seed(grid, box, support, c, radial)}

    def eigen_at(radius, it_tol):
        spot, spot_box = _cut_to_support(*_disk_coverage(focal, radius, _SPOT_SUPERSAMPLE))
        roundtrip = _spot_roundtrip(grid, box, spot, spot_box)
        gamma, vec = _grid_prolate(roundtrip, support, state["v"], it_tol)
        state["v"] = vec
        return gamma, spot, spot_box

    a0 = c / (2.0 * math.pi)

    def objective(radius):
        return eigen_at(radius, 1e-10)[0] - 0.5

    lo, hi = 0.94 * a0, 1.10 * a0
    ends = {lo: objective(lo), hi: objective(hi)}
    if ends[lo] * ends[hi] > 0.0:
        raise ValueError(
            f"no PIAACMC spot radius on {grid}: gamma - 1/2 is {ends[lo]:.3e} at "
            f"{lo:.6f} and {ends[hi]:.3e} at {hi:.6f}, the ends of the bracket "
            "[0.94, 1.10] c/(2 pi)"
        )
    # Brent's method opens with the two ends; it gets the values just
    # computed, so the warm-started power iterations run in the same order
    # as without them
    mask_radius = _brentq(
        lambda r: ends.pop(r) if r in ends else objective(r), lo, hi, xtol=5e-7
    )
    gamma_g, spot, spot_box = eigen_at(mask_radius, 1e-12)
    profile = state["v"] / (np.linalg.norm(state["v"]) * grid.dx)

    flat = 1.0 / math.sqrt(math.pi)
    apod = np.zeros_like(profile)
    apod[support] = profile[support] / flat
    inv = np.zeros_like(profile)
    inv[support] = flat / profile[support]

    return PiaacmcDesign(
        grid=grid,
        c_value=c,
        gamma_radial=radial[0],
        mask_radius=mask_radius,
        gamma_grid=gamma_g,
        box=box,
        spot_box=spot_box,
        apodizer=apod,
        focal_mask=1.0 - 2.0 * spot,
        lyot_stop=stop,
        inverse_apodizer=inv,
        apodized_profile=profile,
    )


def piaacmc_plan(grid=None):
    """Apodizer, pi-phase spot, Lyot stop, inverse apodizer chain."""
    grid = grid or GridSpec()
    d = piaacmc_design(grid)
    elements = (
        ("apodizer", d.apodizer, d.box),
        ("focal_mask", d.focal_mask, d.spot_box),
        ("lyot_stop", d.lyot_stop, d.box),
        ("inverse_apodizer", d.inverse_apodizer, d.box),
    )
    return PropagatorPlan("piaacmc", grid, elements)


# ---------------------------------------------------------------------------
# vortex


def vortex_plan(grid=None):
    """Spiral focal phase exp(i*VORTEX_CHARGE*phi) followed by the Lyot stop.

    The plan records the charge; its phase, sampled at pixel centers with
    the singular center pixel zeroed, is built when an image first needs
    it (``PropagatorPlan.spiral_phase``).
    """
    grid = grid or GridSpec()
    stop, box = lyot_stop_array(grid)
    elements = (("lyot_stop", stop, box),)
    return PropagatorPlan("vortex", grid, elements, charge=VORTEX_CHARGE)


# ---------------------------------------------------------------------------
# modal extraction


# Transmission sanity ceiling.  The perfect and vortex chains are exact
# contractions, but the multiplicative remap model of the piaacmc chain
# can amplify fields that route energy from high-Lambda to low-Lambda
# regions through the focal spot; its operator norm is bounded by
# max(Lambda)/min(Lambda) ~ 1.40, and mode-restricted gains of ~1.01 are
# observed.  Anything above the ceiling indicates a broken extraction.
_TRANSMISSION_CEILING = 1.45

# functions (or modes) per batch of extraction's box-sized products
_BOX_FUNCTIONS = 16


@dataclass(frozen=True)
class CoronagraphOperator:
    """Singular-mode form sum_k tau_k |chi_k><chi_k| over a mode set.

    ``mode_coefficients`` column k expresses singular mode chi_k in the
    coordinates of ``fields``; transmissions are complex and sorted
    ascending in magnitude.  The perfect and vortex designs are passive
    (|tau| <= 1 to rounding); the piaacmc remap model can exceed 1 by
    about a percent on ring-like modes (see _TRANSMISSION_CEILING).  The
    operator acts in coefficient space only (``apply_coefficients``); images
    come from the plan it was extracted from (``output_state_image``).
    """

    name: str
    fields: ModeFieldSet
    transmissions: np.ndarray
    mode_coefficients: np.ndarray

    def __post_init__(self):
        count = self.fields.count
        if self.transmissions.shape != (count,):
            raise ValueError("one transmission per retained mode required")
        if self.mode_coefficients.shape != (count, count):
            raise ValueError("mode coefficient matrix must be square over the mode set")
        if np.max(np.abs(self.transmissions)) > _TRANSMISSION_CEILING:
            raise ValueError("transmissions exceed the remap-model ceiling")

    def apply_coefficients(self, coeffs):
        """Stack coefficients of C applied to a field with given coefficients."""
        v = self.mode_coefficients
        z = v.conj().T @ np.asarray(coeffs, dtype=complex)
        return v @ (self.transmissions * z)


def _rows_to_box(n, box, focal_dx, groups):
    """inverse_propagate from the quadrant rows of a pass onto a pupil ``box``, as an MFT.

    Returns step(rows, block, out): for a real (k, rows x (n/2 + 1)) block
    of samples on the quadrant rows ``rows`` (``ModeFieldSet._raw_blocks``),
    whose row runs ``groups`` list with their parities, it adds to the
    complex (k, box rows, box cols) ``out`` the share of those rows in the
    k inverse transforms on ``box`` of the fields that the samples unfold
    to on the grid; summed over the blocks of a pass it is
    ``inverse_propagate`` there, scaled by the focal dx^2 as that is.
    Each axis's kernel is folded onto the quadrant with the parity,
    K(+u) + parity K(-u) (``_fold_rows``), so the unpaired offset -n/2
    enters as parity K(-n/2), which is real.  The column transform comes
    first, one real product per run against the kernel's interleaved real
    and imaginary parts, then the rows, _BOX_FUNCTIONS functions at a
    time: a step holds no box-sized array of its own beyond one such
    batch.
    """
    quadrant = slice(0, n // 2 + 1)
    ey = _centered_dft_matrix(n, box[0], slice(0, n)).conj() * focal_dx**2
    ex = _centered_dft_matrix(n, box[1], slice(0, n)).conj()
    ky = {p: np.ascontiguousarray(_fold_rows(ey.T, quadrant, p).T) for p in (1, -1)}
    kx = {p: _fold_rows(ex.T, quadrant, p).view(np.float64) for p in (1, -1)}
    cols = ex.shape[0]

    def step(rows, block, out):
        r = rows.stop - rows.start
        for run, px, py in groups:
            row_kernel = ky[py][:, rows]
            for lo in range(run.start, run.stop, _BOX_FUNCTIONS):
                batch = slice(lo, min(lo + _BOX_FUNCTIONS, run.stop))
                part = block[batch].reshape(-1, kx[px].shape[0])
                t = (part @ kx[px]).view(complex).reshape(batch.stop - lo, r, cols)
                out[batch] += row_kernel @ t

    return step


def _mix_modes(transform, raw):
    """transform applied over the leading (mode) axis of a complex array."""
    flat = np.ascontiguousarray(raw).reshape(raw.shape[0], -1).view(np.float64)
    return (transform @ flat).view(complex).reshape(raw.shape)


def _box_step(kind, arr, at, pupil_grid, box):
    """One element acting on a pupil field that vanishes off ``box``.

    The element is given as ``arr`` on the box ``at``.  A pupil element
    lies on ``box`` itself and multiplies there.  A focal
    element 1 - w maps v to v - F^-1(w F v), whose second term
    ``_spot_roundtrip`` evaluates on the box through ``at``, off which w
    is zero (the 19 x 19 spot box of the PIAACMC chain on the default
    grid); the pupil element that every plan puts after it zeroes the
    round trip off the box.  The round trip is a matrix Fourier transform,
    not the FFT pair, so it agrees with the full-grid chain to rounding
    (about 1e-16 of the field), not bit for bit.  ``PropagatorPlan`` builds
    these steps once per plan.
    """
    if kind != "focal_mask":
        return functools.partial(np.multiply, arr)
    roundtrip = _spot_roundtrip(pupil_grid, box, 1.0 - arr, at)
    return lambda v: v - roundtrip(v)


def _chain_matrix(plan, basis):
    """Sample the modes once and compress a plan onto them: (fields, M).

    M_jk = <chi_j, plan(chi_k)>, with a pupil-fed plan fed F^-1 chi_k.
    ``basis`` is a FourierZernikeBasis, sampled on ``plan.output_grid`` by
    ``mode_field_stack``, or a prebuilt ModeFieldSet there.  Either way one
    pass over the raw samples B on one quadrant of the grid
    (``ModeFieldSet._raw_blocks``) sums what M needs, and the set's map
    from B to chi is applied to those sums afterwards, on the small side.

    The perfect chain is the Gram matrix of chi less a_j <p, chi_k> for
    its projector p, where a = <chi, p>: the set's own Gram matrix
    (``ModeFieldSet.gram``), and one sum of p, real or complex as it is,
    against the raw samples, folded onto the quadrant (``_fold_products``).
    A pupil-fed chain starts from chi_k in the focal plane.  Every pupil
    element vanishes outside one box, the bounding box of their joint
    support, so from the first pupil element on the field is carried on
    that box only, through the plan's box steps, the ones
    ``PropagatorPlan.apply`` runs (``_box_step``).  The pass sums the
    folded MFTs of the raw samples onto the box (``_rows_to_box``).  The
    vortex's leading mask e^{iq phi}, q = ``plan.charge``, shifts the
    angular order: e^{iq phi} Theta_m is a sum of Theta_{m'} with
    |m'| = |m +- q|, so the pass also samples the functions R_n Theta_{m'}
    with |m'| > n, and each masked mode's transform is a sum of the same
    transforms, less the centre pixel, where the plan's phase is 0 and the
    sampled one is not.  The output is F G_k for the last pupil-plane
    field G_k, and F is unitary, so M_jk = dx_p^2 sum_box
    conj(F^-1 chi_j) G_k.

    Each block's transforms add into ``raw_inputs`` in place.  After the
    pass the starts are formed and run through the box steps
    _BOX_FUNCTIONS modes at a time, and the modes' own transforms
    (``inputs``) are conjugated in place for M, so the box-sized arrays
    held are ``raw_inputs``, ``inputs`` and the outputs G: at n_max 30 on
    the default grid 35.4 + 31.5 + 31.5 MB, where the starts, their
    difference's temporary and the conjugate copy added 94.5 MB more.
    """
    grid = plan.output_grid
    n = grid.n_pixels
    count = basis.count
    n_max = (basis.basis if isinstance(basis, ModeFieldSet) else basis).n_max
    projector = plan.projector
    shift = plan.charge
    if projector is not None:
        # a complex projector's real and imaginary parts side by side: one
        # real product per block either way, and no copy
        proj_parts = np.ascontiguousarray(projector).view(np.float64).reshape(n, n, -1)
        proj_raw = np.zeros((count, proj_parts.shape[2]))
        _, mode_groups = _pass_layout(n_max)
    else:
        steps = plan._box_chain
        box = plan.pupil_box
        functions, groups = _pass_layout(n_max, shift)
        to_box = _rows_to_box(n, box, grid.dx, groups)
        shape = (len(functions), box[0].stop - box[0].start, box[1].stop - box[1].start)
        raw_inputs = np.zeros(shape, dtype=complex)  # F^-1 of each sampled function on the box
        centre = np.empty(len(functions))

    def visit(rows, block):
        if projector is not None:
            proj_raw[...] += _fold_products(proj_parts, rows, block, mode_groups)
            return
        if rows.start == 0:
            centre[...] = block[:, 0]
        to_box(rows, block, raw_inputs)

    if isinstance(basis, ModeFieldSet):
        fields = basis
        for rows, block in fields._raw_blocks(shift):
            visit(rows, block)
    else:
        fields = mode_field_stack(basis, grid, visit, shift)
    mix = fields._mix
    if projector is not None:
        a = (mix @ proj_raw).view(projector.dtype)[:, 0] * grid.dx**2
        matrix = fields.gram().astype(complex)
        matrix -= np.outer(a, a.conj())
        return fields, matrix

    flat = raw_inputs.reshape(len(raw_inputs), -1)
    inputs = _mix_modes(mix, flat[:count])
    if shift:
        masked = fields._shifted_mix(shift)
        # the plan's phase is 0 at the centre pixel, whose kernel entry is 1
        centre_terms = (masked @ centre)[:, None] * grid.dx**2
    outputs = np.empty((count, flat.shape[1]), dtype=complex)  # last pupil-plane field G_k
    for lo in range(0, count, _BOX_FUNCTIONS):
        modes = slice(lo, min(lo + _BOX_FUNCTIONS, count))
        if shift:
            starts = masked[modes] @ flat
            starts -= centre_terms[modes]
        else:
            starts = inputs[modes]
        for k, start in enumerate(starts, start=lo):
            v = start.reshape(shape[1:])
            for step in steps:
                v = step(v)
            outputs[k] = v.ravel()
    matrix = (np.conjugate(inputs, out=inputs) @ outputs.T) * plan.grid.dx**2
    return fields, matrix


def _singular_operator(name, fields, matrix):
    """Factor a compressed chain matrix into its singular-mode operator."""
    try:
        _, sing, vh = np.linalg.svd(matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular mode extraction did not converge") from exc
    order = np.argsort(sing, kind="stable")
    vmat = np.ascontiguousarray(vh.conj().T[:, order])
    sing = sing[order]
    diag = np.einsum("ij,ij->j", vmat.conj(), matrix @ vmat)
    tau = sing * np.exp(1j * np.angle(diag))
    return CoronagraphOperator(name, fields, tau, vmat)


def extract_operator(plan, basis):
    """Compress a plan onto a mode basis and factor into singular modes.

    Builds M_jk = <chi_j, plan(chi_k)> (a pupil-fed plan is fed the
    inverse transform of chi_k), takes its SVD, and returns the operator
    with singular values ascending; each transmission keeps the phase of
    the corresponding diagonal entry of the singular-rotated matrix.  The
    modes live where the plan's output does, on ``plan.output_grid``.
    ``basis`` may be a FourierZernikeBasis (the modes are then sampled
    here) or a prebuilt ModeFieldSet on that grid.

    Each mode is sampled once and no mode stack is held.  One pass over
    the raw samples (``_chain_matrix``) sums, block by block, their Gram
    matrix (from which ``mode_field_stack`` builds the set's transform for
    a basis) and their matrix Fourier transforms onto the box of the
    chain's pupil elements (63 x 63 pixels on the default grid).  No
    full-grid FFT runs: the transform is unitary and the chain's last
    pupil-plane field vanishes off that box, so M is an inner product
    there.  The samples, the Gram matrix and the transforms run on one
    quadrant of the grid, folded by the modes' parities, and the vortex's
    mask enters as a shift of the angular order.  On the default grid at
    n_max 6 the vortex extraction from a basis takes 0.45 s on a shared
    2-core machine and peaks at 15.3 MiB of ``tracemalloc`` on a built
    plan (23.6 MiB with 32-row blocks, one-call radial tables and box sums
    and chain inputs formed whole; 28.6 MiB over whole grid rows).  At
    n_max 20 / 30 it takes 4.6 / 10.3 s and the process's ``ru_maxrss``
    reads 127 / 194 MB (194 / 332 MB before).  The perfect chain is the
    Gram matrix less a rank-one term, summed in the same pass.
    """
    prebuilt = isinstance(basis, ModeFieldSet)
    if (basis.basis if prebuilt else basis).n_max > _MAX_EXTRACTION_ORDER:
        raise ValueError("basis n_max above the extraction cost guard")
    if prebuilt and basis.grid != plan.output_grid:
        raise ValueError("mode set grid does not match the plan's output grid")
    fields, matrix = _chain_matrix(plan, basis)
    return _singular_operator(plan.name, fields, matrix)


# ---------------------------------------------------------------------------
# output-state imaging


@functools.cache
def _pupil_source(grid):
    """The clear aperture of a pupil-fed image, cut to its bounding box.

    Returns (box, disk, x, y): the box's row and column slices, the
    unit-norm disk samples on the box, and the box's pixel coordinates,
    all read-only.  Built once per grid, on the disk's coverage box: the
    disk is ``pupil_disk_field(grid).normalized().samples`` there, bit for
    bit (``optics._pupil_disk``, normalized twice; ``pupil_disk_field``'s
    norm reads 1.0000000000000002).  On the default grid the build peaks
    at 8.5 MiB of ``tracemalloc``, the one real full-grid buffer of its
    norms (40.0 MiB from the full-grid complex disk).
    """
    values, cov_box = _pupil_disk(grid, normalizations=2)
    disk, box = _cut_to_support(values, cov_box)
    disk = disk.astype(complex)
    ax = grid.axis()
    x, y = np.meshgrid(ax[box[1]], ax[box[0]], indexing="xy")
    for arr in (disk, x, y):
        arr.flags.writeable = False
    return box, disk, x, y


def _stage_scene(plan, scene, star_only=False):
    """Stage the star and planet of ``scene`` (the star alone with ``star_only``).

    Returns a tuple of (state, weight) pairs, one per source, the state
    from the plan's ``_stage_source``: a pupil-fed plan's last pupil-plane
    field on its Lyot box, or a focal-fed plan's source position.
    """
    if star_only:
        # the weight 1.0 of a bare star leaves its intensity as it is
        sources = ((scene.star_polar, 1.0),)
    else:
        sources = ((scene.star_polar, 1.0 - scene.b), (scene.planet_polar, scene.b))
    return tuple((plan._stage_source(p), w) for p, w in sources)


def output_state_image(plan, scene, star_only=False):
    """Detected intensity of a two-point scene through a coronagraph plan.

    The plan's chain renders each source: the vortex image is the
    full-grid chain's bit for bit, and the PIAACMC image, one FFT per
    source, agrees with it to within 1e-13 of its peak.  An extracted
    operator renders no image; its detected energies are modal
    (``classical_info``).  ``scene`` is a Scene, or the scene's sources
    staged for this plan by ``_stage_scene``, which carry their own
    ``star_only``.

    Every source is staged before the image is allocated
    (``_stage_source``).  A pupil-fed source is the tilted aperture field
    on the disk's bounding box (65 x 65 pixels on the default grid), run
    to its last pupil-plane field on the 63 x 63 Lyot box, so no
    full-grid source is built and the vortex's full-grid focal field is
    gone before the image exists; a focal-fed source is sampled on the
    whole grid when it is rendered.  A plan squares each source's output
    in the pass that computes it, the column batches of the last
    transform or row batches of the perfect chain's difference, and adds
    it, weighted, into the image: (1 - b) |star|^2 + b |planet|^2 with the
    same elementwise operations in the same order as squaring whole
    outputs, so the same samples bit for bit.  No full-grid complex output
    is built.  On the default grid one two-source image peaks at 12.1 MiB
    of ``tracemalloc`` for a PIAACMC image (the 8 MiB image and the
    transform's row batches), 20.2 MiB for the vortex (its 16 MiB focal
    field and the transform's batches while a source stages) and 17.2 MiB
    for the perfect chain (the image and the real samples of its source),
    against 12.2 / 28.2 / 25.0 MiB when each source ran into the allocated
    image and the Airy sampler held a full-grid radius buffer.  A
    perfect-chain source, its projector and its output stay real.  Every
    source of a plan's image must keep the |s| + 3 margin of
    ``optics.check_source_in_window``, or ValueError names its separation:
    a pupil-fed source beyond it would wrap to the other side of the
    window.  The returned array lives on the plan's ``output_grid``, the
    FFT conjugate of the plan grid for pupil-fed chains.  Weighted by that
    grid's dx^2 it integrates to the transmitted energy, at most 1.
    ``star_only`` renders the b -> 0 limit: the bare star term at unit
    weight.
    """
    terms = scene if isinstance(scene, tuple) else _stage_scene(plan, scene, star_only)
    n = plan.output_grid.n_pixels
    # zeros plus the first weighted term is that term exactly
    image = np.zeros((n, n))
    for state, weight in terms:
        plan._render_source(state, image, weight)
    return image
