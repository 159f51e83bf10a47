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

A chain is a ``PropagatorPlan`` (ordered multiplicative elements with
automatic plane-to-plane propagation).  ``extract_operator`` compresses a
plan onto a truncated mode basis and factors it into singular modes with
complex per-mode transmissions; the resulting ``CoronagraphOperator``
applies in coefficient space.  ``output_state_image`` renders the
detected intensity of a two-point scene through either representation.

Extraction never transforms a full grid and holds no mode stack.  The
centered DFT is unitary, so <chi_j, plan(chi_k)> equals an inner product
of F^-1 chi_j with the chain's last pupil-plane field, and that field
vanishes outside the box of the Lyot stop (63 x 63 pixels on the default
1024^2 grid).  Every transform into the box is a matrix Fourier transform
(Soummer et al., Opt. Express 15, 15935 (2007)), summed over blocks of
grid rows while the modes are sampled: each mode is generated once, and
the orthonormalizing map of the mode set is applied to the box-sized
sums.  At n_max 6 on the default grid, measured on a shared 2-core
machine, the vortex extraction from a bare basis takes 1.8 s and peaks at
36 MiB of ``tracemalloc``.
``PropagatorPlan.apply`` images with full-grid FFTs, pruned to the rows
and columns that the chain's supports leave nonzero.

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
from scipy.optimize import brentq
from scipy.special import j0

from .modebasis import (
    FourierZernikeBasis,
    ModeFieldSet,
    mode_field_stack,
    source_coefficients,
)
from .optics import (
    GridSpec,
    OpticalField,
    _disk_coverage,
    default_grid,
    inverse_propagate,
    propagate,
    psf_field,
    pupil_disk_field,
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

    Boundary-straddling pixels are excluded; keeping them admits the
    rasterized edge jump of nulled fields at the 1e-3 energy level, an
    order above the nulls the inner rasterization reaches.
    """
    return (_disk_coverage(grid, 1.0) >= 1.0).astype(float)


@dataclass(frozen=True)
class PropagatorPlan:
    """Ordered multiplicative element chain with automatic propagation.

    Elements are (kind, array) pairs; pupil-plane kinds (apodizer,
    lyot_stop, inverse_apodizer) and the focal_mask trigger a propagation
    whenever the running field is in the other plane.  The output is
    always returned in the focal plane.  ``projector`` (used by the
    perfect design) subtracts the component along a fixed focal field
    after the element chain.
    """

    name: str
    grid: GridSpec
    elements: tuple
    input_domain: str = "pupil"
    projector: np.ndarray = None

    def __post_init__(self):
        if self.input_domain not in ("pupil", "focal"):
            raise ValueError("input_domain must be 'pupil' or 'focal'")
        n = self.grid.n_pixels
        for kind, arr in self.elements:
            if kind not in ELEMENT_KINDS:
                raise ValueError("unknown element kind %r" % kind)
            if np.shape(arr) != (n, n):
                raise ValueError("element %r array must match the grid" % kind)
        if self.projector is not None and self.projector.shape != (n, n):
            raise ValueError("projector must match the grid")

    @property
    def output_grid(self):
        """Grid of the focal field that apply returns.

        A focal-fed chain returns on the plan grid; a pupil-fed chain
        crosses an odd number of Fourier transforms and returns on the
        FFT-conjugate grid.  The two coincide on self-conjugate grids such
        as the default one.
        """
        return self.grid if self.input_domain == "focal" else self.grid.conjugate()

    @functools.cached_property
    def pupil_box(self):
        """Row and column slices bounding the joint support of the pupil elements.

        None for a chain without pupil elements.  A pupil-plane field is
        zero off this box once it has met a pupil element: the Lyot stop's
        63 x 63 pixels on the default grid for the vortex and PIAACMC chains.
        """
        pupil = [arr != 0.0 for kind, arr in self.elements if kind != "focal_mask"]
        if not pupil:
            return None
        return _bounding_box(np.any(pupil, axis=0))

    def apply(self, field):
        """Run the chain on one field; linear; returns a focal-plane field.

        A focal field is carried into the pupil plane only for a pupil
        element, which vanishes off ``pupil_box``, so the inverse transform
        computes that box alone.  Forward transforms skip the all-zero rows
        of their input.  Both give the full-grid FFT's samples bit for bit.
        """
        if field.domain != self.input_domain:
            raise ValueError(
                "plan %r expects a %s-domain field" % (self.name, self.input_domain)
            )
        if field.n_pixels != self.grid.n_pixels or field.half_width != self.grid.half_width:
            raise ValueError("field grid does not match the plan grid")
        cur = field
        for kind, arr in self.elements:
            need = "focal" if kind == "focal_mask" else "pupil"
            if cur.domain != need:
                if cur.domain == "pupil":
                    cur = propagate(cur)
                else:
                    cur = inverse_propagate(cur, self.pupil_box)
            cur = OpticalField(cur.samples * arr, need, cur.half_width)
        if cur.domain != "focal":
            cur = propagate(cur)
        if self.projector is not None:
            dx = self.output_grid.dx
            c = np.vdot(self.projector, cur.samples) * dx * dx
            cur = OpticalField(cur.samples - c * self.projector, "focal", cur.half_width)
        return cur


def perfect_plan(fundamental=None, grid=None):
    """Rank-one rejection of the fundamental mode in the focal plane.

    ``fundamental`` defaults to the sampled PSF field.  High-precision
    orthogonality at the mode-stack level needs the stack's own
    fundamental (pass ``stack.field(0)``), whose grid orthonormalization
    differs from the raw PSF samples at the 1e-2 level.
    """
    grid = grid or default_grid()
    if fundamental is None:
        fundamental = psf_field(grid)
    if fundamental.domain != "focal":
        raise ValueError("fundamental must be a focal-domain field")
    if fundamental.grid != grid:
        raise ValueError("fundamental grid does not match")
    proj = np.asarray(fundamental.normalized().samples)
    return PropagatorPlan("perfect", grid, (), "focal", proj)


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


@functools.cache
def prolate_c_star():
    """Bandwidth where the leading eigenvalue equals 1/sqrt(2).

    At this bandwidth a pi-phase spot of focal radius c/(2 pi) cancels the
    apodized pupil field exactly in the continuum limit.
    """
    return brentq(
        lambda c: prolate_radial(c)[0] - 1.0 / math.sqrt(2.0),
        1.2,
        2.2,
        xtol=1e-12,
    )


@dataclass(frozen=True)
class PiaacmcDesign:
    """Grid-ready element arrays plus the scalars that produced them."""

    grid: GridSpec
    c_value: float
    gamma_radial: float
    mask_radius: float
    gamma_grid: float
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


def _centered_dft_matrix(n, out_idx, in_idx):
    """Kernel exp(-2 pi i (k - n/2)(j - n/2) / n), k in out_idx, j in in_idx.

    These are the rows and columns of the centered n-point DFT that
    ``propagate`` applies along each axis; the integer phase is reduced
    mod n before it is scaled.
    """
    k = np.arange(out_idx.start, out_idx.stop) - n // 2
    j = np.arange(in_idx.start, in_idx.stop) - n // 2
    return np.exp(-2j * math.pi * (np.outer(k, j) % n) / n)


def _spot_roundtrip(grid, box, spot):
    """Pupil -> spot -> pupil round trip as a windowed matrix Fourier transform.

    Evaluates inverse_propagate(spot * propagate(v)) on the pupil ``box``
    only, for a field v that vanishes off it, passing through only the
    bounding box of the nonzero ``spot`` pixels on the conjugate grid
    (Soummer et al., Opt. Express 15, 15935 (2007)); ``spot`` may be
    complex.  The separable kernel
    makes each transform two small matrix products, Ey @ V @ Ex.T; the
    forward one is scaled by the pupil dx^2 and the inverse by the
    conjugate grid's dx^2, as the full-grid transforms are.  Returns the
    map from samples on ``box`` to the complex round-trip field on ``box``.
    """
    n = grid.n_pixels
    spot_rows, spot_cols = _bounding_box(spot != 0.0)
    ey = _centered_dft_matrix(n, spot_rows, box[0])
    ex = _centered_dft_matrix(n, spot_cols, box[1])
    ey_inv = ey.conj().T
    ex_inv = ex.conj()
    weight = spot[spot_rows, spot_cols]
    pupil_area = grid.dx**2
    focal_area = grid.conjugate().dx ** 2

    def step(v):
        foc = (ey @ v @ ex.T) * pupil_area
        return (ey_inv @ (foc * weight) @ ex_inv) * focal_area

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
    takes about 0.1-0.2 s on the default grid, so it is not cached.
    """
    grid = grid or default_grid()
    c = prolate_c_star()
    radial = prolate_radial(c)
    stop = lyot_stop_array(grid)
    full_support = stop > 0.0
    box = _bounding_box(full_support)
    support = full_support[box]
    focal = grid.conjugate()
    state = {"v": _prolate_seed(grid, box, support, c, radial)}

    def eigen_at(radius, it_tol):
        spot = _disk_coverage(focal, radius, _SPOT_SUPERSAMPLE)
        roundtrip = _spot_roundtrip(grid, box, spot)
        gamma, vec = _grid_prolate(roundtrip, support, state["v"], it_tol)
        state["v"] = vec
        return gamma, spot

    a0 = c / (2.0 * math.pi)

    def objective(radius):
        gamma, _ = eigen_at(radius, 1e-10)
        return gamma - 0.5

    lo, hi = 0.94 * a0, 1.10 * a0
    ends = {lo: objective(lo), hi: objective(hi)}
    if ends[lo] * ends[hi] > 0.0:
        raise ValueError(
            f"no PIAACMC spot radius on {grid}: gamma - 1/2 is {ends[lo]:.3e} at "
            f"{lo:.6f} and {ends[hi]:.3e} at {hi:.6f}, the ends of the bracket "
            "[0.94, 1.10] c/(2 pi)"
        )
    # brentq opens with the two ends; it gets the values just computed, so
    # the warm-started power iterations run in the same order as without them
    mask_radius = brentq(
        lambda r: ends.pop(r) if r in ends else objective(r), lo, hi, xtol=5e-7
    )
    gamma_g, spot = eigen_at(mask_radius, 1e-12)
    profile = np.zeros(stop.shape)
    profile[box] = state["v"] / (np.linalg.norm(state["v"]) * grid.dx)

    flat = 1.0 / math.sqrt(math.pi)
    apod = np.zeros_like(profile)
    apod[full_support] = profile[full_support] / flat
    inv = np.zeros_like(profile)
    inv[full_support] = flat / profile[full_support]

    return PiaacmcDesign(
        grid=grid,
        c_value=c,
        gamma_radial=radial[0],
        mask_radius=mask_radius,
        gamma_grid=gamma_g,
        apodizer=apod,
        focal_mask=1.0 - 2.0 * spot,
        lyot_stop=stop,
        inverse_apodizer=inv,
        apodized_profile=profile,
    )


def piaacmc_plan(grid=None):
    """Apodizer, pi-phase spot, Lyot stop, inverse apodizer chain."""
    grid = grid or default_grid()
    d = piaacmc_design(grid)
    elements = (
        ("apodizer", d.apodizer),
        ("focal_mask", d.focal_mask),
        ("lyot_stop", d.lyot_stop),
        ("inverse_apodizer", d.inverse_apodizer),
    )
    return PropagatorPlan("piaacmc", grid, elements, "pupil")


# ---------------------------------------------------------------------------
# vortex


def vortex_plan(grid=None):
    """Spiral focal phase exp(i*VORTEX_CHARGE*phi) followed by the Lyot stop.

    The phase is sampled at pixel centers with the singular center pixel
    zeroed.
    """
    grid = grid or default_grid()
    x, y = grid.mesh()
    phase = np.exp(1j * VORTEX_CHARGE * np.arctan2(y, x))
    phase[grid.n_pixels // 2, grid.n_pixels // 2] = 0.0
    elements = (("focal_mask", phase), ("lyot_stop", lyot_stop_array(grid)))
    return PropagatorPlan("vortex", grid, elements, "pupil")


# ---------------------------------------------------------------------------
# modal extraction


# Transmission sanity ceiling.  The perfect and vortex chains are exact
# contractions, but the multiplicative remap model of the piaacmc chain
# can amplify fields that route energy from high-Lambda to low-Lambda
# regions through the focal spot; its operator norm is bounded by
# max(Lambda)/min(Lambda) ~ 1.40, and mode-restricted gains of ~1.01 are
# observed.  Anything above the ceiling indicates a broken extraction.
_TRANSMISSION_CEILING = 1.45


@dataclass(frozen=True)
class CoronagraphOperator:
    """Singular-mode form sum_k tau_k |chi_k><chi_k| over a mode set.

    ``mode_coefficients`` column k expresses singular mode chi_k in the
    coordinates of ``fields``; transmissions are complex and sorted
    ascending in magnitude.  The perfect and vortex designs are passive
    (|tau| <= 1 to rounding); the piaacmc remap model can exceed 1 by
    about a percent on ring-like modes (see _TRANSMISSION_CEILING).
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

    def mode_field(self, k):
        """Singular mode k as a focal-plane field."""
        return self.fields.synthesize(self.mode_coefficients[:, k])

    def apply_coefficients(self, coeffs):
        """Stack coefficients of C applied to a field with given coefficients."""
        v = self.mode_coefficients
        z = v.conj().T @ np.asarray(coeffs, dtype=complex)
        return v @ (self.transmissions * z)

    def apply(self, field):
        """Apply the truncated operator to a focal-plane field."""
        return self.fields.synthesize(self.apply_coefficients(self.fields.project(field)))


def _rows_to_box(n, box, focal_dx):
    """inverse_propagate from whole focal rows onto a pupil ``box``, as an MFT.

    Returns step(rows, part, mask=None): for a real (k, len(rows), n) array
    holding k fields on the grid rows ``rows``, the complex (k, box rows,
    box cols) share of those rows in the k inverse transforms on ``box``;
    summed over the row blocks of a grid it is ``inverse_propagate``
    there, scaled by the focal dx^2 as that is.  The column transform comes
    first, one real product against the kernel's interleaved real and
    imaginary parts (B_rows @ Ex^T), then the rows: Ey[:, rows] @ that.
    A complex focal ``mask`` on the same rows gives the transforms of
    part * mask instead: each row's column kernel is multiplied by the
    mask's row, so the masked fields are never formed and each row still
    takes one real product.
    """
    ey = _centered_dft_matrix(n, box[0], slice(0, n)).conj() * focal_dx**2
    ex_t = np.ascontiguousarray(_centered_dft_matrix(n, box[1], slice(0, n)).conj().T)
    ex_pairs = ex_t.view(np.float64)
    cols = ex_t.shape[1]

    def step(rows, part, mask=None):
        k, r = part.shape[:2]
        if mask is None:
            t = (part.reshape(-1, n) @ ex_pairs).view(complex).reshape(k, r, cols)
        else:
            t = np.empty((k, r, cols), dtype=complex)
            kernel = np.empty_like(ex_t)
            for i in range(r):
                np.multiply(mask[i][:, None], ex_t, out=kernel)
                t[:, i] = (part[:, i] @ kernel.view(np.float64)).view(complex)
        return ey[:, rows] @ t

    return step


def _mix_modes(transform, raw):
    """transform applied over the leading (mode) axis of a complex array."""
    flat = np.ascontiguousarray(raw).reshape(raw.shape[0], -1).view(np.float64)
    return (transform @ flat).view(complex).reshape(raw.shape)


def _box_step(kind, arr, pupil_grid, box):
    """One element acting on a pupil field that vanishes off ``box``.

    A pupil element multiplies on the box.  A focal element 1 - w maps v
    to v - F^-1(w F v), whose second term ``_spot_roundtrip`` evaluates on
    the box through the bounding box of the nonzero pixels of w (19 x 19
    for the PIAACMC spot on the default grid).
    """
    if kind != "focal_mask":
        return functools.partial(np.multiply, arr[box])
    roundtrip = _spot_roundtrip(pupil_grid, box, 1.0 - arr)
    return lambda v: v - roundtrip(v)


def _chain_matrix(plan, basis):
    """Sample the modes once and compress a plan onto them: (fields, M).

    M_jk = <chi_j, plan(chi_k)>, with a pupil-fed plan fed F^-1 chi_k.
    ``basis`` is a FourierZernikeBasis, sampled on ``plan.output_grid`` by
    ``mode_field_stack``, or a prebuilt ModeFieldSet there.  Either way one
    pass over the raw samples B (``ModeFieldSet._raw_blocks``) sums what M
    needs, and the set's transform T (chi = T B) is applied to those sums
    afterwards, on the small side.

    Every chain starts from chi_k in the focal plane: propagate undoes the
    input's inverse transform.  Focal masks met before the first pupil
    element multiply there.  Every pupil element vanishes outside one box,
    the bounding box of their joint support, so from the first pupil
    element on the field is carried on that box only (``_box_step``).  The
    pass sums the row-block MFTs of the raw modes onto the box
    (``_rows_to_box``), and of the raw modes times a leading focal mask.
    The output is F G_k for the last pupil-plane field G_k, and F is
    unitary, so M_jk = dx_p^2 sum_box conj(F^-1 chi_j) G_k.  A chain
    without elements is the identity: M is the Gram matrix T (B B^T) T^T.
    A projector p subtracts a_j <p, out_k>, where a = T (B p).
    """
    box = plan.pupil_box
    if box is None and plan.elements:
        raise ValueError("a chain of focal masks alone has no box-local form")
    if box is not None and plan.elements[-1][0] == "focal_mask":
        raise ValueError("the chain must end in a pupil-plane element")
    grid = plan.output_grid
    n = grid.n_pixels
    count = basis.count
    projector = plan.projector
    if projector is not None:
        # real and imaginary parts side by side, one real product per block
        proj_parts = np.ascontiguousarray(projector, dtype=complex).view(np.float64)
        proj_parts = proj_parts.reshape(n, n, 2)
        proj_raw = np.zeros((count, 2))
    if box is None:
        gram_raw = np.zeros((count, count))
    else:
        pupil_grid = plan.grid if plan.input_domain == "pupil" else plan.grid.conjugate()
        to_box = _rows_to_box(n, box, grid.dx)
        runs = []  # consecutive focal masks act in one plane, as apply runs them
        for kind, arr in plan.elements:
            if kind == "focal_mask" and runs and runs[-1][0] == kind:
                arr = runs.pop()[1] * arr
            runs.append((kind, arr))
        lead = runs.pop(0)[1] if runs[0][0] == "focal_mask" else None
        steps = [_box_step(kind, arr, pupil_grid, box) for kind, arr in runs]
        shape = (count, box[0].stop - box[0].start, box[1].stop - box[1].start)
        inputs = np.zeros(shape, dtype=complex)  # F^-1 B_j on the box
        if lead is not None:
            led = np.zeros(shape, dtype=complex)  # F^-1 (lead B_j) on the box

    def visit(rows, block):
        if projector is not None:
            proj_raw[...] += block @ proj_parts[rows].reshape(-1, 2)
        if box is None:
            gram_raw[...] += block @ block.T
            return
        part = block.reshape(count, -1, n)
        inputs[...] += to_box(rows, part)
        if lead is not None:
            led[...] += to_box(rows, part, lead[rows])

    if isinstance(basis, ModeFieldSet):
        fields = basis
        for rows, block in fields._raw_blocks():
            visit(rows, block)
    else:
        fields = mode_field_stack(basis, grid, visit)
    t = fields.transform
    if projector is not None:
        a = (t @ proj_raw).view(complex)[:, 0] * grid.dx**2
    if box is None:
        matrix = (t @ (gram_raw * grid.dx**2) @ t.T).astype(complex)
        if projector is not None:
            matrix -= np.outer(a, a.conj())
        return fields, matrix

    inputs = _mix_modes(t, inputs)
    starts = inputs if lead is None else _mix_modes(t, led)
    outputs = np.empty(shape, dtype=complex)  # last pupil-plane field G_k
    for k in range(count):
        v = starts[k]
        for step in steps:
            v = step(v)
        outputs[k] = v

    area = pupil_grid.dx**2
    outputs = outputs.reshape(count, -1).T
    matrix = (inputs.reshape(count, -1).conj() @ outputs) * area
    if projector is not None:
        whole = slice(0, n)
        p_box = to_box(whole, projector.real[None]) + 1j * to_box(whole, projector.imag[None])
        matrix -= np.outer(a, (p_box.ravel().conj() @ outputs) * area)
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
    there.  On the default grid at n_max 6 the vortex extraction from a
    basis peaks at about 36 MiB of ``tracemalloc``.  The perfect chain is
    the Gram matrix less a rank-one term, summed in the same pass.  A
    chain must end in a pupil-plane element or have no element at all.
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
    all read-only.  Built once per grid; the full-grid disk costs about
    43 ms on the default grid.  The disk is normalized once more after
    ``pupil_disk_field``, whose norm there reads 1.0000000000000002.
    """
    full = pupil_disk_field(grid).normalized().samples
    box = _bounding_box(full != 0.0)
    disk = full[box].copy()
    ax = grid.axis()
    x, y = np.meshgrid(ax[box[1]], ax[box[0]], indexing="xy")
    for arr in (disk, x, y):
        arr.flags.writeable = False
    return box, disk, x, y


def output_state_image(target, scene, star_only=False):
    """Detected intensity of a two-point scene through a coronagraph.

    ``target`` is either a CoronagraphOperator (source fields enter
    through their analytic mode coefficients) or a PropagatorPlan (full
    grid propagation).  The returned array lives on the target's output
    grid: the mode-set grid of an operator, ``PropagatorPlan.output_grid``
    of a plan (the FFT conjugate of the plan grid for pupil-fed chains).
    Weighted by that grid's dx^2 it integrates to the transmitted energy,
    at most 1.  ``star_only`` renders the b -> 0 limit: the bare star
    term at unit weight.
    """
    if isinstance(target, CoronagraphOperator):
        grid = target.fields.grid

        def source_intensity(polar):
            coeffs = target.apply_coefficients(
                source_coefficients(target.fields.basis, polar[0], polar[1])
            )
            return np.abs(target.fields.synthesize(coeffs).samples) ** 2

    elif target.input_domain == "pupil":
        # source pupil-fed chains with the exact tilted aperture field; a
        # round trip through the focal grid would add ~1e-3 sampling error
        # on top of the chain's own null floor.  The tilt is evaluated on
        # the disk's bounding box only (65 x 65 pixels on the default grid)
        grid = target.grid
        box, disk, x, y = _pupil_source(grid)

        def source_intensity(polar):
            r, phi = polar
            tilt = np.exp(
                2j * math.pi * r * (x * math.cos(phi) + y * math.sin(phi))
            )
            src = np.zeros((grid.n_pixels, grid.n_pixels), dtype=complex)
            src[box] = disk * tilt
            src = OpticalField(src, "pupil", grid.half_width)
            return np.abs(target.apply(src).samples) ** 2

    else:
        grid = target.grid

        def source_intensity(polar):
            r, phi = polar
            src = shifted_source_field((r * math.cos(phi), r * math.sin(phi)), grid)
            return np.abs(target.apply(src).samples) ** 2

    star = source_intensity(scene.star_polar)
    if star_only:
        return star
    planet = source_intensity(scene.planet_polar)
    return (1.0 - scene.b) * star + scene.b * planet
