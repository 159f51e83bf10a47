"""Circular-aperture imaging model in dimensionless coordinates.

The pupil coordinate u is measured in aperture radii and the focal
coordinate r in diffraction units, so the clear aperture is the unit disk
with amplitude 1/sqrt(pi) and its image is the Airy amplitude
J_1(2 pi r)/(sqrt(pi) r).  Forward propagation is the unitary 2D Fourier
transform with kernel exp(-i 2 pi u.r); on the discrete grid this becomes
a centered FFT (origin at pixel (n/2, n/2), fftshift sandwich) scaled by
the pixel area, which preserves the discrete L2 norm exactly.

Fields constructed here are renormalized to unit discrete norm.  On any
finite window an Airy pattern keeps only part of its energy (the tail
integrates to roughly 1/(pi^2 R) beyond radius R), so raw samples of a
normalized continuum field would carry a percent-level norm deficit; the
renormalization keeps single-photon states at norm 1 on every grid.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import j1

__all__ = [
    "AIRY_SIGMA",
    "GridSpec",
    "OpticalField",
    "Scene",
    "TelescopePrescription",
    "wrap_angle",
    "separation_from_sigma_units",
    "pupil_function",
    "psf",
    "pupil_disk_field",
    "psf_field",
    "check_source_in_window",
    "shifted_source_field",
    "propagate",
    "inverse_propagate",
    "parity_flip",
    "overlap",
    "load_prescription",
]

_FIRST_J1_ZERO = 3.8317059702075123
# radii below this take the exact on-axis value of a radial factor
_R_EPS = 1e-8
# rows per batch of a row pass: a transform's, a sampler's or a sum's
_CHUNK = 64
_COLUMN_CHUNK = 16  # columns per batch of a transform's column pass

# Airy width parameter: first zero of J_1(2 pi r) in focal units, ~0.6098.
AIRY_SIGMA = _FIRST_J1_ZERO / (2.0 * math.pi)


def separation_from_sigma_units(r_over_sigma):
    """Convert a separation quoted in Airy-sigma units to focal units.

    All conversions between the two conventions go through this single
    function so no rounded value of sigma leaks into the numerics.
    """
    return float(r_over_sigma) * AIRY_SIGMA


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid spanning [-half_width, +half_width] per axis.

    The origin sits exactly at pixel (n/2, n/2); pixel centers are
    x_i = (i - n/2) * dx with dx = 2*half_width/n_pixels.
    """

    n_pixels: int = 1024
    half_width: float = 16.0

    def __post_init__(self):
        if self.n_pixels < 2 or self.n_pixels % 2:
            raise ValueError("n_pixels must be even and at least 2")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def dx(self):
        return 2.0 * self.half_width / self.n_pixels

    def axis(self):
        return (np.arange(self.n_pixels) - self.n_pixels // 2) * self.dx

    def mesh(self):
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="xy")

    def conjugate(self):
        """Grid of the FFT-conjugate plane (same n, half_width 1/(2 dx))."""
        return GridSpec(self.n_pixels, 0.5 / self.dx)


@dataclass(frozen=True)
class OpticalField:
    """Field samples tagged with their domain and window size.

    The samples are complex, or real (float64) when they are given as
    float64: a sampled Airy pattern stays real, at half the bytes, and so
    does every chain output and coefficient computed from it alone.
    """

    samples: np.ndarray
    domain: str
    half_width: float

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("samples must form a square 2D grid")
        if s.shape[0] < 2 or s.shape[0] % 2:
            raise ValueError("n_pixels must be even and at least 2")
        if self.domain not in ("pupil", "focal"):
            raise ValueError("domain must be 'pupil' or 'focal'")
        if s.dtype != np.float64:
            s = np.asarray(s, dtype=complex)
        object.__setattr__(self, "samples", s)

    @property
    def n_pixels(self):
        return self.samples.shape[0]

    @property
    def grid(self):
        return GridSpec(self.n_pixels, self.half_width)

    def norm(self):
        dx = self.grid.dx
        return math.sqrt(float(np.sum(np.abs(self.samples) ** 2)) * dx * dx)

    def normalized(self):
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize a zero field")
        return replace(self, samples=self.samples / n)


@dataclass(frozen=True)
class Scene:
    """Star-planet scene in center-of-intensity aligned polar coordinates.

    The star sits at radius b*r_delta along phi_delta + pi and the planet
    at (1-b)*r_delta along phi_delta, which puts the intensity-weighted
    centroid of the pair exactly at the origin.
    """

    r_delta: float
    phi_delta: float
    b: float

    def __post_init__(self):
        if not 0.0 <= self.r_delta < math.inf:
            raise ValueError("separation r_delta must be finite and nonnegative")
        if not 0.0 <= self.phi_delta < 2.0 * math.pi:
            raise ValueError("phi_delta must lie in [0, 2*pi)")
        if not 0.0 < self.b < 1.0:
            raise ValueError("relative brightness b must lie in (0, 1)")

    @property
    def star_polar(self):
        return (self.b * self.r_delta, (self.phi_delta + math.pi) % (2.0 * math.pi))

    @property
    def planet_polar(self):
        return ((1.0 - self.b) * self.r_delta, self.phi_delta)

    @property
    def star_position(self):
        r, phi = self.star_polar
        return np.array([r * math.cos(phi), r * math.sin(phi)])

    @property
    def planet_position(self):
        r, phi = self.planet_polar
        return np.array([r * math.cos(phi), r * math.sin(phi)])


def wrap_angle(phi):
    """A position angle reduced into Scene's range [0, 2 pi).

    The float modulo rounds an angle a hair below zero up to exactly
    2 pi, outside the range; that value maps to 0.  Every other result is
    the plain modulo, bit for bit (numpy's remainder rounds as Python's
    float % does), and an infinite angle gives NaN, silently, as % does.
    A scalar gives a float, an array an array of wrapped entries.
    """
    with np.errstate(invalid="ignore"):
        wrapped = np.remainder(np.asarray(phi, dtype=float), 2.0 * math.pi)
    wrapped = np.where(wrapped >= 2.0 * math.pi, 0.0, wrapped)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


@dataclass(frozen=True)
class TelescopePrescription:
    """Physical telescope parameters; field names double as config keys."""

    diameter_m: float
    center_wavelength_m: float
    bandwidth_m: float
    star_vmag: float
    reference_flux_si: float
    photon_flux_hz: float

    def __post_init__(self):
        if not 0.0 < self.photon_flux_hz < math.inf:
            raise ValueError(
                f"photon_flux_hz must be positive and finite, got {self.photon_flux_hz!r}"
            )


_PRESCRIPTION_KEYS = tuple(f.name for f in fields(TelescopePrescription))


def load_prescription(path):
    """Read a telescope prescription from a flat key=value config file.

    The file must define exactly the six keys named by the fields of
    TelescopePrescription; '#' starts a comment.  Raises ValueError naming
    the offending key on anything missing, unknown, or non-numeric.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _PRESCRIPTION_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                values[key] = float(text.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: value for {key!r} is not a number") from None
    missing = [k for k in _PRESCRIPTION_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing config key {missing[0]!r}")
    return TelescopePrescription(**values)


# ---------------------------------------------------------------------------
# analytic field values


def pupil_function(u):
    """Aperture amplitude at pupil point(s) u: 1/sqrt(pi) on the unit disk."""
    u_arr = np.asarray(u, dtype=float)
    rho2 = np.sum(u_arr * u_arr, axis=-1)
    out = np.where(rho2 <= 1.0, 1.0 / math.sqrt(math.pi), 0.0)
    if np.asarray(rho2).ndim == 0:
        return float(out)
    return out


def psf(r):
    """Airy amplitude J_1(2 pi r)/(sqrt(pi) r) at focal point(s) r.

    Accepts a 2D point or an array of points in the last axis; the
    removable singularity at the origin evaluates to sqrt(pi).
    """
    r_arr = np.asarray(r, dtype=float)
    rho = np.sqrt(np.sum(r_arr * r_arr, axis=-1))
    return _airy_amplitude(rho)


def _airy_amplitude(rho):
    # sqrt(pi) times the n = 0 radial factor of modebasis, J_1 from
    # scipy.special.j1 (cephes): 1.0e-15 absolute against mpmath on
    # [0, 300], and 13 times faster per point than bessel_j's jv.  It
    # stays apart from modebasis._radial_factor (jv) on purpose: sampling
    # psf_field from that factor moves 1,024,143 of its 1,048,576
    # default-grid samples by up to 8.9e-16, and cfim_direct_imaging
    # amplifies such rounding by about 1e6 into the localization times of
    # `tables`.  The argument check is bessel_j's.  The sampled fields do
    # not call this: _airy_field computes the same values in place, in one
    # real buffer that it returns, and this stays for psf and as the
    # tests' oracle for that sampler
    rho_arr = np.asarray(rho, dtype=float)
    if not np.isfinite(rho_arr).all():
        raise ValueError("Bessel argument must be finite")
    scalar = rho_arr.ndim == 0
    rho_arr = np.atleast_1d(rho_arr)
    out = np.full(rho_arr.shape, math.sqrt(math.pi))
    big = rho_arr >= _R_EPS
    if np.any(big):
        rb = rho_arr[big]
        out[big] = j1(2.0 * math.pi * rb) / (math.sqrt(math.pi) * rb)
    if scalar:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# sampled fields


def _disk_coverage(grid, radius=1.0, supersample=8):
    """Pixel coverage fractions of a centered disk, supersampled on the rim.

    Returns (values, box): the fractions on the square ``box`` of pixels
    that can reach the disk or its rim band, as row and column slices of
    the grid; every pixel off it is zero.  The values are those of a
    rasterization of the whole grid, bit for bit.
    """
    ax = grid.axis()
    half_diag = grid.dx * math.sqrt(0.5)
    near = np.flatnonzero(np.abs(ax) <= radius + 1.5 * half_diag + grid.dx)
    win = slice(near[0], near[-1] + 1)
    x, y = np.meshgrid(ax[win], ax[win], indexing="xy")
    rho = np.hypot(x, y)
    part = (rho <= radius).astype(float)
    rim = np.abs(rho - radius) <= 1.5 * half_diag
    if np.any(rim):
        offs = (np.arange(supersample) + 0.5) / supersample - 0.5
        ox, oy = np.meshgrid(offs * grid.dx, offs * grid.dx, indexing="xy")
        rx = x[rim][:, None] + ox.ravel()[None, :]
        ry = y[rim][:, None] + oy.ravel()[None, :]
        part[rim] = np.mean(np.hypot(rx, ry) <= radius, axis=1)
    return part, (win, win)


def _square_sum(a, lo=0, hi=None):
    """``np.sum(np.square(a))`` of a C-contiguous real array, bit for bit.

    numpy sums a contiguous array pairwise over its flat index: a run of
    more than 128 entries splits at half its length, rounded down to a
    multiple of 8, and the sums of the two parts are added.  This takes the
    same splits of the flat run [lo, hi) down to runs of at most _CHUNK
    rows, which ``np.sum`` squares and sums as the subtrees they are, so no
    squares array of ``a``'s size is built (checked against ``np.sum`` on
    grids of 40 to 2048 pixels).
    """
    flat = a.reshape(-1)
    hi = flat.size if hi is None else hi
    if hi - lo <= _CHUNK * a.shape[-1]:
        return float(np.sum(np.square(flat[lo:hi])))
    half = (hi - lo) // 2
    half -= half % 8
    return _square_sum(a, lo, lo + half) + _square_sum(a, lo + half, hi)


def _pupil_disk(grid, normalizations=1):
    """The clear aperture's real amplitudes on the coverage box, normalized.

    Returns (values, box): the samples on the box of ``_disk_coverage``,
    zero off it, after ``normalizations`` scalings to unit discrete norm.
    They are bit for bit the real parts of the complex field that casts
    the coverage to complex, divides it by sqrt(pi) and normalizes it that
    many times: numpy divides a complex array by a real scalar as a
    multiplication by its reciprocal, and |x + 0j|^2 = x^2, so every norm
    is the pairwise sum of the real squares (``_square_sum``).  The
    imaginary parts are +0.  The norms are summed on one real full-grid
    buffer (8 MiB on the default grid), the only full-grid array built.
    """
    part, box = _disk_coverage(grid, 1.0)
    amp = np.zeros((grid.n_pixels, grid.n_pixels))
    amp[box] = part * (1.0 / math.sqrt(math.pi))
    for _ in range(normalizations):
        amp[box] *= 1.0 / math.sqrt(_square_sum(amp) * grid.dx * grid.dx)
    return amp[box].copy(), box


def pupil_disk_field(grid=None):
    """Clear-aperture pupil field on the grid, unit discrete norm.

    Rim pixels get area-coverage amplitudes (supersampled), so every pixel
    carries the area average of the aperture.  On the default grid the
    propagated field then matches the Airy pattern the DFT can reach, the
    pixel-averaged J_1(2 pi r)/(sqrt(pi) r) summed over the lattice copies
    of the 2*half_width period at unit discrete norm, to 7.4e-5 pixel RMS
    (a binary rim: 2.4e-3).  Against the continuum Airy pattern itself the
    RMS is about 1e-3 (9.5e-4); even the least-squares best pupil supported
    within r <= 1 + 2 dx leaves 3.4e-4 there.  The samples are complex,
    with zero imaginary parts (``_pupil_disk``).
    """
    grid = grid or GridSpec()
    values, box = _pupil_disk(grid)
    samples = np.zeros((grid.n_pixels, grid.n_pixels), dtype=complex)
    samples[box] = values
    return OpticalField(samples, "pupil", grid.half_width)


def _airy_field(s, grid):
    """Unit-norm focal field of the Airy amplitude about the focal point ``s``.

    Real samples, bit for bit the real parts of
    ``OpticalField(_airy_amplitude(np.hypot(x - s[0], y - s[1])).astype(complex),
    ...).normalized()`` on the grid's mesh (x, y), which matters because
    cfim_direct_imaging samples a million pixels per perfect-chain source.
    The radii come in blocks of _CHUNK rows from the shifted axes, which
    gives the mesh's radii bit for bit without building it; each block
    times 2 pi goes through J_1 into the field's rows and is divided by
    sqrt(pi) rho, and the radii below _R_EPS take the on-axis value
    sqrt(pi) afterwards, so the 0/0 at a pixel exactly on the source is
    silent.  The norm is the pairwise sum of the squares (``_square_sum``),
    which ``np.abs(c) ** 2`` gives for a zero imaginary part, and the
    scaling by ``1.0 / norm`` is what numpy's complex-by-real division
    computes.  The field is the only full-grid array: on the default grid
    the sampler peaks at 9.2 MiB of ``tracemalloc``, the real field and one
    block's radii and scratch (17.0 MiB when the radii came whole, 24 MiB
    with a complex cast), and keeps the 8 MiB field.  ``s`` must be finite.
    """
    ax = grid.axis()
    cols = ax - s[0]
    amp = np.empty((grid.n_pixels, grid.n_pixels))
    for start in range(0, grid.n_pixels, _CHUNK):
        rows = slice(start, start + _CHUNK)
        rho = np.hypot(cols, (ax[rows] - s[1])[:, None])
        small = rho < _R_EPS
        out = amp[rows]
        np.multiply(rho, 2.0 * math.pi, out=out)
        j1(out, out=out)
        rho *= math.sqrt(math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= rho
        out[small] = math.sqrt(math.pi)
    amp *= 1.0 / math.sqrt(_square_sum(amp) * grid.dx * grid.dx)
    return OpticalField(amp, "focal", grid.half_width)


def psf_field(grid=None):
    """Airy amplitude sampled on the focal grid, unit discrete norm.

    The samples are those of ``psf`` at the pixel centers, renormalized,
    and real (float64).
    """
    grid = grid or GridSpec()
    return _airy_field((0.0, 0.0), grid)


def check_source_in_window(separation, grid):
    """Raise ValueError unless a point source at ``separation`` fits the grid.

    A source at focal distance |s| from the grid centre keeps the bulk of
    its Airy energy on the grid when half_width >= |s| + 3.  The rule holds
    for both kinds of source: a focal-plane source loses the rest off the
    window, and a pupil-fed (tilted aperture) source, whose image is
    periodic in the window, wraps to the opposite side.  The message names
    the separation.
    """
    if not separation + 3.0 <= grid.half_width:
        raise ValueError(
            f"a source at separation {separation:.6g} (focal units) needs a grid "
            f"half_width of at least separation + 3, and this grid's is {grid.half_width:g}"
        )


def shifted_source_field(s, grid=None):
    """Field of a point source at focal position s: samples of psf(r - s).

    Requires half_width >= |s| + 3 (``check_source_in_window``) so the bulk
    of the shifted Airy energy stays on the grid; the samples are
    renormalized to unit discrete norm.
    ``_airy_field`` samples the shifted Airy pattern in row blocks into
    the real field: 53-89 ms on the default grid on a shared 2-core Xeon,
    about 31 ms of it J_1.
    """
    grid = grid or GridSpec()
    s_arr = np.asarray(s, dtype=float)
    check_source_in_window(float(np.hypot(*s_arr)), grid)
    return _airy_field(s_arr, grid)


# ---------------------------------------------------------------------------
# propagation and inner products


def _intensity(samples):
    """|samples|^2 in one new buffer, bit for bit np.abs(samples) ** 2."""
    out = np.abs(samples)
    out *= out
    return out


def _add_intensity(image, samples, weight):
    """Add weight * |samples|^2 into the real ``image`` of the samples' shape.

    Every step is elementwise, so an image summed batch by batch has the
    samples of one summed whole; into zeros at weight 1.0 it is
    ``_intensity(samples)`` bit for bit.
    """
    sq = _intensity(samples)
    sq *= weight
    image += sq


def _half_turn(sl, n):
    """Where the shift i -> (i + n/2) mod n of 0..n-1 sends the slice ``sl``.

    Returns (mid, first, second): the first ``mid`` indices of ``sl`` go to
    the slice ``first`` and the rest to ``second``.  For even n this shift
    is both fftshift and ifftshift.
    """
    h = n // 2
    mid = min(max(sl.start, h), sl.stop) - sl.start
    return mid, slice(sl.start + h, sl.start + h + mid), slice(sl.start + mid - h, sl.stop - h)


def _centered_fft(samples, dx, inverse=False, box=None, at=None, accumulate=None):
    # physical-scaling DFT: forward approximates int f exp(-i 2 pi u.r) d2u,
    # inverse the conjugate kernel; both preserve the discrete L2 norm.
    # numpy's fft2 and ifft2 transform the last axis row by row and then
    # axis 0; this runs the same 1-D transforms less the ones whose result
    # is known, so it equals fftshift(fft2(ifftshift(x))) bit for bit: an
    # all-zero row transforms to zeros, and with ``box`` (row and column
    # slices of the output) only the box's columns get the axis-0 pass and
    # only the box's block of the output is returned.  ``at`` = ((rows,
    # cols), n) is the mirror: ``samples`` holds that box of an n x n input
    # which is zero elsewhere, so no n x n input is built.  The row pass
    # runs in batches of _CHUNK live rows and keeps just the columns that
    # the output needs; the column pass runs in batches of _COLUMN_CHUNK
    # columns, with the shifts as slices.  ``accumulate`` = (image, weight)
    # squares each column batch where it is computed and adds weight times
    # it into the real ``image`` of the output's shape (``_add_intensity``),
    # which is returned instead of the output: no complex array of the
    # output's size is built
    if at is None:
        n = samples.shape[0]
        row_sl = col_sl = slice(0, n)
    else:
        (row_sl, col_sl), n = at
    live = np.flatnonzero(samples.any(axis=1))
    one_d = np.fft.ifft if inverse else np.fft.fft
    scale = n * n * dx * dx if inverse else dx * dx
    box = box or (slice(0, n), slice(0, n))
    # fftshift puts transform index (k + n/2) mod n at output pixel k
    col_idx = (np.arange(box[1].start, box[1].stop) + n // 2) % n
    # ifftshift moves input column c to (c + n/2) mod n
    mid, head, tail = _half_turn(col_sl, n)
    # the row transforms of the rows from the first live one to the last;
    # the zero rows between them stay zero, as their transforms are
    hull = slice(live[0], live[-1] + 1) if live.size else slice(0, 0)
    rows = np.zeros((hull.stop - hull.start, col_idx.size), dtype=complex)
    for start in range(0, live.size, _CHUNK):
        idx = live[start : start + _CHUNK]
        batch = samples[idx]
        line = np.zeros((batch.shape[0], n), dtype=complex)
        line[:, head] = batch[:, :mid]
        line[:, tail] = batch[:, mid:]
        rows[idx - hull.start] = one_d(line, axis=1)[:, col_idx]
    in_mid, in_head, in_tail = _half_turn(
        slice(row_sl.start + hull.start, row_sl.start + hull.stop), n
    )
    out_mid, out_head, out_tail = _half_turn(box[0], n)
    shape = (box[0].stop - box[0].start, col_idx.size)
    if accumulate is None:
        out = np.empty(shape, dtype=complex)
    else:
        image, weight = accumulate
    for start in range(0, col_idx.size, _COLUMN_CHUNK):
        batch = slice(start, start + _COLUMN_CHUNK)
        part = rows[:, batch]
        cols = np.zeros((n, part.shape[1]), dtype=complex)
        cols[in_head] = part[:in_mid]
        cols[in_tail] = part[in_mid:]
        spectrum = one_d(cols, axis=0)
        # the output rows of the batch in one contiguous buffer, scaled
        vals = np.empty((shape[0], part.shape[1]), dtype=complex)
        np.multiply(spectrum[out_head], scale, out=vals[:out_mid])
        np.multiply(spectrum[out_tail], scale, out=vals[out_mid:])
        if accumulate is None:
            out[:, batch] = vals
        else:
            _add_intensity(image[:, batch], vals, weight)
    return out if accumulate is None else image


def propagate(field):
    """Unitary Fourier propagation between pupil and focal planes.

    Uses the forward kernel exp(-i 2 pi u.r) regardless of direction, as a
    lens does, so applying it twice returns the parity-flipped input.  The
    output grid is the FFT conjugate of the input grid (identical for the
    default grid).
    """
    grid = field.grid
    out = _centered_fft(field.samples, grid.dx)
    new_domain = "focal" if field.domain == "pupil" else "pupil"
    return OpticalField(out, new_domain, grid.conjugate().half_width)


def inverse_propagate(field):
    """Inverse of propagate (kernel exp(+i 2 pi u.r)); unitary.

    The coronagraph chains run their inverse transforms onto the Lyot box
    directly (``_centered_fft`` with ``box``); this full-grid form serves
    callers outside them, such as feeding a focal field to a pupil-fed plan.
    """
    grid = field.grid
    out = _centered_fft(field.samples, grid.dx, inverse=True)
    new_domain = "focal" if field.domain == "pupil" else "pupil"
    return OpticalField(out, new_domain, grid.conjugate().half_width)


def parity_flip(field):
    """Point reflection about the grid origin (pixel (n/2, n/2))."""
    flipped = np.roll(np.flip(field.samples, axis=(0, 1)), 1, axis=(0, 1))
    return replace(field, samples=flipped)


def overlap(a, b):
    """Discrete inner product <a|b> = sum conj(a) b dx^2.

    Both fields must share the grid and the domain.
    """
    if a.domain != b.domain:
        raise ValueError("overlap requires fields in the same domain")
    if a.n_pixels != b.n_pixels or a.half_width != b.half_width:
        raise ValueError("overlap requires fields on the same grid")
    dx = a.grid.dx
    return complex(np.vdot(a.samples, b.samples) * dx * dx)
