"""Transform-domain Zernike mode basis matched to the circular aperture.

The basis functions are the 2D Fourier transforms of the Zernike aperture
polynomials.  In polar focal coordinates mode (n, m) reads

    psi_nm(r, phi) = sqrt(n+1) J_{n+1}(2 pi r)/(sqrt(pi) r) Theta_m(phi)

with the real angular factors Theta_0 = 1, Theta_m = sqrt(2) cos(m phi)
for m > 0 and sqrt(2) sin(|m| phi) for m < 0; the unimodular phase of the
complex convention is stripped so every mode is real.  Mode (0, 0) is the
aperture PSF itself, so the k = 0 projection coefficient of a point source
is its fundamental-mode amplitude.

Projection coefficients, probabilities, and their gradients are evaluated
from closed Bessel expressions, never from grids.  Grid realizations of
the modes (for coronagraph operator extraction) are produced separately by
`mode_field_stack`, which symmetrically orthonormalizes the sampled
functions against the discrete inner product: on a finite window the raw
samples lose percent-level norm to the truncated Airy tails, and the
orthonormalization restores an exactly unitary mode set while moving each
field by only O(1e-3) at low order.  The set is held as that linear map
and small sampling tables, never as a stack of fields: every pass over it
regenerates the samples a block of grid rows at a time.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .optics import _R_EPS, GridSpec, OpticalField, Scene, default_grid
from .specfun import ZernikeIndex, bessel_j, zernike_angular

__all__ = [
    "FourierZernikeBasis",
    "ModeFieldSet",
    "all_mode_probabilities",
    "all_probability_gradients",
    "mode_field_stack",
    "source_coefficient_gradients",
    "source_coefficients",
]

# grid rows per block in every pass over the sampled modes
_ROW_BLOCK = 32


def _sin_2m(m_abs, phi):
    """sin(2 m phi) with exact zeros at the quarter-turn symmetry angles.

    The angle is reduced about the nearest multiple of pi/2 first, so inputs
    that are exact floating multiples of pi/2 give exactly zero, matching the
    parity symmetry of the mode intensities.
    """
    phi = np.asarray(phi, dtype=float)
    q = np.round(phi / (0.5 * math.pi))
    delta = phi - q * (0.5 * math.pi)
    sign = np.where((q.astype(np.int64) * m_abs) % 2 == 0, 1.0, -1.0)
    return sign * np.sin(2.0 * m_abs * delta)


@dataclass(frozen=True)
class FourierZernikeBasis:
    """Truncated mode basis with radial orders 0..n_max in OSA linear order.

    `rotation` rotates every mode by a fixed angle (used to dodge the
    angular singularities of the polar Fisher information at quarter-turn
    scene angles).
    """

    n_max: int
    rotation: float = 0.0

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")

    @property
    def count(self):
        return (self.n_max + 1) * (self.n_max + 2) // 2

    @cached_property
    def modes(self):
        return tuple(ZernikeIndex.from_linear(k) for k in range(self.count))

    @cached_property
    def _n_arr(self):
        return np.array([idx.n for idx in self.modes])

    @cached_property
    def _m_arr(self):
        return np.array([idx.m for idx in self.modes])

    @cached_property
    def _radial_orders(self):
        return np.arange(self.n_max + 1)

    @cached_property
    def _radial_norms(self):
        return np.sqrt(self._radial_orders + 1.0)

    @cached_property
    def _theta_col(self):
        # column of Theta_m in the angular rows laid out by m = -n_max..n_max
        return self._m_arr + self.n_max


def _radial_factor(n, r):
    """Radial factor sqrt(n+1) J_{n+1}(2 pi r)/(pi r), broadcast over n and r.

    The one implementation behind the projection coefficients, the grid
    mode samples (psi_nm is this factor times sqrt(pi) times Theta_m) and, at
    n = 0, the PSF overlap Gamma_0.  Radii must be nonnegative; below 1e-8
    they take the exact on-axis value, 1 for n = 0 and 0 otherwise.
    """
    r = np.asarray(r, dtype=float)
    on_axis = r < _R_EPS
    safe = np.where(on_axis, 1.0, r)
    out = np.sqrt(n + 1.0) * bessel_j(n + 1, 2.0 * math.pi * safe) / (math.pi * safe)
    if on_axis.any():
        out = np.where(on_axis, np.equal(n, 0), out)
    return out


def _check_sources(r, phi):
    if not (r >= 0.0).all():
        raise ValueError("source radius must be nonnegative")
    if not np.isfinite(phi).all():
        raise ValueError("source angle must be finite")


def _theta_rows(basis, phi, derivative=False):
    """Real angular factors Theta_m(phi - rotation), shape (S, 2 n_max + 1).

    ``phi`` has shape (S,); column n_max + m holds the factor of angular
    index m = -n_max..n_max, or its phi-derivative when ``derivative``.
    """
    mu = basis._radial_orders[1:]
    arg = (phi - basis.rotation)[:, None] * mu
    root2 = math.sqrt(2.0)
    rows = np.empty((phi.size, 2 * basis.n_max + 1))
    if derivative:
        rows[:, : basis.n_max] = (mu * root2 * np.cos(arg))[:, ::-1]
        rows[:, basis.n_max] = 0.0
        rows[:, basis.n_max + 1 :] = -mu * root2 * np.sin(arg)
    else:
        rows[:, : basis.n_max] = root2 * np.sin(arg)[:, ::-1]
        rows[:, basis.n_max] = 1.0
        rows[:, basis.n_max + 1 :] = root2 * np.cos(arg)
    return rows


def _source_rows(basis, r, phi):
    """Coefficients of S point sources at polar (r[s], phi[s]), shape (S, count).

    The one modal kernel: ``r`` and ``phi`` are float arrays of shape
    (S,).  Callers check once per batch that radii are nonnegative and
    angles finite; bessel_j rejects non-finite radii.  Entry (s, k) is the
    radial factor of mode k times its angular factor, both gathered from
    per-order rows.  The result is C-contiguous and every row equals the
    single-source evaluation bit for bit.
    """
    # take() keeps the gathers C-ordered; fancy indexing would not
    radial = _radial_factor(basis._radial_orders, r[:, None]).take(basis._n_arr, axis=1)
    return radial * _theta_rows(basis, phi).take(basis._theta_col, axis=1)


def source_coefficients(basis, r, phi):
    """Projection coefficients of unit point sources over the whole basis.

    Entry k is the continuum overlap of mode k with the PSF shifted to
    polar position (r, phi); squares are the mode arrival probabilities.
    Scalar ``r`` and ``phi`` give shape (count,).  Arrays broadcast to
    one dimension (S,) give a C-contiguous (S, count) array whose rows
    equal the scalar calls bit for bit.  Radii must be finite and
    nonnegative and angles finite.
    """
    r, phi = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(phi, dtype=float))
    if r.ndim > 1:
        raise ValueError("source positions must be scalars or 1-D arrays")
    _check_sources(r, phi)
    rows = _source_rows(basis, np.atleast_1d(r), np.atleast_1d(phi))
    return rows[0] if r.ndim == 0 else rows


def source_coefficient_gradients(basis, r, phi):
    """Derivatives of the source projection coefficients, shape (count, 2).

    Columns are d/dr and d/dphi of each coefficient.  The radial factor
    derivative follows the Bessel ladder
    d/dr [sqrt(n+1) J_{n+1}(2 pi r)/(pi r)] =
    pi (J_{n-1} - J_{n+3})(2 pi r) / sqrt(n+1).
    """
    r_arr, phi_arr = np.array([float(r)]), np.array([float(phi)])
    _check_sources(r_arr, phi_arr)
    ns = basis._radial_orders
    j_all = bessel_j(np.arange(-1, basis.n_max + 4), 2.0 * math.pi * r)
    drow = math.pi * (j_all[ns] - j_all[ns + 4]) / basis._radial_norms
    col = basis._theta_col
    out = np.empty((basis.count, 2))
    out[:, 0] = drow[basis._n_arr] * _theta_rows(basis, phi_arr)[0, col]
    out[:, 1] = (
        _radial_factor(basis._radial_orders, r_arr)[basis._n_arr]
        * _theta_rows(basis, phi_arr, derivative=True)[0, col]
    )
    return out


def _source_probability_gradients(basis, r, phi):
    """(d/dr, d/dphi) of the per-mode probabilities of one point source."""
    if r < _R_EPS:
        # every |Gamma_k|^2 is stationary on axis
        return np.zeros(basis.count), np.zeros(basis.count)
    ns = basis._radial_orders
    x = 2.0 * math.pi * r
    j_all = bessel_j(np.arange(-1, basis.n_max + 4), x)  # orders -1 .. n_max+3
    j_np1 = j_all[ns + 2]
    j_diff = j_all[ns] - j_all[ns + 4]  # J_{n-1} - J_{n+3}
    rad_sq = (basis._radial_norms * j_np1 / (math.pi * r)) ** 2
    # d/dr |radial Gamma_n|^2 = 2 (J_{n+1}(2 pi r)/r) (J_{n-1} - J_{n+3})
    drad_sq = 2.0 * (j_np1 / r) * j_diff

    # squared with Python's float power (libm pow), which rounds apart from
    # x*x in the last bit for about 0.1% of inputs; the tables' reference
    # Fisher values (perfbench/reference) carry pow's rounding
    theta = _theta_rows(basis, np.array([float(phi)]))[0]
    theta_sq = np.array([t**2 for t in theta.tolist()])
    d_r = drad_sq[basis._n_arr] * theta_sq[basis._theta_col]
    # d/dphi Theta_m^2 = -+ 2|m| sin(2|m| phi): minus for cosine modes
    # (m > 0), plus for sine modes (m < 0), exactly zero for m = 0
    m = basis._m_arr
    sin_2m = _sin_2m(np.abs(m), phi - basis.rotation)
    d_phi = np.where(m == 0, 0.0, rad_sq[basis._n_arr] * (2.0 * -m) * sin_2m)
    return d_r, d_phi


def all_mode_probabilities(basis, scene, phi_delta=None, b=None):
    """Photon arrival probabilities over the truncated basis.

    ``all_mode_probabilities(basis, scene)`` takes one Scene and returns
    shape (count,).  ``all_mode_probabilities(basis, r_delta, phi_delta,
    b)`` takes separations and position angles that broadcast to one
    dimension (S,) and one brightness b, under the Scene domain
    (0 <= r_delta < inf, 0 <= phi_delta < 2 pi, 0 < b < 1), and returns a
    C-contiguous (S, count) array; row s equals the single-scene call on
    Scene(r_delta[s], phi_delta[s], b) bit for bit.  Star and planet of
    every scene are evaluated as one batch of the modal kernel.
    """
    single = isinstance(scene, Scene)
    if single:
        r_s, phi_s = scene.star_polar
        r_e, phi_e = scene.planet_polar
        b = scene.b
        r = np.array([r_s, r_e])
        phi = np.array([phi_s, phi_e])
    else:
        r_delta, phi_delta = np.broadcast_arrays(
            np.asarray(scene, dtype=float), np.asarray(phi_delta, dtype=float)
        )
        if r_delta.ndim != 1:
            raise ValueError("scene arrays must be one-dimensional")
        if not np.all((r_delta >= 0.0) & (r_delta < math.inf)):
            raise ValueError("separation r_delta must be finite and nonnegative")
        if not np.all((phi_delta >= 0.0) & (phi_delta < 2.0 * math.pi)):
            raise ValueError("phi_delta must lie in [0, 2*pi)")
        if not 0.0 < b < 1.0:
            raise ValueError("relative brightness b must lie in (0, 1)")
        r = np.concatenate([b * r_delta, (1.0 - b) * r_delta])
        phi = np.concatenate([(phi_delta + math.pi) % (2.0 * math.pi), phi_delta])
    p = _source_rows(basis, r, phi) ** 2
    p_star, p_planet = p[: r.size // 2], p[r.size // 2 :]
    # written so coincident sources give the single-source result exactly
    out = p_star + b * (p_planet - p_star)
    return out[0] if single else out


def all_probability_gradients(basis, scene):
    """Gradients of the scene mode probabilities, shape (count, 2).

    Columns are d/d(separation) and d/d(position angle).  The polar chart
    is singular at zero separation, so that is a domain error.
    """
    if scene.r_delta <= 0:
        raise ValueError("gradient undefined at zero separation")
    b = scene.b
    r_s, phi_s = scene.star_polar
    r_e, phi_e = scene.planet_polar
    ds_r, ds_phi = _source_probability_gradients(basis, r_s, phi_s)
    de_r, de_phi = _source_probability_gradients(basis, r_e, phi_e)
    # star radius is b*r_delta, planet radius (1-b)*r_delta; both angles
    # move one-to-one with the scene position angle
    d_r = (1.0 - b) * b * ds_r + b * (1.0 - b) * de_r
    d_phi = (1.0 - b) * ds_phi + b * de_phi
    return np.stack([d_r, d_phi], axis=1)


# ---------------------------------------------------------------------------
# grid realizations


def _radius_tables(basis, grid):
    """The radial factor per order per distinct pixel radius, and each pixel's radius.

    Returns (radial, index): ``radial`` has shape (n_max + 1, R) over the R
    distinct radii (83,122 among the 1,048,576 pixels of the default grid)
    and ``index`` is the (n, n) int32 map from each pixel to its radius.
    hypot(x, y) depends on |x| and |y| only, and pixel coordinates are
    (i - n/2) dx, so the distinct radii are found among the offsets
    0..n/2 of one quadrant and no full-grid float array is built.  Both
    tables are read-only.
    """
    n = grid.n_pixels
    offsets = grid.dx * np.arange(n // 2 + 1)
    # entry [p, q] is hypot(offsets[q], offsets[p]): x runs along the columns
    radii, quadrant = np.unique(np.hypot(offsets, offsets[:, None]), return_inverse=True)
    quadrant = quadrant.reshape(offsets.size, offsets.size).astype(np.int32)
    fold = np.abs(np.arange(n) - n // 2)
    index = quadrant[fold[:, None], fold]
    radial = _radial_factor(basis._radial_orders[:, None], radii)
    radial.flags.writeable = False
    index.flags.writeable = False
    return radial, index


@dataclass(frozen=True)
class ModeFieldSet:
    """Mode fields on a grid, discretely orthonormal, with no stack held.

    Mode k is chi_k = sum_j transform[k, j] raw_j, where raw_j is the
    sampled radial factor times Theta_m of mode j (the psi_nm of the module
    docstring less its sqrt(pi)).  The set keeps only the count x count
    float64 ``transform`` and the sampling tables of ``_radius_tables``:
    ``radial`` (the radial factor per order per distinct pixel radius) and
    ``radius_index`` (int32, one entry per pixel).  Every pass regenerates
    the raw samples in blocks of _ROW_BLOCK whole grid rows and applies
    ``transform`` on the small side, so beyond its tables a pass holds
    one count x (_ROW_BLOCK * n_pixels) float64 block and its angular rows.
    """

    basis: FourierZernikeBasis
    grid: GridSpec
    radial: np.ndarray
    radius_index: np.ndarray
    transform: np.ndarray

    @property
    def count(self):
        return self.basis.count

    def _raw_blocks(self):
        """The raw samples of every mode, _ROW_BLOCK grid rows at a time.

        Yields (rows, block): the slice of grid rows and a float64
        (count, pixels) array over their pixels, row-major.  The block's
        buffer is reused, so a caller reduces each block before taking the
        next.  Theta_m is evaluated once per angular index m, and every
        sample is the product radial * zernike_angular(m, phi) computed
        pixel by pixel over the whole grid, bit for bit.
        """
        basis, n = self.basis, self.grid.n_pixels
        ax = self.grid.axis()
        size = min(_ROW_BLOCK, n) * n
        buffer = np.empty(self.count * size)
        angular = np.empty((2 * basis.n_max + 1, size))
        for lo in range(0, n, _ROW_BLOCK):
            rows = slice(lo, min(lo + _ROW_BLOCK, n))
            x, y = np.meshgrid(ax, ax[rows])
            phi = np.arctan2(y, x).ravel() - basis.rotation
            pixels = phi.size
            for m in range(-basis.n_max, basis.n_max + 1):
                angular[m + basis.n_max, :pixels] = zernike_angular(m, phi)
            index = self.radius_index[rows].ravel()
            block = buffer[: self.count * pixels].reshape(self.count, pixels)
            for order in range(basis.n_max + 1):
                radial = self.radial[order].take(index)
                for m in range(-order, order + 1, 2):
                    np.multiply(
                        radial,
                        angular[m + basis.n_max, :pixels],
                        out=block[ZernikeIndex(order, m).linear],
                    )
            yield rows, block

    def _raw_gram(self, visit=None):
        """Gram matrix of the raw samples; ``visit(rows, block)`` sees every block."""
        g = np.zeros((self.count, self.count))
        for rows, block in self._raw_blocks():
            g += block @ block.T
            if visit is not None:
                visit(rows, block)
        return g * (self.grid.dx * self.grid.dx)

    def field(self, k):
        n = self.grid.n_pixels
        samples = np.empty((n, n))
        for rows, block in self._raw_blocks():
            samples[rows] = (self.transform[k] @ block).reshape(-1, n)
        return OpticalField(samples, "focal", self.grid.half_width)

    def project(self, field):
        """Coefficients <chi_k, field> for a focal-domain field on the grid.

        The real and imaginary parts of the field go through one real
        product per block, so no block is copied to complex.
        """
        if field.domain != "focal" or field.grid != self.grid:
            raise ValueError("field must live on the focal grid of the mode set")
        n = self.grid.n_pixels
        parts = np.ascontiguousarray(field.samples).view(np.float64).reshape(n, n, 2)
        acc = np.zeros((self.count, 2))
        for rows, block in self._raw_blocks():
            acc += block @ parts[rows].reshape(-1, 2)
        return (self.transform @ acc).view(complex)[:, 0] * (self.grid.dx * self.grid.dx)

    def synthesize(self, coeffs):
        """Field sum_k coeffs_k chi_k on the grid.

        The coefficients are folded into the raw basis first (c transform,
        as real and imaginary rows), so each block takes one real product.
        """
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.shape != (self.count,):
            raise ValueError("one coefficient per mode required")
        weights = (coeffs.view(np.float64).reshape(-1, 2).T @ self.transform).T
        n = self.grid.n_pixels
        samples = np.empty((n, n), dtype=complex)
        parts = samples.view(np.float64).reshape(n, n, 2)
        for rows, block in self._raw_blocks():
            parts[rows] = (block.T @ weights).reshape(-1, n, 2)
        return OpticalField(samples, "focal", self.grid.half_width)

    def gram(self):
        t = self.transform
        return t @ self._raw_gram() @ t.T


def mode_field_stack(basis, grid=None, visit=None):
    """Sample the basis on a grid and orthonormalize it against the discrete product.

    One pass over the raw samples sums their Gram matrix G.  Each mode is
    scaled to unit discrete norm by G's diagonal (which also drops the
    constant sqrt(pi) that separates psi_nm from the projection radial
    factor), and the scaled set is then rotated by the inverse square
    root of its Gram matrix (symmetric orthonormalization), which perturbs
    each field minimally while making the set exactly orthonormal on the
    grid.  Both steps live in the returned set's ``transform``; no field
    is stored.  ``visit(rows, block)``, when given, sees every raw block of
    that pass (see ``ModeFieldSet._raw_blocks``), so a caller can reduce
    the samples without generating them again.
    """
    grid = grid or default_grid()
    raw = ModeFieldSet(basis, grid, *_radius_tables(basis, grid), np.eye(basis.count))
    g = raw._raw_gram(visit)
    scale = 1.0 / np.sqrt(np.diag(g))
    vals, vecs = np.linalg.eigh(g * scale[:, None] * scale)
    if vals[0] <= 0:
        raise ValueError("sampled mode set is numerically degenerate")
    transform = ((vecs / np.sqrt(vals)) @ vecs.T) * scale
    return dataclasses.replace(raw, transform=transform)
