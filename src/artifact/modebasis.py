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
`mode_field_stack`, which samples the functions and then symmetrically
orthonormalizes the stack against the discrete inner product: on a finite
window the raw samples lose percent-level norm to the truncated Airy tails,
and the orthonormalization restores an exactly unitary mode set while
moving each field by only O(1e-3) at low order.
"""

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

# pixels per block in every pass over a grid mode stack
_PIXEL_CHUNK = 65536


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
    mode stack (psi_nm is this factor times sqrt(pi) times Theta_m) and, at
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


@dataclass(frozen=True)
class ModeFieldSet:
    """Stack of mode fields sampled on a grid, discretely orthonormal.

    The stack is stored float32, shape (count, n_pixels**2); inner products
    are accumulated in float64.  Every pass over the stack runs over
    blocks of _PIXEL_CHUNK pixels with all modes at once, so beyond the
    float32 stack it holds about three count x 65,536 float64 blocks.
    """

    basis: FourierZernikeBasis
    grid: GridSpec
    stack: np.ndarray

    @property
    def count(self):
        return self.stack.shape[0]

    def _blocks(self):
        """(pixel slice, float64 copy of the stack there), chunk by chunk."""
        for lo in range(0, self.stack.shape[1], _PIXEL_CHUNK):
            cols = slice(lo, lo + _PIXEL_CHUNK)
            yield cols, self.stack[:, cols].astype(np.float64)

    def field(self, k):
        n = self.grid.n_pixels
        samples = self.stack[k].astype(np.float64).reshape(n, n)
        return OpticalField(samples, "focal", self.grid.half_width)

    def project(self, field):
        """Coefficients <chi_k, field> for a focal-domain field on the grid."""
        if field.domain != "focal" or field.grid != self.grid:
            raise ValueError("field must live on the focal grid of the stack")
        flat = field.samples.ravel()
        out = np.zeros(self.count, dtype=complex)
        for cols, b in self._blocks():
            out += b @ flat[cols]
        return out * (self.grid.dx * self.grid.dx)

    def synthesize(self, coeffs):
        """Field sum_k coeffs_k chi_k on the grid."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.count,):
            raise ValueError("one coefficient per mode required")
        n = self.grid.n_pixels
        acc = np.empty(n * n, dtype=complex)
        for cols, b in self._blocks():
            acc[cols] = coeffs @ b
        return OpticalField(acc.reshape(n, n), "focal", self.grid.half_width)

    def gram(self):
        g = np.zeros((self.count, self.count))
        for _, b in self._blocks():
            g += b @ b.T
        return g * (self.grid.dx * self.grid.dx)


def mode_field_stack(basis, grid=None):
    """Sample the basis on a grid and orthonormalize the discrete stack.

    Each mode is sampled in the focal plane, renormalized to unit discrete
    norm, and the whole stack is then rotated by the inverse square root of
    its Gram matrix (symmetric orthonormalization), which perturbs each
    field minimally while making the set exactly orthonormal on the grid.
    The renormalization also drops the constant sqrt(pi) that separates
    psi_nm from the projection radial factor.  The rotation is done in
    place, one pixel chunk at a time, so the build holds a single float32
    stack.
    """
    grid = grid or default_grid()
    x, y = grid.mesh()
    r = np.hypot(x, y).ravel()
    phi = (np.arctan2(y, x).ravel() - basis.rotation)
    dx = grid.dx
    # the radial factor once per distinct radius (83,122 among the
    # 1,048,576 pixels of the default grid), scattered back per pixel
    r_distinct, r_index = np.unique(r, return_inverse=True)

    count = basis.count
    stack = np.empty((count, r.size), dtype=np.float32)
    # one radial order at a time, so only one radial row is held
    for n in range(basis.n_max + 1):
        radial = _radial_factor(n, r_distinct)[r_index]
        for m in range(-n, n + 1, 2):
            samples = radial * zernike_angular(m, phi)
            samples /= math.sqrt(float(np.dot(samples, samples)) * dx * dx)
            stack[ZernikeIndex(n, m).linear] = samples.astype(np.float32)
    # the per-pixel sampling arrays (about 56 MB on the default grid) are
    # freed before the Gram and the rotation
    del x, y, r, phi, r_distinct, r_index, radial, samples

    fields = ModeFieldSet(basis, grid, stack)
    g = fields.gram()
    vals, vecs = np.linalg.eigh(g)
    if vals[0] <= 0:
        raise ValueError("sampled mode stack is numerically degenerate")
    rot = (vecs / np.sqrt(vals)) @ vecs.T
    # rotated in place, chunk by chunk; rebinding b frees each input block
    # before the next is read, and adding 0.0 turns -0.0 into 0.0, as a sum
    # started from zero does
    for cols, b in fields._blocks():
        b = rot @ b
        b += 0.0
        stack[:, cols] = b
    return fields
