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
regenerates the samples on one quadrant of the grid, a block of rows at a
time, and reaches the other three through the parities of the modes.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .optics import _R_EPS, GridSpec, OpticalField, Scene
from .specfun import ZernikeIndex, bessel_j, zernike_angular

__all__ = [
    "FourierZernikeBasis",
    "ModeFieldSet",
    "all_mode_probabilities",
    "all_probability_gradients",
    "mode_field_stack",
    "source_coefficients",
]

# a block of every pass over the sampled modes holds no more float64 bytes
# than this many grid rows of every mode: 3.7 MB at n_max 6 and 65 MB at
# n_max 30 on the default grid (7.3 and 130 MB at 32 rows)
_ROW_BLOCK = 16

# radii per call of the radial factor when the sampling tables are built
_RADIAL_CHUNK = 4096


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
    n = 0, the PSF overlap Gamma_0.  Radii must be nonnegative and vary
    along one axis at most.  Below 1e-8 they take the exact on-axis value,
    1 for n = 0 and 0 otherwise, and never reach bessel_j: only the
    off-axis radii are gathered along that axis and evaluated, each by the
    same elementwise expression, so every entry is the same bits whichever
    radii share its call.  bessel_j still rejects NaN and infinite radii.
    """
    r = np.asarray(r, dtype=float)
    on_axis = r < _R_EPS
    if not on_axis.any():
        return np.sqrt(n + 1.0) * bessel_j(n + 1, 2.0 * math.pi * r) / (math.pi * r)
    shape = np.broadcast_shapes(np.shape(n), r.shape)
    if r.ndim == 0:
        return np.full(shape, np.equal(n, 0), dtype=float)
    if r.size > max(r.shape):
        raise ValueError("radii must vary along one axis at most")
    axis = r.shape.index(max(r.shape))
    off = np.flatnonzero(~on_axis)
    # formed before the output, so the peak stays at two output-sized arrays
    values = _radial_factor(n, r.take(off, axis=axis))
    out = np.empty(shape)
    index = [slice(None)] * len(shape)
    out_axis = len(shape) - r.ndim + axis
    index[out_axis] = np.flatnonzero(on_axis)
    out[tuple(index)] = np.equal(n, 0)
    index[out_axis] = off
    out[tuple(index)] = values
    return out


def _theta_rows(basis, phi):
    """Real angular factors Theta_m(phi - rotation), shape (S, 2 n_max + 1).

    ``phi`` has shape (S,); column n_max + m holds the factor of angular
    index m = -n_max..n_max.
    """
    arg = (phi - basis.rotation)[:, None] * basis._radial_orders[1:]
    root2 = math.sqrt(2.0)
    rows = np.empty((phi.size, 2 * basis.n_max + 1))
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
    per-order rows.  The radial rows are evaluated once per distinct
    radius: the 64 planets of a ``coarse_table`` separation share one.
    The result is C-contiguous and every row equals the single-source
    evaluation bit for bit.
    """
    radii, source_radius = np.unique(r, return_inverse=True)
    # take() keeps the gathers C-ordered; fancy indexing would not
    radial = _radial_factor(basis._radial_orders, radii[:, None]).take(source_radius, axis=0)
    radial = radial.take(basis._n_arr, axis=1)
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
    if not (r >= 0.0).all():
        raise ValueError("source radius must be nonnegative")
    if not np.isfinite(phi).all():
        raise ValueError("source angle must be finite")
    rows = _source_rows(basis, np.atleast_1d(r), np.atleast_1d(phi))
    return rows[0] if r.ndim == 0 else rows


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
#
# Pixel offsets run over -n/2 .. n/2 - 1 along each axis, and every raw
# sample R_n(r) Theta_m(phi) is even or odd under x -> -x and under
# y -> -y.  So the samples at the offsets 0..n/2 of one quadrant, where
# +n/2 stands in for its on-grid mirror -n/2, give every pixel of the grid
# up to a sign, and each pass over a mode set runs on that quadrant.

# the four mirror images of the quadrant, as signs (x, y) of the offsets
_IMAGES = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def _parities(m):
    """Signs of Theta_m under x -> -x and under y -> -y, as (x, y)."""
    even = 1 - 2 * (m % 2)
    return (even, 1) if m >= 0 else (-even, -1)


def _shift_terms(m, shift):
    """e^{i shift phi} Theta_m as {m': c}, the sum of c Theta_m'.

    Written through sqrt(2) cos(j phi) = Theta_|j| and sqrt(2) sin(j phi) =
    sign(j) Theta_-|j| (j != 0), so every coefficient is 1/2 or sqrt(1/2),
    times 1 or i.
    """

    def trig(cosine, j, c):
        # c sqrt(2) cos(j phi), or c sqrt(2) sin(j phi), over the Theta
        if j == 0:
            return {0: c * math.sqrt(2.0)} if cosine else {}
        return {abs(j): c} if cosine else {-abs(j): c if j > 0 else -c}

    k = abs(m)
    if m == 0:
        parts = [(True, shift, math.sqrt(0.5)), (False, shift, 1j * math.sqrt(0.5))]
    elif m > 0:
        parts = [(True, k + shift, 0.5), (True, k - shift, 0.5)]
        parts += [(False, k + shift, 0.5j), (False, k - shift, -0.5j)]
    else:
        parts = [(False, k + shift, 0.5), (False, k - shift, 0.5)]
        parts += [(True, k - shift, 0.5j), (True, k + shift, -0.5j)]
    terms = {}
    for cosine, j, c in parts:
        for target, d in trig(cosine, j, c).items():
            terms[target] = terms.get(target, 0.0) + d
    return terms


@cache
def _pass_layout(n_max, shift=0):
    """The functions R_n Theta_m that a pass samples, one per block row.

    Returns (functions, groups).  ``functions`` lists (n, m): the modes of
    the order-n_max basis first, then, for a nonzero ``shift``, the (n, m)
    with |m| > n that e^{i shift phi} carries the modes onto.  Each part
    is sorted by the parities of Theta_m, the modes keeping OSA order
    within a parity class.  ``groups`` lists (rows, x parity, y parity) for
    each run of rows that share their parities, ``rows`` a slice; no run
    holds both modes and other functions.
    """
    modes = [(idx.n, idx.m) for idx in FourierZernikeBasis(n_max).modes]
    extra = set()
    if shift:
        extra = {(n, t) for n, m in modes for t in _shift_terms(m, shift)} - set(modes)

    def key(function):
        return _parities(function[1])

    functions = sorted(modes, key=key) + sorted(sorted(extra), key=key)
    starts = [
        i
        for i, function in enumerate(functions)
        if i in (0, len(modes)) or key(function) != key(functions[i - 1])
    ]
    ends = starts[1:] + [len(functions)]
    groups = tuple((slice(lo, hi), *key(functions[lo])) for lo, hi in zip(starts, ends))
    return tuple(functions), groups


def _fold_rows(a, rows, parity):
    """Rows ``rows`` of the quadrant that a full-grid array folds onto.

    Row v of the result is a[n/2 + v] + parity * a[n/2 - v] over the
    leading axis of ``a`` (length n), each term where its row lies on the
    grid: row 0 is a[n/2] alone and row n/2 is parity * a[0] alone.  So the
    sum over the grid of a times a function of that parity is the sum over
    the quadrant of the fold times the function.
    """
    h = a.shape[0] // 2
    v = np.arange(rows.start, rows.stop)
    out = np.zeros((v.size,) + a.shape[1:], dtype=a.dtype)
    inside = v < h
    out[inside] = a[h + v[inside]]
    mirrored = v > 0
    out[mirrored] += parity * a[h - v[mirrored]]
    return out


def _axis_weights(width, parity):
    """How often the offsets 0..n/2 of one axis occur, for a product of parities.

    Offset 0 is one pixel; 1..n/2-1 are two, +u and its mirror -u, which
    the parity signs; n/2 is the one pixel -n/2, signed.
    """
    weights = np.full(width, 1.0 + parity)
    weights[0], weights[-1] = 1.0, parity
    return weights


def _quadrant_gram(gram, rows, block, groups):
    """Add the grid share of quadrant rows ``rows`` to the Gram matrix of ``groups``.

    A pair of groups weighs each quadrant pixel by the outer product of
    the ``_axis_weights`` of its parity products p (x) and q (y).  Those
    are 1 + p, or 1 + q, inside an axis and differ only at its two ends,
    so the sum is (1 + p)(1 + q), 4 within a group and 0 between groups,
    times the plain product, plus sums over the edge rows and columns
    alone: no weighted copy of a block is made.
    """
    width = block.shape[1] // (rows.stop - rows.start)
    v = np.arange(rows.start, rows.stop)
    edge_rows = np.flatnonzero((v == 0) | (v == width - 1))
    edge_cols = np.array([0, width - 1])
    for a, (rows_a, xa, ya) in enumerate(groups):
        for rows_b, xb, yb in groups[a:]:
            p, q = xa * xb, ya * yb
            dx = (_axis_weights(width, p) - (1 + p))[edge_cols]
            dy = (_axis_weights(width, q)[v] - (1 + q))[edge_rows]
            first, second = block[rows_a], block[rows_b]
            share = np.zeros((len(first), len(second)))
            if p == q == 1:
                share = 4.0 * (first @ second.T)
            edges = (
                (slice(None), edge_cols, np.outer(np.full(v.size, 1.0 + q), dx)),
                (edge_rows, slice(None), np.outer(dy, np.full(width, 1.0 + p))),
                (edge_rows, edge_cols, np.outer(dy, dx)),
            )
            for ys, xs, weights in edges:
                if weights.any():
                    a_edge, b_edge = (
                        f.reshape(len(f), v.size, width)[:, ys][:, :, xs].reshape(len(f), -1)
                        for f in (first, second)
                    )
                    share += (a_edge * weights.ravel()) @ b_edge.T
            gram[rows_a, rows_b] += share
            if rows_a != rows_b:
                gram[rows_b, rows_a] += share.T


def _fold_products(parts, rows, block, groups):
    """Sums over the grid of each group's samples times ``parts``, for quadrant rows ``rows``.

    ``parts`` is a real (n, n, k) array on the grid; the result is
    (rows of ``groups``, k).  Each group meets ``parts`` folded with its
    parities (``_fold_rows``) on the quadrant.
    """
    n, k = parts.shape[0], parts.shape[2]
    quadrant = slice(0, n // 2 + 1)
    out = np.empty((groups[-1][0].stop, k))
    for group, px, py in groups:
        folded = _fold_rows(_fold_rows(parts, rows, py).swapaxes(0, 1), quadrant, px)
        out[group] = block[group] @ folded.swapaxes(0, 1).reshape(-1, k)
    return out


def _unfold_into(out, rows, images):
    """Write the four mirror images of quadrant rows ``rows`` into the grid ``out``.

    ``images[(sx, sy)]`` holds the rows' values with that image's signs,
    shape (rows, n/2 + 1, ...): the image at offsets (sx u, sy v) covers
    the pixels whose offsets it reaches on the grid.
    """
    h = out.shape[0] // 2
    lo, hi = rows.start, rows.stop
    for (sx, sy), values in images.items():
        if sy > 0:
            target, values = slice(h + lo, h + min(hi, h)), values[: max(min(hi, h) - lo, 0)]
        else:
            start = max(lo, 1)
            target, values = slice(h + 1 - hi, h + 1 - start), values[start - lo :][::-1]
        if sx > 0:
            out[target, h:] = values[:, :h]
        else:
            out[target, :h] = values[:, h:0:-1]


def _radius_tables(basis, grid):
    """The radial factor per order per distinct quadrant radius, and each quadrant pixel's radius.

    Returns (radial, index): ``radial`` has shape (n_max + 1, R) over the R
    distinct radii (83,122 on the default grid) and ``index`` is the
    (n/2 + 1, n/2 + 1) int32 map from each pixel of the quadrant, offsets
    0..n/2 with x along the columns, to its radius.  hypot(x, y) depends on
    |x| and |y| only, so these are every radius of the grid.  Both tables
    are read-only.

    ``radial`` is filled _RADIAL_CHUNK radii at a time, which gives every
    entry the bits of one call over all radii (``_radial_factor``), and
    the index is each radius's place in the sorted distinct radii
    (``searchsorted``), the inverse of ``np.unique``.  On the default grid
    the build peaks at 6.7 MiB of ``tracemalloc`` at n_max 6 and 23.4 MiB
    at n_max 30, of which the tables are 5.4 and 20.7 MiB (12.9 and
    43.0 MiB with one call over every radius and ``np.unique``'s inverse).
    """
    offsets = grid.dx * np.arange(grid.n_pixels // 2 + 1)
    # entry [p, q] is hypot(offsets[q], offsets[p]): x runs along the columns
    pixel_radii = np.hypot(offsets, offsets[:, None])
    radii = np.unique(pixel_radii)
    index = np.searchsorted(radii, pixel_radii).astype(np.int32)
    del pixel_radii
    orders = basis._radial_orders[:, None]
    radial = np.empty((orders.size, radii.size))
    for lo in range(0, radii.size, _RADIAL_CHUNK):
        radial[:, lo : lo + _RADIAL_CHUNK] = _radial_factor(orders, radii[lo : lo + _RADIAL_CHUNK])
    radial.flags.writeable = False
    index.flags.writeable = False
    return radial, index


def _turn(basis):
    """The rotated angular factors over the unrotated ones, (count, count).

    Theta_m(phi - rotation) = cos(m rotation) Theta_m + sin(m rotation)
    Theta_-m for m > 0, and Theta_-m(phi - rotation) = cos(m rotation)
    Theta_-m - sin(m rotation) Theta_m: a 2 x 2 turn of each (n, +-m) pair.
    """
    turn = np.eye(basis.count)
    for k, idx in enumerate(basis.modes):
        if idx.m > 0:
            j = ZernikeIndex(idx.n, -idx.m).linear
            c, s = math.cos(idx.m * basis.rotation), math.sin(idx.m * basis.rotation)
            turn[k, k], turn[k, j], turn[j, j], turn[j, k] = c, s, c, -s
    return turn


@dataclass(frozen=True)
class ModeFieldSet:
    """Mode fields on a grid, discretely orthonormal, with no stack held.

    Mode k is chi_k = sum_j transform[k, j] raw_j, where raw_j is the
    sampled radial factor times Theta_m of mode j (the psi_nm of the module
    docstring less its sqrt(pi)).  The set keeps only the count x count
    float64 ``transform``, the raw samples' Gram matrix on the grid that it
    was built from (``raw_gram``, modes in OSA order), the smallest
    eigenvalue of that matrix scaled (``gram_floor``), and the sampling
    tables of ``_radius_tables`` on one quadrant of the grid: ``radial``
    (the radial factor per order per distinct radius) and ``radius_index``
    (int32, one entry per quadrant pixel).

    The set exists for extraction (``coronagraph.extract_operator``),
    which reduces its raw samples in one pass and builds no field from
    coefficients.  ``field`` samples one mode and ``project`` takes a
    field's coefficients: the grid references that the extracted
    operators are checked against.

    Every pass samples the modes on the quadrant's (n/2 + 1)^2 pixels only,
    unrotated, in blocks of whole quadrant rows (``_raw_blocks``), and
    reaches the grid through the parities of Theta_m: the Gram matrix and
    ``project`` fold, and ``field`` unfolds with the parity signs.  A
    rotated basis is the unrotated samples turned pair by pair (``_turn``),
    which the passes apply with ``transform`` on the small side.  Beyond
    its tables a pass holds one block, no more bytes than count x
    _ROW_BLOCK (16) grid rows of float64, 3.7 MB at n_max 6 and 65 MB at
    n_max 30 on the default grid, and the radial factor of each order on
    the block's pixels.
    """

    basis: FourierZernikeBasis
    grid: GridSpec
    radial: np.ndarray
    radius_index: np.ndarray
    transform: np.ndarray
    raw_gram: np.ndarray = None
    gram_floor: float = math.nan

    @property
    def count(self):
        return self.basis.count

    @cached_property
    def _weights(self):
        # the transform over the unrotated samples, modes in OSA order
        if not self.basis.rotation:
            return self.transform
        return self.transform @ _turn(self.basis)

    @cached_property
    def _order(self):
        # the OSA index of each mode row of a block
        functions, _ = _pass_layout(self.basis.n_max)
        return np.array([ZernikeIndex(*f).linear for f in functions[: self.count]])

    @cached_property
    def _mix(self):
        """chi_k over the mode rows of a block: (count, count)."""
        return self._weights[:, self._order]

    def _shifted_mix(self, shift):
        """e^{i shift phi} chi_k over the rows of a pass with that shift, (count, rows) complex."""
        functions, _ = _pass_layout(self.basis.n_max, shift)
        row = {function: i for i, function in enumerate(functions)}
        terms = np.zeros((self.count, len(functions)), dtype=complex)
        for i, (n, m) in enumerate(functions[: self.count]):
            for target, c in _shift_terms(m, shift).items():
                terms[i, row[n, target]] += c
        return self._mix @ terms

    def _raw_blocks(self, shift=0):
        """The unrotated raw samples on the quadrant, a block of its rows at a time.

        Yields (rows, block): the slice of quadrant rows (offsets y / dx)
        and a float64 (functions, pixels) array over their pixels,
        row-major, one row per function of ``_pass_layout(n_max, shift)``.
        The block's buffer is reused, so a caller reduces each block before
        taking the next.  The radial factor is gathered once per order and
        Theta_m evaluated once per angular index m, and every sample is the
        product radial * zernike_angular(m, phi), the per-pixel formula bit
        for bit.
        """
        basis, n = self.basis, self.grid.n_pixels
        functions, _ = _pass_layout(basis.n_max, shift)
        width = n // 2 + 1
        offsets = self.grid.dx * np.arange(width)
        top = basis.n_max + abs(shift)
        step = max(1, _ROW_BLOCK * n * self.count // (len(functions) * width))
        size = min(step, width) * width
        buffer = np.empty(len(functions) * size)
        radial = np.empty((basis.n_max + 1, size))
        members = [[] for _ in range(2 * top + 1)]
        for i, (order, m) in enumerate(functions):
            members[m + top].append((i, order))
        for lo in range(0, width, step):
            rows = slice(lo, min(lo + step, width))
            phi = np.arctan2(offsets[rows, None], offsets).ravel()
            pixels = phi.size
            index = self.radius_index[rows].ravel()
            for order in range(basis.n_max + 1):
                self.radial[order].take(index, out=radial[order, :pixels], mode="clip")
            block = buffer[: len(functions) * pixels].reshape(len(functions), pixels)
            for m, rows_of_m in enumerate(members, start=-top):
                if rows_of_m:
                    angular = zernike_angular(m, phi)
                    for i, order in rows_of_m:
                        np.multiply(radial[order, :pixels], angular, out=block[i])
            yield rows, block

    def _raw_gram(self, visit=None, shift=0):
        """Gram matrix of the raw samples over the grid, modes in OSA order.

        ``visit(rows, block)`` sees every block of ``_raw_blocks(shift)``.
        """
        _, groups = _pass_layout(self.basis.n_max)
        g = np.zeros((self.count, self.count))
        for rows, block in self._raw_blocks(shift):
            _quadrant_gram(g, rows, block, groups)
            if visit is not None:
                visit(rows, block)
        order = self._order
        osa = np.empty_like(g)
        osa[np.ix_(order, order)] = g
        if self.basis.rotation:
            turn = _turn(self.basis)
            osa = turn @ osa @ turn.T
        return osa * (self.grid.dx * self.grid.dx)

    @cached_property
    def _image_signs(self):
        """The parity signs of a block's mode rows in each mirror image: (4, count)."""
        functions, _ = _pass_layout(self.basis.n_max)
        px, py = np.array([_parities(m) for _, m in functions[: self.count]], dtype=float).T
        return np.array(
            [np.where(sx < 0, px, 1.0) * np.where(sy < 0, py, 1.0) for sx, sy in _IMAGES]
        )

    def field(self, k):
        """Mode k on the grid: sum_j transform[k, j] raw_j, summed over j in OSA order.

        The sum runs term by term, one scaled sample row at a time, so each
        sample is the plain left-to-right sum whatever the block's size.
        """
        n = self.grid.n_pixels
        signs = self._image_signs
        osa_rows = np.argsort(self._order)
        samples = np.empty((n, n))
        for rows, block in self._raw_blocks():
            images = np.zeros((len(_IMAGES), block.shape[1]))
            term = np.empty(block.shape[1])
            for row in osa_rows:
                weight = self._weights[k, self._order[row]]
                for image, sign in zip(images, signs[:, row]):
                    image += np.multiply(block[row], weight * sign, out=term)
            images = images.reshape(len(_IMAGES), -1, n // 2 + 1)
            _unfold_into(samples, rows, dict(zip(_IMAGES, images)))
        return OpticalField(samples, "focal", self.grid.half_width)

    def project(self, field):
        """Coefficients <chi_k, field> for a focal-domain field on the grid.

        The samples of a real field, or the real and imaginary parts of a
        complex one side by side, go through one real product per block
        and parity class, folded onto the quadrant (``_fold_products``), so
        no block is copied to complex.  A real field gives real
        coefficients.
        """
        if field.domain != "focal" or field.grid != self.grid:
            raise ValueError("field must live on the focal grid of the mode set")
        n = self.grid.n_pixels
        samples = np.ascontiguousarray(field.samples)
        parts = samples.view(np.float64).reshape(n, n, -1)
        _, groups = _pass_layout(self.basis.n_max)
        acc = np.zeros((self.count, parts.shape[2]))
        for rows, block in self._raw_blocks():
            acc += _fold_products(parts, rows, block, groups)
        return (self._mix @ acc).view(samples.dtype)[:, 0] * (self.grid.dx * self.grid.dx)

    def gram(self):
        """Gram matrix of the modes on the grid, from ``raw_gram``: no pass over the samples."""
        t = self.transform
        return t @ self.raw_gram @ t.T


def mode_field_stack(basis, grid=None, visit=None, shift=0):
    """Sample the basis on a grid and orthonormalize it against the discrete product.

    One pass over the raw samples sums their Gram matrix G on the grid from
    one quadrant (``ModeFieldSet._raw_gram``).  Each mode is scaled to unit
    discrete norm by G's diagonal (which also drops the constant sqrt(pi)
    that separates psi_nm from the projection radial factor), and the
    scaled set is then rotated by the inverse square root of its Gram
    matrix (symmetric orthonormalization), which perturbs each field
    minimally while making the set exactly orthonormal on the grid.  Both
    steps live in the returned set's ``transform``, G in its ``raw_gram``
    and the scaled Gram matrix's smallest eigenvalue in its ``gram_floor``;
    no field is stored.  ``visit(rows, block)``, when given, sees every raw
    block of that pass (``ModeFieldSet._raw_blocks(shift)``, which with a
    nonzero ``shift`` also samples the functions that e^{i shift phi}
    carries the modes onto), so a caller can reduce the samples without
    generating them again.  At n_max 6 on the default grid the build peaks
    at 10.2 MiB of ``tracemalloc``: the tables, then one block (16.6 MiB
    with 32-row blocks and the one-call tables).
    """
    grid = grid or GridSpec()
    raw = ModeFieldSet(basis, grid, *_radius_tables(basis, grid), np.eye(basis.count))
    g = raw._raw_gram(visit, shift)
    scale = 1.0 / np.sqrt(np.diag(g))
    vals, vecs = np.linalg.eigh(g * scale[:, None] * scale)
    if vals[0] <= 0:
        raise ValueError("sampled mode set is numerically degenerate")
    transform = ((vecs / np.sqrt(vals)) @ vecs.T) * scale
    return dataclasses.replace(raw, transform=transform, raw_gram=g, gram_floor=float(vals[0]))
