"""Special-function kernel: integer-order Bessel J and Zernike factors.

Everything downstream (mode overlaps, information bounds, coronagraph
spectra) reduces to integer-order Bessel functions of modest argument and
to Zernike radial/angular factors on the unit disk.  This module pins the
conventions: radial polynomials carry the sqrt(n+1) normalization and the
angular factors are the real cosine/sine pair.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "ORDER_LIMIT",
    "ZernikeIndex",
    "bessel_j",
    "zernike_radial",
    "zernike_angular",
]

# Largest |order| accepted; chosen with headroom above the n_max = 500 basis
# truncations used in saturation studies (orders up to n_max + 3 appear in
# derivative formulas).
ORDER_LIMIT = 650


def bessel_j(n, x):
    """Bessel function of the first kind, integer order.

    Parameters
    ----------
    n : int or array_like of int
        Order with |n| <= 650.  Negative orders follow the reflection
        identity J_{-n} = (-1)^n J_n.
    x : float or array_like
        Finite, nonnegative argument.

    Returns
    -------
    float or ndarray
        J_n(x), broadcast over the inputs.  Absolute accuracy is well below
        1e-12 for x in [0, 100] at any supported order.
    """
    n_arr = np.asarray(n)
    if n_arr.dtype.kind not in "iu":
        rounded = np.round(n_arr)
        if not np.all(n_arr == rounded):
            raise ValueError("Bessel order must be an integer")
        n_arr = rounded.astype(np.int64)
    # array methods rather than np.any/np.all: this runs once per modal
    # kernel call, tens of thousands of times in a Monte-Carlo run
    if (np.abs(n_arr) > ORDER_LIMIT).any():
        raise ValueError(f"Bessel order out of supported range [-{ORDER_LIMIT}, {ORDER_LIMIT}]")
    x_arr = np.asarray(x, dtype=float)
    if not np.isfinite(x_arr).all():
        raise ValueError("Bessel argument must be finite")
    if (x_arr < 0).any():
        raise ValueError("Bessel argument must be nonnegative")
    out = np.asarray(special.jv(n_arr, x_arr))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, order=True)
class ZernikeIndex:
    """Radial order ``n`` and signed azimuthal index ``m``.

    Valid pairs satisfy |m| <= n with n - |m| even.  ``linear`` gives the
    position in the standard single-index (OSA/ANSI) ordering, in which the
    pair (0, 0) maps to 0 and consecutive indices sweep m from -n to n
    within each radial order.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or abs(self.m) > self.n or (self.n - self.m) % 2 != 0:
            raise ValueError(f"invalid Zernike index pair (n={self.n}, m={self.m})")

    @property
    def linear(self):
        return (self.n * (self.n + 2) + self.m) // 2

    @classmethod
    def from_linear(cls, k):
        if k < 0:
            raise ValueError("linear Zernike index must be nonnegative")
        n = (math.isqrt(8 * k + 1) - 1) // 2
        return cls(n, 2 * k - n * (n + 2))


def zernike_radial(idx, u):
    """Radial Zernike polynomial R_nm(u), including the sqrt(n+1) factor.

    ``u`` may be a scalar or array with entries in [0, 1].
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0) or np.any(u_arr > 1):
        raise ValueError("radial coordinate must lie in [0, 1]")
    n, m = idx.n, abs(idx.m)
    acc = np.zeros_like(u_arr)
    for j in range((n - m) // 2 + 1):
        coef = (-1) ** j * math.factorial(n - j) / (
            math.factorial(j)
            * math.factorial((n + m) // 2 - j)
            * math.factorial((n - m) // 2 - j)
        )
        acc = acc + coef * u_arr ** (n - 2 * j)
    out = math.sqrt(n + 1) * acc
    if np.asarray(u).ndim == 0:
        return float(out)
    return out


def zernike_angular(m, theta):
    """Real angular factor: sqrt(2) cos(|m| theta) for m>0, 1 for m=0, sqrt(2) sin(|m| theta) for m<0."""
    theta_arr = np.asarray(theta, dtype=float)
    if m > 0:
        out = math.sqrt(2.0) * np.cos(m * theta_arr)
    elif m < 0:
        out = math.sqrt(2.0) * np.sin(-m * theta_arr)
    else:
        out = np.ones_like(theta_arr)
    if np.asarray(theta).ndim == 0:
        return float(out)
    return out

