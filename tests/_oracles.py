"""Independent reference evaluations shared by the test modules.

Nothing in here touches the package under test.  Bessel values come from
Miller's backward recurrence (normalized through the even-order closure
J_0 + 2 sum J_2k = 1) and from the defining power series; roots are found
by bisection on those routes.
"""

import math

import numpy as np


def miller_row(x, n_top):
    """J_0(x)..J_{n_top}(x) by backward recurrence with closure normalization."""
    if x == 0.0:
        row = np.zeros(n_top + 1)
        row[0] = 1.0
        return row
    start = int(n_top + 2 * math.sqrt(n_top + 10) + x + 40)
    row = np.zeros(start + 2)
    row[start] = 1e-300
    for k in range(start, 0, -1):
        row[k - 1] = 2.0 * k / x * row[k] - row[k + 1]
        if abs(row[k - 1]) > 1e250:
            row[k - 1 :] *= 1e-250
    norm = row[0] + 2.0 * np.sum(row[2:start:2])
    return row[: n_top + 1] / norm


def series_j(n, x, terms=60):
    """Power series for J_n(x); accurate for small x."""
    acc = 0.0
    for k in range(terms):
        acc += (-1) ** k * (x / 2.0) ** (n + 2 * k) / (
            math.factorial(k) * math.factorial(n + k)
        )
    return acc


def j1_first_zero():
    """First positive zero of J_1 by bisection on the power series."""
    lo, hi = 3.0, 4.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if series_j(1, lo) * series_j(1, mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def j2_first_zero():
    """First positive zero of J_2 by bisection on the power series."""
    lo, hi = 4.0, 6.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if series_j(2, lo) * series_j(2, mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def polar_gauss_legendre(n_rad, n_ang, r_max=1.0):
    """Product Gauss-Legendre rule on the disk of radius r_max.

    Returns (x, y, w) flattened; w already carries the r Jacobian.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_rad)
    r = 0.5 * r_max * (nodes + 1.0)
    wr = 0.5 * r_max * weights * r
    theta = (np.arange(n_ang) + 0.5) * 2.0 * math.pi / n_ang
    wt = 2.0 * math.pi / n_ang
    R, T = np.meshgrid(r, theta, indexing="ij")
    W = np.broadcast_to(wr[:, None] * wt, R.shape)
    return (R * np.cos(T)).ravel(), (R * np.sin(T)).ravel(), W.ravel()


def embed(values, box, n, fill=0.0):
    """``values`` given on ``box`` (row and column slices) on an n x n grid.

    Every sample off the box is ``fill``: zero for a pupil-plane element,
    one for a focal mask.  The full-grid oracles read boxed arrays through
    this, so they compare the same samples they compared on the grid.
    """
    out = np.full((n, n), fill, dtype=np.asarray(values).dtype)
    out[box] = values
    return out
