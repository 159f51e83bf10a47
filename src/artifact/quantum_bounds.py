"""Quantum limits on detecting and localizing a faint companion.

Closed forms for the optimal discrimination exponent (star-only versus
star-plus-planet) and for the 2x2 Fisher information matrix of the polar
separation parameters, both specialized to a clear circular aperture.
Helpers convert either bound into photon counts and integration times and
tabulate requirement maps over separation and contrast grids.

All separations are in diffraction-normalized focal units; quote them in
Airy-sigma units only through `optics.separation_from_sigma_units`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .modebasis import _radial_factor
from .optics import _R_EPS, Scene, separation_from_sigma_units
from .specfun import bessel_j

__all__ = [
    "FisherMatrix",
    "localization_photons",
    "photon_requirement_map",
    "qce",
    "qce_high_contrast",
    "qfim_diagonal",
    "qfim_high_contrast",
    "qfim_polar",
    "sigma_loc",
]


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric 2x2 information matrix over (separation, position angle).

    Holds either the measurement-independent bound or a specific
    measurement's matrix.  The scene the matrix was evaluated at is kept
    so downstream error combiners know the separation.  An infinite
    entry is accepted only as diag(w, inf) with w >= 0, the matrix that
    qfim_polar builds from about 1e153 sigma, where r^2 overflows.
    """

    entries: np.ndarray
    scene: Scene

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (2, 2):
            raise ValueError("Fisher matrix must be 2x2")
        if np.isnan(entries).any():
            raise ValueError("Fisher matrix has a NaN entry")
        if np.isinf(entries).any():
            psd = entries[0, 1] == entries[1, 0] == 0.0 and entries.diagonal().min() >= 0.0
        else:
            entries = 0.5 * (entries + entries.T)
            scale = max(1.0, float(np.abs(entries).max()))
            psd = float(np.linalg.eigvalsh(entries)[0]) >= -1e-12 * scale
        if not psd:
            raise ValueError("Fisher matrix is not positive semidefinite")
        object.__setattr__(self, "entries", entries)

    def dominates(self, other):
        """True when self - other is PSD within 1e-9 of self's trace."""
        gap = self.entries - other.entries
        floor = -1e-9 * max(1.0, float(np.trace(self.entries)))
        return float(np.linalg.eigvalsh(gap)[0]) >= floor


def _gamma0(r):
    """Overlap of the aperture PSF with a copy displaced radially by r."""
    # it and _overlap_slope_factor fall as r^-3/2: 0 long before 2 pi r overflows
    if 2.0 * math.pi * float(r) == math.inf:
        return 0.0
    return float(_radial_factor(0, r))


def _overlap_slope_factor(r):
    """2 J_2(2 pi r)/(pi r); the radial slope of the PSF overlap over -pi."""
    if r < _R_EPS or 2.0 * math.pi * float(r) == math.inf:
        return 0.0
    return float(2.0 * bessel_j(2, 2.0 * math.pi * r) / (math.pi * r))


def qce(scene):
    """Optimal exponent for discriminating the scene from its bare star.

    Returns -log of the fundamental-mode survival probability of the
    two-source mixture; nonnegative, and exactly zero at zero separation
    where the two hypotheses coincide.  The overlaps fall as r^-3/2, so
    by 1e108 sigma the survival probability underflows to zero; a
    ValueError naming r_delta is raised there.
    """
    if scene.r_delta == 0.0:
        return 0.0
    b = scene.b
    g_star = _gamma0(b * scene.r_delta)
    g_planet = _gamma0((1.0 - b) * scene.r_delta)
    survival = (1.0 - b) * g_star**2 + b * g_planet**2
    if survival == 0.0:
        raise ValueError(
            f"separation r_delta={scene.r_delta:g} is too large: the "
            "fundamental-mode survival probability underflows"
        )
    return max(0.0, -math.log(survival))


def qce_high_contrast(r_delta, b):
    """Leading small-b exponent b*(1 - Gamma_0(r_delta)^2).

    Only the leading order in b, so it approaches qce as b -> 0; it is
    computed for any b in (0, 1).
    """
    if r_delta < 0:
        raise ValueError("separation must be nonnegative")
    if not 0.0 < b < 1.0:
        raise ValueError("relative brightness b must lie in (0, 1)")
    g = _gamma0(r_delta)
    return b * (1.0 - g * g)


def _qfim_entries(r_delta, b):
    """(K_rr, K_phiphi) at one separation for a contrast or an array of them.

    The arithmetic of qfim_diagonal, elementwise over b.  Squares go
    through float_power, which rounds as Python's float ** does (numpy's
    ** 2 is x * x and differs in the last bit of about 1 in 1,200 values),
    so scalar and array calls agree bit for bit; unlike **, it overflows a
    huge separation's square to inf instead of raising.
    """
    b = np.asarray(b, dtype=float)
    kappa = 1.0 - 2.0 * b
    weight = 4.0 * b * (1.0 - b) * math.pi**2
    g = _overlap_slope_factor(r_delta)
    with np.errstate(over="ignore"):
        r_sq = np.float_power(r_delta, 2.0)
    return weight * (1.0 - np.float_power(kappa * g, 2.0)), weight * r_sq


def qfim_diagonal(scene):
    """(K_rr, K_phiphi) of the exact quantum Fisher matrix, clear aperture.

    K_rr = 4 b (1-b) pi^2 [1 - kappa^2 (2 J_2(2 pi r)/(pi r))^2] with
    kappa = 1 - 2b, and K_phiphi = 4 b (1-b) pi^2 r^2.  At zero
    separation this is the limit r -> 0: the radial entry 4 b (1-b) pi^2
    survives below the diffraction limit while the angular entry vanishes.
    """
    k_rr, k_phiphi = _qfim_entries(scene.r_delta, scene.b)
    return float(k_rr), float(k_phiphi)


def qfim_polar(scene):
    """Exact quantum Fisher matrix of (r_delta, phi_delta), clear aperture.

    Diagonal by rotational symmetry, with the entries of qfim_diagonal.
    Rejects zero separation, where the polar chart is singular.
    """
    if scene.r_delta <= 0:
        raise ValueError("polar chart is singular at zero separation")
    return FisherMatrix(np.diag(qfim_diagonal(scene)), scene)


def qfim_high_contrast(r_delta, b):
    """Small-b limit of qfim_polar: diag 4 pi^2 b [1 - g^2, r_delta^2].

    g = 2 J_2(2 pi r)/(pi r) vanishes both on axis and at every zero of
    J_2, so the radial entry saturates at 4 pi^2 b there.
    """
    if r_delta < 0:
        raise ValueError("separation must be nonnegative")
    g = _overlap_slope_factor(r_delta)
    k11 = 4.0 * math.pi**2 * b * (1.0 - g * g)
    k22 = 4.0 * math.pi**2 * b * r_delta**2
    return FisherMatrix(np.diag([k11, k22]), Scene(r_delta, 0.0, b))


def _cramer_rao_bracket(k11, k22, r_delta):
    """Per-photon combined variance 1/K_11 + r^2/K_22; takes arrays too.

    Raises ValueError naming r_delta where an entry is not positive (at
    1e-300 sigma the quantum K_22 underflows to 0) or where r^2 or K_22
    overflows (from about 1e153 sigma) into inf/inf or a false 0.  r * r
    is not float_power: pow rounds 1 in 1,200 squares differently.
    """
    if np.any(k11 <= 0.0) or np.any(k22 <= 0.0):
        raise ValueError(f"Fisher matrix is singular at r_delta={r_delta:g}")
    # a numpy r squares to inf with a warning, and a tiny K_22 gives an
    # infinite variance: both overflows are silenced and the first named
    with np.errstate(over="ignore"):
        r_sq = r_delta * r_delta
        if r_sq == math.inf or np.any(k22 == math.inf):
            raise ValueError(f"separation r_delta={r_delta:g} is too large: r^2/K_22 overflows")
        return 1.0 / k11 + r_sq / k22


def _target_photons(bracket, rel_error, r_delta):
    """Photons bracket / (rel_error r)^2 for a sigma_loc/r target; takes arrays.

    The square rounds as ** does but overflows to inf (no photons) or to 0
    instead of raising; an infinite variance needs infinitely many photons.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        photons = bracket / np.float_power(rel_error * r_delta, 2.0)
    return np.where(bracket == math.inf, math.inf, photons)


def _fisher_bracket(fisher):
    """_cramer_rao_bracket of a FisherMatrix at its stored scene."""
    e = fisher.entries
    return _cramer_rao_bracket(float(e[0, 0]), float(e[1, 1]), fisher.scene.r_delta)


def sigma_loc(fisher, n_photons):
    """Combined localization error sqrt(sigma_r^2 + (r sigma_phi)^2).

    Uses the diagonal Cramer-Rao variances of the supplied Fisher matrix
    at its stored scene separation, for n_photons detected photons.
    """
    if not n_photons > 0:  # False for NaN
        raise ValueError(f"photon count must be positive, got {n_photons!r}")
    return math.sqrt(_fisher_bracket(fisher) / n_photons)


def localization_photons(fisher, rel_error):
    """Photons for a relative localization error sigma_loc/r_delta target.

    ``fisher`` is any FisherMatrix (the quantum bound or a measurement's
    classical matrix); the separation is that of its stored scene.
    """
    if not rel_error > 0:  # False for NaN
        raise ValueError(f"rel_error must be positive, got {rel_error!r}")
    return float(_target_photons(_fisher_bracket(fisher), rel_error, fisher.scene.r_delta))


def photon_requirement_map(r_over_sigma_values, b_values, task="detection",
                           target=1e-3, prescription=None):
    """Requirement map rows over a (separation, contrast) grid.

    Rows are (r_delta_over_sigma, b, photons, seconds) in row-major order
    over the two input axes.  For task "detection" the target is an error
    probability in (0, 1); for task "localization" it is a relative
    localization error sigma_loc/r_delta > 0.  A zero separation reads
    infinite photons and seconds for either task: the detection exponent
    vanishes there and sigma_loc/r_delta has no finite budget.  seconds
    is NaN when no prescription is given.
    """
    if task not in ("detection", "localization"):
        raise ValueError("task must be 'detection' or 'localization'")
    if task == "detection" and not 0.0 < target < 1.0:
        raise ValueError(
            f"detection error-probability target {target!r} must lie in (0, 1)"
        )
    if task == "localization" and not target > 0.0:
        raise ValueError(
            f"relative localization error target {target!r} must be positive"
        )
    b_axis = np.asarray(b_values, dtype=float)
    if not np.all((b_axis > 0.0) & (b_axis < 1.0)):
        raise ValueError("relative brightness b must lie in (0, 1)")
    flux = prescription.photon_flux_hz if prescription is not None else None
    rows = np.empty((len(r_over_sigma_values), len(b_axis), 4))
    for row, r_sigma in zip(rows, r_over_sigma_values):
        r_delta = separation_from_sigma_units(r_sigma)
        if not 0.0 <= r_delta < math.inf:
            raise ValueError("separation r_delta must be finite and nonnegative")
        if task == "detection":
            # per point until qce is an array form (ROADMAP item 2)
            xi = np.array([qce(Scene(r_delta, 0.0, b)) for b in b_values])
            with np.errstate(divide="ignore"):
                photons = -math.log(target) / xi
        elif r_delta == 0.0:
            photons = np.full(len(b_axis), math.inf)
        else:
            # the rows of localization_photons(qfim_polar(scene), target)
            k_rr, k_phiphi = _qfim_entries(r_delta, b_axis)
            bracket = _cramer_rao_bracket(k_rr, k_phiphi, r_delta)
            photons = _target_photons(bracket, target, r_delta)
        row[:, 0] = r_sigma
        row[:, 1] = b_axis
        row[:, 2] = photons
        row[:, 3] = photons / flux if flux is not None else math.nan
    return rows.reshape(-1, 4)
