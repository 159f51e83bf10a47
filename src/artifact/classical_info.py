"""Information delivered by concrete measurements of a faint-companion scene.

Per-photon discrimination exponents and localization Fisher matrices for
the simulated measurement chains: photon counting in the analytic mode
basis, and the three nulling chains followed by either detect-or-absorb
counting or ideal imaging on the sampling grid.  Everything here is built
to compare directly against the measurement-independent limits in
quantum_bounds, so scalar exponents share that module's overlap
evaluation and matrix results use its FisherMatrix container.
"""

import functools
import math

import numpy as np

from .coronagraph import _stage_scene, output_state_image
from .modebasis import (
    FourierZernikeBasis,
    _sin_2m,
    all_mode_probabilities,
    all_probability_gradients,
    source_coefficients,
)
from .optics import _CHUNK, AIRY_SIGMA, Scene, wrap_angle
from .quantum_bounds import FisherMatrix, _gamma0, qce

__all__ = [
    "PSF_THROUGHPUT_CEILING",
    "brightness_leakage_ratio",
    "cce_coronagraph",
    "cce_spade_binary",
    "cfim_direct_imaging",
    "cfim_spade",
    "imaging_step",
    "per_mode_information",
    "psf_throughput",
]

# largest on-axis leak for which detect-or-absorb counting is meaningful
PSF_THROUGHPUT_CEILING = 1e-3

# rotation of the sorter that cfim_spade falls back to on a lattice angle: a
# generic angle, so the rotated sorter's own lattice misses every lattice
# angle (checked to n_max 60)
_LATTICE_ROTATION = 0.1


@functools.cache
def _lattice_basis(n_max):
    """The rotated sorter of cfim_spade's lattice angles, one per n_max.

    Shared across calls, so its cached mode tables are built once: a sweep
    of the 4,651 lattice angles at n_max 60 would otherwise rebuild them
    on every call.
    """
    return FourierZernikeBasis(n_max, rotation=_LATTICE_ROTATION)


# 1 - Gamma_0^2 = sum_n d_n x^n over n >= 1, with x = (u/2)^2 and u = 2 pi r,
# d_n = (-1)^(n+1) (2n+2)! / (n! (n+2)! (n+1)!^2); highest order first, for
# Horner.  Against mpmath at 40 digits, 13 terms below u = 2 and 1 - g^2
# above it are both within 5e-16 relative over u in [1e-6, 10]; the direct
# form reads 7e-14 at u = 0.2 and 4e-15 at u = 1.
_MISS_SERIES = tuple(
    (-1) ** (n + 1)
    * math.factorial(2 * n + 2)
    / (math.factorial(n) * math.factorial(n + 2) * math.factorial(n + 1) ** 2)
    for n in range(13, 0, -1)
)
_MISS_SWITCH_U = 2.0


def _fundamental_miss(r):
    """1 - Gamma_0(r)^2, from its power series where 1 - g^2 would cancel."""
    u = 2.0 * math.pi * r
    if u < _MISS_SWITCH_U:
        x = 0.25 * u * u
        acc = 0.0
        for d in _MISS_SERIES:
            acc = d + x * acc
        return x * acc
    g = _gamma0(r)
    return 1.0 - g * g


def cce_spade_binary(scene):
    """Discrimination exponent of the two-outcome fundamental-mode sorter.

    The sorter separates "photon in the fundamental mode" from
    "anywhere else".  Without a companion every photon takes the first
    outcome, so the Chernoff bound over the interpolation exponent sits
    at its boundary and the error exponent is -log of the fundamental
    survival probability of the two-source mixture.  That is the quantum
    Chernoff exponent: the binary fundamental-mode sorter attains the
    QCE, so this returns quantum_bounds.qce.
    """
    return qce(scene)


def psf_throughput(op):
    """Detected-energy fraction of an exactly on-axis source."""
    return _modal_energy(op, 0.0, 0.0)


def _modal_energy(op, r, phi):
    """Detected energy of a unit point source at polar (r, phi)."""
    c = source_coefficients(op.fields.basis, r, phi).astype(complex)
    d = op.mode_coefficients.conj().T @ c
    return float(np.sum(np.abs(op.transmissions * d) ** 2))


def cce_coronagraph(op, scene):
    """Detect-or-absorb exponent for a nulling chain with ideal counting.

    A chain that removes the fundamental detects nothing from a bare
    star, so the only discrimination error is planet photons being
    absorbed too; the exponent is -log(1 - T) with T the detected-energy
    fraction of the two-source mixture through the extracted modes.

    Raises when the chain transmits more than PSF_THROUGHPUT_CEILING of
    an on-axis source, where that reduction stops being meaningful.
    """
    leak = psf_throughput(op)
    if leak > PSF_THROUGHPUT_CEILING:
        raise ValueError(
            f"on-axis throughput {leak:.3e} exceeds {PSF_THROUGHPUT_CEILING:.0e}; "
            "detect-or-absorb counting needs a nulling chain"
        )
    if scene.r_delta == 0.0:
        return 0.0
    r_s, phi_s = scene.star_polar
    r_e, phi_e = scene.planet_polar
    total = (1.0 - scene.b) * _modal_energy(op, r_s, phi_s)
    total += scene.b * _modal_energy(op, r_e, phi_e)
    if total >= 1.0:
        return math.inf
    return -math.log1p(-total)


def per_mode_information(basis, scene):
    """Per-outcome information matrices of mode counting, (count, 2, 2).

    Each outcome contributes the outer product of its probability
    gradient over (separation, position angle) divided by its
    probability; zero-probability outcomes contribute zero by the usual
    limit.
    """
    p = all_mode_probabilities(basis, scene)
    g = all_probability_gradients(basis, scene)
    out = np.zeros((basis.count, 2, 2))
    live = p > 0.0
    quot = g[live] / p[live, None]
    out[live] = quot[:, :, None] * g[live][:, None, :]
    return out


def cfim_spade(basis, scene):
    """Localization information of ideal mode-sorted photon counting.

    Sums the analytic per-outcome contributions over the truncated
    basis.  On a lattice angle, where some angular factor Theta_m with
    1 <= m <= n_max vanishes (|sin(2 m phi)| < 1e-6, so phi is near
    k pi/(2m)), outcomes of zero probability still carry information
    that the sum cannot read; an unrotated basis is silently swapped
    there for one rotated by 0.1 rad.  Pass a basis built with nonzero
    rotation to take responsibility instead.
    """
    m = np.arange(1, basis.n_max + 1)
    if basis.rotation == 0.0 and np.any(np.abs(_sin_2m(m, scene.phi_delta)) < 1e-6):
        basis = _lattice_basis(basis.n_max)
    contrib = per_mode_information(basis, scene)
    return FisherMatrix(contrib.sum(axis=0), scene)


def imaging_step(r_delta, step=None):
    """Central-difference step of cfim_direct_imaging at separation r_delta.

    1e-4 * max(sigma, r_delta) unless ``step`` overrides it.  Raises
    ValueError naming both where the separation does not exceed the step,
    since the radial difference would then reach zero separation.
    """
    h = 1e-4 * max(AIRY_SIGMA, r_delta) if step is None else float(step)
    if r_delta <= h:
        raise ValueError(
            f"separation {r_delta:.6g} must exceed the difference step {h:.6g}"
        )
    return h


def cfim_direct_imaging(plan, scene, step=None):
    """Localization information of ideal photon counting on the image grid.

    Intensity derivatives over (separation, position angle) come from
    central differences of full-scene images with step
    1e-4 * max(sigma, separation) unless overridden (``imaging_step``).
    The quotient sum runs over pixels above 1e-18 of the image peak, which
    perturbs the integrals far less than the difference error; it is
    weighted by the pixel area of the plan's output grid.  Every position
    angle in [0, 2 pi) is accepted: the angular difference wraps through 0.
    The images come from the propagation plan itself, which is spatially
    faithful for every chain, the non-normal compressed ones included.

    The ten sources of the five scenes are staged first (``_stage_scene``;
    0.6 MiB of box fields for a pupil-fed plan on the default grid), so
    the vortex's full-grid focal field is gone before any image exists.
    Then the two differences are rendered before the base image: an image
    is one real buffer, into which ``output_state_image`` squares each
    output as it is computed, so at most three full-grid images are held
    at a time, 24 MiB on the default grid.  The three quotient sums run
    over blocks of _CHUNK image rows with block-sized scratch.  Measured
    with ``tracemalloc`` on a built plan, one call peaks at 33.2 / 28.6 /
    28.6 MiB for the perfect / PIAACMC / vortex chains (a perfect-chain
    source, 8 MiB real, comes on top of the three images), against 41.0 /
    33.0 / 44.2 MiB when each source was staged into its allocated image,
    the Airy sampler held its radii whole and the live pixels were
    gathered into four full-size arrays.
    """
    r, phi, b = scene.r_delta, scene.phi_delta, scene.b
    h = imaging_step(r, step)
    # angles wrap, so the angular difference straddles 0 = 2 pi; for
    # interior angles the wrapped value equals phi +- h exactly
    plus, minus, ahead, behind, centre = (
        _stage_scene(plan, s)
        for s in (
            Scene(r + h, phi, b),
            Scene(r - h, phi, b),
            Scene(r, wrap_angle(phi + h), b),
            Scene(r, wrap_angle(phi - h), b),
            scene,
        )
    )
    # each difference is formed in the buffer of its first image
    diff_r = output_state_image(plan, plus)
    diff_r -= output_state_image(plan, minus)
    diff_phi = output_state_image(plan, ahead)
    diff_phi -= output_state_image(plan, behind)
    base = output_state_image(plan, centre)
    threshold = 1e-18 * float(base.max())
    rr = rphi = phiphi = 0.0
    for start in range(0, base.shape[0], _CHUNK):
        rows = slice(start, start + _CHUNK)
        live = base[rows] > threshold
        p = base[rows][live]
        g_r = diff_r[rows][live]
        g_r /= 2.0 * h
        g_phi = diff_phi[rows][live]
        g_phi /= 2.0 * h
        rr += float(np.sum(g_r * g_r / p))
        rphi += float(np.sum(g_r * g_phi / p))
        phiphi += float(np.sum(g_phi * g_phi / p))
    entries = np.array([[rr, rphi], [rphi, phiphi]]) * plan.output_grid.dx**2
    return FisherMatrix(entries, scene)


def brightness_leakage_ratio(r_delta, b):
    """Star-to-planet odds for a photon sorted out of the fundamental.

    With intensity-centered pointing the star sits slightly off axis, so
    it leaks a little light past the fundamental too; these odds fall
    linearly with the relative brightness, which is why mode sorting
    isolates companion photons so cleanly at high contrast.
    """
    if r_delta <= 0.0:
        raise ValueError("separation must be positive")
    if b < 0.0 or b > 1e-2:
        raise ValueError("relative brightness must lie in [0, 1e-2]")
    if b == 0.0:
        return 0.0
    star = (1.0 - b) * _fundamental_miss(b * r_delta)
    planet = b * _fundamental_miss((1.0 - b) * r_delta)
    return star / planet
