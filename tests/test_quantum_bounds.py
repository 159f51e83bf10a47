"""Tests for the detection and localization quantum limits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import j1

from _oracles import j1_first_zero, j2_first_zero, polar_gauss_legendre

from artifact.modebasis import FourierZernikeBasis, source_coefficients
from artifact.optics import Scene, TelescopePrescription, separation_from_sigma_units
from artifact.quantum_bounds import (
    FisherMatrix,
    localization_photons,
    photon_requirement_map,
    qce,
    qce_high_contrast,
    qfim_diagonal,
    qfim_high_contrast,
    qfim_polar,
    sigma_loc,
)

PRESCRIPTION = TelescopePrescription(
    diameter_m=6.0,
    center_wavelength_m=7.5e-7,
    bandwidth_m=1e-7,
    star_vmag=5.0,
    reference_flux_si=1e-8,
    photon_flux_hz=6e7,
)


def _gamma0_scipy(r):
    return j1(2.0 * math.pi * r) / (math.pi * r)


def _fd_slope(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def _qfim_by_quadrature(b, r, phi=0.35):
    """Compact-route oracle: pupil-average term by 64x64 polar quadrature,
    fundamental-mode term by numerically differentiating the PSF overlap."""
    kappa = 1.0 - 2.0 * b
    x, y, w = polar_gauss_legendre(64, 64)
    cp, sp = math.cos(phi), math.sin(phi)
    ur = x * cp + y * sp
    up = -x * sp + y * cp
    k1 = (16.0 * math.pi**2 / math.pi) * np.array(
        [
            [np.sum(w * ur * ur), r * np.sum(w * ur * up)],
            [r * np.sum(w * ur * up), r * r * np.sum(w * up * up)],
        ]
    )
    dg = _fd_slope(_gamma0_scipy, r, 5e-4 * max(1.0, r))
    i0 = 4.0 * np.array([[dg * dg, 0.0], [0.0, 0.0]])
    return 0.25 * (1.0 - kappa**2) * (k1 - kappa**2 * i0)


# ---------------------------------------------------------------------------
# result containers


def test_fisher_matrix_validation():
    scene = Scene(0.3, 0.0, 0.1)
    with pytest.raises(ValueError):
        FisherMatrix(np.eye(3), scene)
    with pytest.raises(ValueError):
        FisherMatrix(np.diag([1.0, -1.0]), scene)
    fm = FisherMatrix([[2.0, 0.1], [0.3, 1.0]], scene)
    assert fm.entries[0, 1] == fm.entries[1, 0] == pytest.approx(0.2)
    # eigvalsh reads NaN for these, which no PSD comparison rejects
    with pytest.raises(ValueError, match="NaN entry"):
        FisherMatrix(np.diag([math.nan, 1.0]), scene)
    for entries in (
        np.diag([-5.0, math.inf]),
        np.diag([1.0, -math.inf]),
        [[1.0, math.inf], [math.inf, 1.0]],
        [[1.0, math.inf], [-math.inf, 1.0]],
    ):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            FisherMatrix(entries, scene)
    # the matrix qfim_polar builds once r^2 overflows
    assert FisherMatrix(np.diag([9.87, math.inf]), scene).entries[1, 1] == math.inf


def test_fisher_dominance_order():
    scene = Scene(0.4, 0.0, 0.2)
    quantum = qfim_polar(scene)
    half = FisherMatrix(0.5 * quantum.entries, scene)
    assert quantum.dominates(half)
    assert not half.dominates(quantum)


def test_detection_budget_validation():
    for bad in (0.0, 1.0, -0.2, 1.5, 2.0):
        with pytest.raises(ValueError, match="target"):
            photon_requirement_map([1.0], [1e-9], task="detection", target=bad,
                                   prescription=PRESCRIPTION)


def test_localization_budget_validation():
    for bad in (0.0, -0.1, math.nan):
        match = f"relative localization error target {bad!r} must be positive"
        with pytest.raises(ValueError, match=match):
            photon_requirement_map([1.0], [1e-9], task="localization", target=bad)


# ---------------------------------------------------------------------------
# detection exponent


def test_qce_zero_separation_is_exactly_zero():
    assert qce(Scene(0.0, 0.0, 0.3)) == 0.0


def test_qce_peaks_at_airy_node():
    assert qce(Scene(0.6098, 0.0, 1e-9)) / 1e-9 == pytest.approx(1.0, abs=1e-4)
    node = j1_first_zero() / (2.0 * math.pi)
    assert qce(Scene(node, 0.0, 1e-9)) / 1e-9 == pytest.approx(1.0, abs=1e-6)


def test_qce_matches_projection_route():
    b, r = 1e-6, 0.3
    basis = FourierZernikeBasis(0)
    p_star = source_coefficients(basis, b * r, 0.0)[0] ** 2
    p_planet = source_coefficients(basis, (1.0 - b) * r, 0.0)[0] ** 2
    other = -math.log((1.0 - b) * p_star + b * p_planet)
    assert qce(Scene(r, 0.0, b)) == pytest.approx(other, rel=1e-10)


def test_qce_huge_separation():
    # the overlaps fall as r^-3/2: at 1e100 sigma the survival probability
    # is still above 1e-301, by 1e108 sigma it underflows to zero
    assert 0.0 < qce(Scene(separation_from_sigma_units(1e100), 0.0, 0.5)) < math.inf
    with pytest.raises(ValueError, match="r_delta=6.09835e\\+299 is too large"):
        qce(Scene(separation_from_sigma_units(1e300), 0.0, 0.5))


def test_qce_ignores_position_angle():
    assert qce(Scene(0.4, 1.234, 1e-3)) == qce(Scene(0.4, 0.0, 1e-3))


@given(
    r=st.floats(min_value=0.0, max_value=3.0),
    b=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)
@settings(max_examples=50, deadline=None)
def test_qce_is_nonnegative(r, b):
    assert qce(Scene(r, 0.0, b)) >= 0.0


def test_high_contrast_exponent_limits():
    assert qce_high_contrast(0.0, 1e-9) == 0.0
    assert qce_high_contrast(50.0, 1e-9) == pytest.approx(1e-9, rel=1e-5)
    with pytest.raises(ValueError):
        qce_high_contrast(-0.1, 1e-3)
    with pytest.raises(ValueError):
        qce_high_contrast(0.3, 0.0)


def test_high_contrast_exponent_tracks_exact_form():
    for r in np.linspace(0.05, 2.0, 60):
        exact = qce(Scene(float(r), 0.0, 1e-9))
        approx = qce_high_contrast(float(r), 1e-9)
        assert abs(exact - approx) / exact < 1e-3


def test_exponent_collapse_across_contrast():
    for r in np.linspace(0.01, 2.0, 60):
        lo = qce(Scene(float(r), 0.0, 1e-9)) / 1e-9
        hi = qce(Scene(float(r), 0.0, 1e-6)) / 1e-6
        assert abs(hi - lo) / lo < 1e-3


# ---------------------------------------------------------------------------
# Fisher matrices


def test_qfim_equal_brightness_is_separation_independent():
    for r in (0.1, 0.7, 2.0):
        fm = qfim_polar(Scene(r, 0.0, 0.5))
        assert fm.entries[0, 0] == pytest.approx(math.pi**2, rel=1e-14)
        assert fm.entries[1, 1] == pytest.approx(math.pi**2 * r * r, rel=1e-14)


def test_qfim_radial_entry_saturates_at_large_separation():
    fm = qfim_polar(Scene(20.0, 0.0, 1e-9))
    assert fm.entries[0, 0] / (4.0 * math.pi**2 * 1e-9) == pytest.approx(1.0, abs=1e-4)


def test_qfim_rejects_zero_separation():
    with pytest.raises(ValueError):
        qfim_polar(Scene(0.0, 0.0, 0.3))


def test_qfim_matches_quadrature_route():
    closed = qfim_polar(Scene(0.7, 0.0, 0.3)).entries
    oracle = _qfim_by_quadrature(0.3, 0.7)
    assert_allclose(np.diag(closed), np.diag(oracle), rtol=1e-10)
    for b in (0.5, 0.1, 1e-3):
        for r in (0.1, 0.5, 1.0):
            closed = qfim_polar(Scene(r, 0.0, b)).entries
            oracle = _qfim_by_quadrature(b, r)
            assert_allclose(np.diag(closed), np.diag(oracle), rtol=1e-8)
            assert abs(oracle[0, 1]) < 1e-10 * np.trace(closed)


def test_qfim_high_contrast_saturates_at_j2_zero():
    r = j2_first_zero() / (2.0 * math.pi)
    fm = qfim_high_contrast(r, 1e-9)
    assert fm.entries[0, 0] == pytest.approx(4.0 * math.pi**2 * 1e-9, rel=1e-10)
    assert fm.entries[1, 1] == pytest.approx(4.0 * math.pi**2 * 1e-9 * r * r, rel=1e-12)


def test_qfim_high_contrast_small_separation_limit():
    # the J_2 slope factor vanishes on axis, so the radial entry
    # saturates at its ceiling 4 pi^2 b rather than dropping
    fm = qfim_high_contrast(1e-6, 1e-9)
    assert fm.entries[0, 0] == pytest.approx(4.0 * math.pi**2 * 1e-9, rel=1e-9)


def test_qfim_high_contrast_matches_exact_at_tiny_b():
    for r in (0.05, 0.2, 0.5, 1.0):
        exact = qfim_polar(Scene(r, 0.0, 1e-9)).entries
        approx = qfim_high_contrast(r, 1e-9).entries
        assert_allclose(np.diag(approx), np.diag(exact), rtol=1e-6)


@given(
    r=st.floats(min_value=1e-3, max_value=3.0),
    b=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)
@settings(max_examples=50, deadline=None)
def test_qfim_is_psd_with_persistent_angular_information(r, b):
    fm = qfim_polar(Scene(r, 0.0, b))  # construction runs the PSD check
    assert fm.entries[1, 1] > 0.0


# ---------------------------------------------------------------------------
# uncertainty and budgets


def test_sigma_loc_scaling_and_equal_brightness_value():
    fm = qfim_polar(Scene(0.7, 0.0, 0.5))
    n = 1e6
    assert sigma_loc(fm, n) / sigma_loc(fm, 4 * n) == pytest.approx(2.0, rel=1e-14)
    assert sigma_loc(fm, n) == pytest.approx(math.sqrt(2.0 / (math.pi**2 * n)), rel=1e-12)


def test_sigma_loc_rejects_degenerate_inputs():
    fm = qfim_polar(Scene(0.7, 0.0, 0.5))
    for photons in (0.0, math.nan):
        with pytest.raises(ValueError, match="photon count must be positive"):
            sigma_loc(fm, photons)
    singular = FisherMatrix(np.diag([1.0, 0.0]), Scene(0.7, 0.0, 0.5))
    with pytest.raises(ValueError):
        sigma_loc(singular, 1e6)


def test_localization_photons_round_trip():
    scene = Scene(separation_from_sigma_units(0.1), 0.0, 1e-9)
    n = localization_photons(qfim_polar(scene), 0.1)
    achieved = sigma_loc(qfim_polar(scene), n) / scene.r_delta
    assert achieved == pytest.approx(0.1, rel=1e-12)
    # the singular-matrix check is the one sigma_loc applies
    singular = FisherMatrix(np.diag([1.0, 0.0]), scene)
    with pytest.raises(ValueError):
        localization_photons(singular, 0.1)
    for target in (0.0, math.nan):
        with pytest.raises(ValueError, match="rel_error must be positive"):
            localization_photons(qfim_polar(scene), target)


_BELOW_ONE = math.nextafter(1.0, 0.0)
S1 = separation_from_sigma_units(1.0)


@given(
    r=st.floats(min_value=0.0, allow_infinity=False),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    b=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@example(r=separation_from_sigma_units(1e-300), phi=0.3, b=0.5)
@example(r=1e200, phi=0.3, b=0.5)
@example(r=separation_from_sigma_units(1e300), phi=0.3, b=0.5)
@example(r=separation_from_sigma_units(1.7e308), phi=0.3, b=0.5)
@example(r=0.3, phi=0.3, b=_BELOW_ONE)
@example(r=1e200, phi=0.3, b=_BELOW_ONE)
@example(r=1e10, phi=0.3, b=1e-320)  # r^2/K_22 = inf, (1e300 r)^2 = inf
@settings(max_examples=200, deadline=None)
def test_bounds_over_the_whole_scene_domain(r, phi, b):
    # every bound is a number or inf, or a ValueError naming r_delta: at
    # 1e200 the angular entry's r^2 overflowed into inf/inf = NaN, at
    # 1e-300 sigma it underflows to a singular matrix, and at 1.7e308
    # sigma 2 pi r overflowed into "Bessel argument must be finite"
    scene = Scene(r, phi, b)
    # the matrix qfim_polar builds, here also on axis, where it refuses
    fisher = FisherMatrix(np.diag(qfim_diagonal(scene)), scene)
    bounds = (
        lambda: qce(scene),
        lambda: qfim_diagonal(scene)[0],
        lambda: qfim_diagonal(scene)[1],
        lambda: sigma_loc(fisher, 1e10),
        lambda: localization_photons(fisher, 0.1),
        lambda: localization_photons(fisher, 1e300),
        lambda: photon_requirement_map([r / S1], [b], "localization", 1e300)[0, 2],
    )
    for bound in bounds:
        try:
            value = bound()
        except ValueError as exc:
            assert "r_delta" in str(exc)
        else:
            assert value >= 0.0  # False for NaN


def test_numpy_separation_overflow_raises_without_a_warning():
    # r * r of a numpy scalar overflows with a RuntimeWarning, which the
    # bracket silences before it names the separation
    fisher = qfim_polar(Scene(np.float64(1e200), 0.3, 1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r_delta=1e\\+200 is too large"):
            localization_photons(fisher, 0.1)


def test_bounds_keep_finite_values_at_the_domain_edges():
    # the guards change no finite value: these are the closed forms
    scene = Scene(1e153, 0.3, 0.3)
    weight = 4.0 * 0.3 * 0.7 * math.pi**2
    assert qfim_diagonal(scene) == (weight, weight * 1e153**2)
    fisher = qfim_polar(scene)
    assert sigma_loc(fisher, 1e10) == math.sqrt((1.0 / weight + 1e306 / (weight * 1e306)) / 1e10)
    assert qfim_diagonal(Scene(separation_from_sigma_units(1.7e308), 0.3, 0.3))[0] == weight
    with pytest.raises(ValueError, match="r_delta=1e\\+200 is too large"):
        sigma_loc(qfim_polar(Scene(1e200, 0.3, 0.3)), 1e10)
    with pytest.raises(ValueError, match="singular at r_delta=6.09835e-301"):
        localization_photons(qfim_polar(Scene(separation_from_sigma_units(1e-300), 0.3, 0.3)), 0.1)


def _budget(r_over_sigma, b, task, target, prescription=PRESCRIPTION):
    """(photons, seconds) of one requirement-map point."""
    rows = photon_requirement_map([r_over_sigma], [b], task=task, target=target,
                                  prescription=prescription)
    return rows[0, 2], rows[0, 3]


def test_detection_budget_reference_times():
    # closed-form integration times at 0.1 sigma separation, b = 1e-9,
    # 6e7 photons/s; exact values 1061.6/2123.3/3184.9/4246.6 s
    scene = Scene(separation_from_sigma_units(0.1), 0.0, 1e-9)
    for target, seconds in ((1e-1, 1073.0), (1e-2, 2146.0), (1e-3, 3220.0), (1e-4, 4293.0)):
        photons, got = _budget(0.1, 1e-9, "detection", target)
        assert got == pytest.approx(seconds, rel=2e-2)
        assert photons == pytest.approx(-math.log(target) / qce(scene), rel=1e-15)


def test_detection_budget_flux_and_error_scaling():
    _, base = _budget(0.4, 1e-6, "detection", 1e-3)
    doubled = TelescopePrescription(6.0, 7.5e-7, 1e-7, 5.0, 1e-8, 1.2e8)
    assert _budget(0.4, 1e-6, "detection", 1e-3, doubled)[1] == pytest.approx(
        base / 2.0, rel=1e-14
    )
    photons = [_budget(0.4, 1e-6, "detection", pe)[0] for pe in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b > a for a, b in zip(photons, photons[1:]))


def test_detection_budget_signals_infinite_at_zero_separation():
    photons, seconds = _budget(0.0, 1e-9, "detection", 1e-3)
    assert math.isinf(photons)
    assert math.isinf(seconds)


def test_localization_budget_signals_infinite_at_zero_separation():
    # sigma_loc / r has no finite budget on axis, where qfim_polar is singular
    photons, seconds = _budget(0.0, 1e-9, "localization", 0.1)
    assert math.isinf(photons)
    assert math.isinf(seconds)


def test_localization_reference_times():
    # same reference scene as the detection table; frozen from the closed
    # form after cross-checking the j2-based Fisher entries by hand
    for rel, seconds in ((1.0, 231.25), (0.5, 925.01), (0.1, 23125.27)):
        _, got = _budget(0.1, 1e-9, "localization", rel)
        assert got == pytest.approx(seconds, rel=1e-4)


# ---------------------------------------------------------------------------
# requirement maps


def test_photon_requirement_map_rows():
    r_sigma = [0.1, 0.5]
    bs = [1e-9, 1e-6]
    rows = photon_requirement_map(r_sigma, bs, task="detection", target=1e-3,
                                  prescription=PRESCRIPTION)
    assert rows.shape == (4, 4)
    scene = Scene(separation_from_sigma_units(0.5), 0.0, 1e-6)
    expect = -math.log(1e-3) / qce(scene)
    assert rows[3, 0] == 0.5 and rows[3, 1] == 1e-6
    assert rows[3, 2] == pytest.approx(expect, rel=1e-14)
    assert rows[3, 3] == pytest.approx(expect / PRESCRIPTION.photon_flux_hz, rel=1e-14)

    loc = photon_requirement_map(r_sigma, bs, task="localization", target=0.1)
    assert loc[0, 2] == pytest.approx(
        localization_photons(qfim_polar(Scene(separation_from_sigma_units(0.1), 0.0, 1e-9)), 0.1),
        rel=1e-14,
    )
    assert math.isnan(loc[0, 3])
    with pytest.raises(ValueError):
        photon_requirement_map(r_sigma, bs, task="discovery")


def test_localization_map_rows_equal_single_point_budgets():
    # each separation row is evaluated as arrays over b; every entry
    # equals the scalar route bit for bit, and the on-axis row is infinite
    r_sigma = [0.0, 0.05, 0.37, 1.0, 2.9]
    bs = np.geomspace(1e-10, 0.4, 23)
    rows = photon_requirement_map(r_sigma, bs, task="localization", target=1e-3,
                                  prescription=PRESCRIPTION)
    assert rows.shape == (len(r_sigma) * len(bs), 4)
    for (r_s, b, photons, seconds), (r_expect, b_expect) in zip(
        rows, [(r, b) for r in r_sigma for b in bs]
    ):
        assert (r_s, b) == (r_expect, b_expect)
        if r_s == 0.0:
            expect = math.inf
        else:
            scene = Scene(separation_from_sigma_units(r_s), 0.0, b)
            expect = localization_photons(qfim_polar(scene), 1e-3)
        assert photons == expect
        assert seconds == expect / PRESCRIPTION.photon_flux_hz


def test_requirement_map_rejects_out_of_range_axes():
    for bad_b in ([0.0], [1e-9, 1.0], [math.nan]):
        for task, target in (("detection", 1e-3), ("localization", 0.1)):
            with pytest.raises(ValueError, match="relative brightness"):
                photon_requirement_map([0.5], bad_b, task=task, target=target)
    with pytest.raises(ValueError, match="separation"):
        photon_requirement_map([-0.5], [1e-9], task="localization", target=0.1)
