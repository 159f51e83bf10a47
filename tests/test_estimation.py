"""Tests for the photon-counting localization harness."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from artifact import estimation, modebasis
from artifact.estimation import (
    _nelder_mead,
    _outcome_probabilities,
    _seed_point,
    LikelihoodTable,
    LocalizationEstimate,
    MeasurementRecord,
    coarse_table,
    fit_uncertainty_patch,
    fold_position_angle,
    mle_localize,
    run_trials,
    sample_measurement,
    spiral_truths,
)
from artifact.modebasis import FourierZernikeBasis, all_mode_probabilities
from artifact.optics import AIRY_SIGMA, Scene, wrap_angle
from artifact.quantum_bounds import qfim_polar, sigma_loc

S = AIRY_SIGMA


@pytest.fixture(scope="module")
def basis10():
    return FourierZernikeBasis(10)


@pytest.fixture(scope="module")
def table10(basis10):
    return coarse_table(basis10, 1e-9)


# ------------------------------------------------------------------ sampling


def test_sample_on_axis_planet_all_fundamental(basis10):
    rec = sample_measurement(Scene(0.0, 0.3, 1e-9), basis10, 1e5, 7)
    assert rec.counts[0] == rec.total_photons
    assert rec.counts[-1] == 0


def test_sample_reproducible(basis10):
    sc = Scene(0.3 * S, 1.1, 1e-9)
    a = sample_measurement(sc, basis10, 3e5, 42)
    b = sample_measurement(sc, basis10, 3e5, 42)
    assert a.total_photons == b.total_photons
    assert np.array_equal(a.counts, b.counts)


def test_sample_planet_photon_scale(basis10):
    # 3e11 photons at one part per billion contrast carry about 300
    # planet photons; at 0.2 sigma only 14% of them leave the
    # fundamental, an expectation of 41.4 sorted counts (42 drawn here)
    sc = Scene(0.2 * S, 0.8, 1e-9)
    assert 3e11 * sc.b == pytest.approx(300.0)
    rec = sample_measurement(sc, basis10, 3e11, 99)
    sorted_out = rec.total_photons - rec.counts[0]
    assert 20 <= sorted_out <= 70


def test_sample_truncation_defect_rejected():
    # a bright companion at 3 sigma leaves most of its light above
    # radial order 2
    with pytest.raises(ValueError):
        sample_measurement(Scene(3.0 * S, 0.3, 0.5), FourierZernikeBasis(2), 1e4, 1)


def test_sample_mean_must_be_positive(basis10):
    with pytest.raises(ValueError):
        sample_measurement(Scene(0.3 * S, 0.3, 1e-9), basis10, 0.0, 1)


@pytest.mark.parametrize("mean", [-1.0, math.inf, math.nan, 1e19, 1e300])
def test_sample_mean_must_be_finite(basis10, mean):
    # an infinite mean, or a finite one above numpy's Poisson limit, once
    # reached numpy's bare "lam value too large"
    limit = re.escape("must lie in (0, 9.223372006484771e+18]")
    with pytest.raises(ValueError, match=f"{limit}, got {re.escape(repr(mean))}$"):
        sample_measurement(Scene(0.3 * S, 0.3, 1e-9), basis10, mean, 1)
    with pytest.raises(ValueError, match=limit):
        run_trials(Scene(0.3 * S, 0.3, 1e-9), basis10, mean, 1, seed=0)


def test_sample_mean_at_the_poisson_limit():
    limit = 9.223372006484771e18
    rec = sample_measurement(Scene(0.3 * S, 0.3, 1e-9), FourierZernikeBasis(2), limit, 1)
    assert rec.total_photons > 9e18


def test_record_invariants():
    with pytest.raises(ValueError):
        MeasurementRecord(np.array([3, -1]), 2)
    with pytest.raises(ValueError):
        MeasurementRecord(np.array([3, 1]), 5)


# --------------------------------------------------------- likelihood table


def test_coarse_table_matches_single_scene_build(basis10, table10):
    # the batched build must equal, bit for bit, a row-by-row build from
    # the public single-scene probabilities, and stay C-contiguous: the
    # seeding product log_probs @ counts sums in layout-dependent order
    lp = table10.log_probs
    assert lp.shape == (64 * 64, basis10.count + 1)
    assert lp.flags.c_contiguous
    rows = []
    for r in table10.r_values:
        for phi in table10.phi_values:
            p = all_mode_probabilities(basis10, Scene(r, phi, table10.b))
            rows.append(np.append(p, max(1.0 - float(p.sum()), 0.0)))
    expect = np.log(np.maximum(np.array(rows), 1e-300))
    assert np.array_equal(lp, expect)


def test_coarse_table_evaluates_one_radial_row_per_separation(basis10, monkeypatch):
    # at b = 1e-9 every star sits on axis, and the 64 planets of a
    # separation share one radius: one row of n_max + 1 Bessel points per
    # separation, where each planet had its own row (45,056 points at n10)
    points = []
    bessel_j = modebasis.bessel_j

    def counting_bessel_j(n, x):
        points.append(np.broadcast(n, x).size)
        return bessel_j(n, x)

    monkeypatch.setattr(modebasis, "bessel_j", counting_bessel_j)
    coarse_table(basis10, 1e-9)
    assert sum(points) == 64 * (basis10.n_max + 1)


# ----------------------------------------------------------------- estimator


@pytest.mark.parametrize("b", [1e-2, 1e-3])
def test_mle_noiseless_self_consistency(basis10, b):
    # rounded expected counts at 1e6 photons recover the truth to
    # 5.4e-4 sigma and 8.9e-5 rad (the contract asks 1e-3 of each);
    # contrasts below ~1e-4 would round every planet photon away
    truth = Scene(0.3 * S, math.pi / 3, b)
    from artifact.estimation import _outcome_probabilities

    pv = _outcome_probabilities(basis10, truth)
    counts = np.round(1e6 * pv).astype(np.int64)
    rec = MeasurementRecord(counts, int(counts.sum()))
    est = mle_localize(rec, basis10, b)
    assert est.converged
    assert abs(est.r_hat - truth.r_delta) <= 1e-3 * S
    assert abs(est.phi_hat - truth.phi_delta) <= 1e-3


@pytest.fixture(scope="module")
def basis6():
    return FourierZernikeBasis(6)


@pytest.fixture(scope="module")
def table6(basis6):
    return coarse_table(basis6, 1e-9)


def _single_scene_negloglik(basis, counts, b):
    # the objective as one Scene at a time, outside the library's batch
    def f(x):
        r, phi = x
        if r <= 0.0 or r > 4.5 * S:
            return np.inf
        pv = _outcome_probabilities(basis, Scene(r, wrap_angle(phi), b))
        return -float(counts @ np.log(np.maximum(pv, 1e-300)))

    return f


def _nelder_mead_matches_scipy(f, x0, maxfev):
    search = _nelder_mead(x0, maxfev)
    point = next(search)
    try:
        while True:
            point = search.send(f(point))
    except StopIteration as stop:
        x, fun, nfev, success = stop.value
    ref = minimize(
        f, x0, method="Nelder-Mead",
        options={"xatol": 1e-6 * S, "fatol": np.inf, "maxfev": maxfev},
    )
    assert np.array_equal(x, ref.x)
    assert fun == ref.fun
    assert (nfev, success) == (ref.nfev, ref.success)
    return nfev, success


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nelder_mead_matches_scipy_on_records(basis6, table6, seed):
    # 83-94 evaluations each, all converged
    counts = sample_measurement(Scene(0.3 * S, 0.8, 1e-9), basis6, 3e11, seed).counts
    f = _single_scene_negloglik(basis6, counts, 1e-9)
    assert _nelder_mead_matches_scipy(f, _seed_point(table6, counts), 500)[1]


def test_nelder_mead_matches_scipy_on_degenerate_record(basis6, table6):
    # all photons in the fundamental: the search starts at phi = 0 (the
    # zero-coordinate simplex step), walks to r <= 0 four times and stops
    # after 57 evaluations; every cut of its budget matches too, among
    # them cuts inside the shrink steps starting after evaluations 21,
    # 27 and 31
    counts = np.zeros(basis6.count + 1, dtype=np.int64)
    counts[0] = 5000
    f = _single_scene_negloglik(basis6, counts, 1e-9)
    x0 = _seed_point(table6, counts)
    assert x0[1] == 0.0
    assert _nelder_mead_matches_scipy(f, x0, 500) == (57, True)
    for maxfev in range(1, 60):
        _nelder_mead_matches_scipy(f, x0, maxfev)


def test_nelder_mead_matches_scipy_cut_inside_shrink(basis6, table6):
    # the full run shrinks after evaluation 43, so a budget of 44 stops
    # between the two shrunk vertices, one of them moved but not valued
    counts = sample_measurement(Scene(0.3 * S, 0.8, 1e-9), basis6, 3e11, 0).counts
    f = _single_scene_negloglik(basis6, counts, 1e-9)
    assert _nelder_mead_matches_scipy(f, _seed_point(table6, counts), 44) == (44, False)


def test_run_trials_equals_single_record_estimates(basis10, table10):
    # the lockstep batch changes no bit of any estimate
    truth = Scene(0.3 * S, 0.8, 1e-9)
    res = run_trials(truth, basis10, 3e11, 24, seed=11, table=table10)
    for t in res:
        rec = sample_measurement(truth, basis10, 3e11, t.seed)
        assert t.n_photons == rec.total_photons
        assert t.estimate == mle_localize(rec, basis10, 1e-9, table=table10)


def test_run_trials_draws_sample_measurement_records_from_one_truth_evaluation(
    basis10, table10, monkeypatch
):
    # the truth scene's probabilities are evaluated once per cluster, and
    # every record equals sample_measurement's at its trial seed
    truth = Scene(0.3 * S, 0.8, 1e-9)
    seen = []
    localize = estimation._localize
    evaluate = estimation.all_mode_probabilities

    def keep_records(records, *args):
        seen.extend(records)
        return localize(records, *args)

    def count_truth(basis, *scene):
        truths.append(len(scene) == 1 and scene[0] is truth)
        return evaluate(basis, *scene)

    truths = []
    monkeypatch.setattr(estimation, "_localize", keep_records)
    monkeypatch.setattr(estimation, "all_mode_probabilities", count_truth)
    res = run_trials(truth, basis10, 3e11, 12, seed=5, table=table10)
    assert sum(truths) == 1
    monkeypatch.undo()
    assert len(seen) == len(res) == 12
    for t, rec in zip(res, seen):
        ref = sample_measurement(truth, basis10, 3e11, t.seed)
        assert rec.total_photons == ref.total_photons == t.n_photons
        assert np.array_equal(rec.counts, ref.counts)


def test_mle_degenerate_record_flagged(basis10):
    counts = np.zeros(basis10.count + 1, dtype=np.int64)
    counts[0] = 5000
    rec = MeasurementRecord(counts, 5000)
    est = mle_localize(rec, basis10, 1e-9)
    assert not est.converged
    assert est.r_hat <= 2e-3 * S


def test_mle_rejects_empty_record(basis10):
    counts = np.zeros(basis10.count + 1, dtype=np.int64)
    rec = MeasurementRecord(counts, 0)
    with pytest.raises(ValueError):
        mle_localize(rec, basis10, 1e-9)


def test_mle_rejects_mismatched_table(basis10, table10):
    rec = sample_measurement(Scene(0.3 * S, 0.8, 1e-9), basis10, 1e5, 3)
    with pytest.raises(ValueError):
        mle_localize(rec, basis10, 1e-6, table=table10)
    with pytest.raises(ValueError):
        mle_localize(rec, FourierZernikeBasis(6), 1e-9, table=table10)


def test_mle_bias_at_small_separation(basis10, table10):
    # measured radial bias -1.1e-3 separation units, 2.6 standard errors
    # at this seed; the contract allows 3
    truth = Scene(0.2 * S, 0.8, 1e-9)
    res = run_trials(truth, basis10, 3e11, 500, seed=2026, table=table10)
    r_arr = np.array([t.estimate.r_hat for t in res])
    p_arr = np.array([t.estimate.phi_hat for t in res])
    se_r = r_arr.std(ddof=1) / math.sqrt(len(r_arr))
    se_p = p_arr.std(ddof=1) / math.sqrt(len(p_arr))
    assert abs(r_arr.mean() - truth.r_delta) <= 3.0 * se_r
    assert abs(p_arr.mean() - truth.phi_delta) <= 3.0 * se_p


def test_estimate_invariants():
    with pytest.raises(ValueError):
        LocalizationEstimate(-0.1, 0.3, 0.0, True, 1)
    with pytest.raises(ValueError):
        LocalizationEstimate(0.1, 2.0 * math.pi, 0.0, True, 1)


def test_fold_position_angle():
    assert fold_position_angle(0.4) == pytest.approx(0.4)
    assert fold_position_angle(-0.4) == pytest.approx(0.4)
    assert fold_position_angle(math.pi - 0.4) == pytest.approx(0.4)
    assert fold_position_angle(math.pi + 0.4) == pytest.approx(0.4)
    assert fold_position_angle(2.0 * math.pi - 0.4) == pytest.approx(0.4)


# ------------------------------------------------------------ patch fitting


def test_patch_identical_points_zero():
    pts = [LocalizationEstimate(0.3 * S, 0.7, 0.0, True, 1)] * 40
    assert fit_uncertainty_patch(pts) == 0.0


def test_patch_needs_thirty_points():
    pts = [LocalizationEstimate(0.3 * S, 0.7, 0.0, True, 1)] * 29
    with pytest.raises(ValueError):
        fit_uncertainty_patch(pts)


def test_patch_isotropic_synthetic():
    # measured ratio 0.991 against the 0.01 sigma sqrt(2) target
    rng = np.random.default_rng(7)
    cx, cy = 0.3 * S * math.cos(0.7), 0.3 * S * math.sin(0.7)
    x = rng.normal(cx, 0.01 * S, 2000)
    y = rng.normal(cy, 0.01 * S, 2000)
    pts = [
        LocalizationEstimate(
            math.hypot(a, b), fold_position_angle(math.atan2(b, a)), 0.0, True, 1
        )
        for a, b in zip(x, y)
    ]
    patch = fit_uncertainty_patch(pts)
    assert abs(patch / (0.01 * S * math.sqrt(2.0)) - 1.0) < 0.05


# ------------------------------------------------------------------ harness


def test_cluster_tracks_quantum_floor(basis10, table10):
    # measured ratio 0.9994 at this configuration; the grid-seeded
    # simplex estimator saturates the localization floor
    truth = Scene(0.3 * S, 0.8, 1e-9)
    res = run_trials(truth, basis10, 3e11, 500, seed=2026, table=table10)
    assert sum(t.estimate.converged for t in res) >= 490
    patch = fit_uncertainty_patch([t.estimate for t in res])
    ratio = patch / sigma_loc(qfim_polar(truth), 3e11)
    assert 0.9 <= ratio <= 1.6


def test_run_trials_reproducible(basis10, table10):
    truth = Scene(0.3 * S, 0.8, 1e-9)
    a = run_trials(truth, basis10, 3e8, 3, seed=5, table=table10)
    b = run_trials(truth, basis10, 3e8, 3, seed=5, table=table10)
    assert [t.seed for t in a] == [t.seed for t in b]
    assert [t.estimate for t in a] == [t.estimate for t in b]
    assert [t.seed for t in a] != [t.seed for t in run_trials(
        truth, basis10, 3e8, 3, seed=6, table=table10)]


def test_spiral_truths_geometry():
    scenes = spiral_truths(8, 0.2 * S, 0.5 * S, 1e-9)
    assert len(scenes) == 8
    radii = [sc.r_delta for sc in scenes]
    assert radii[0] == pytest.approx(0.2 * S)
    assert radii[-1] == pytest.approx(0.5 * S)
    assert all(b2 > a for a, b2 in zip(radii, radii[1:]))
    # all truth angles sit inside one quadrant, clear of the
    # reflection boundaries that would wrap folded scatter
    for sc in scenes:
        assert 0.1 < fold_position_angle(sc.phi_delta) < math.pi / 2 - 0.1
    with pytest.raises(ValueError):
        spiral_truths(0, 0.2 * S, 0.5 * S, 1e-9)
    only = spiral_truths(1, 0.2 * S, 0.5 * S, 1e-9)
    assert only[0].r_delta == pytest.approx(0.2 * S)
