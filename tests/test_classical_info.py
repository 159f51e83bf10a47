"""Tests for the per-measurement classical information measures."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import j1

from artifact import classical_info
from artifact.classical_info import (
    PSF_THROUGHPUT_CEILING,
    brightness_leakage_ratio,
    cce_coronagraph,
    cce_spade_binary,
    cfim_direct_imaging,
    cfim_spade,
    per_mode_information,
    psf_throughput,
)
from artifact.coronagraph import (
    CoronagraphOperator,
    output_state_image,
    perfect_plan,
    vortex_plan,
)
from artifact.modebasis import FourierZernikeBasis
from artifact.optics import AIRY_SIGMA, GridSpec, Scene
from artifact.quantum_bounds import qce, qfim_high_contrast, qfim_polar

S = AIRY_SIGMA


def _gamma0_scipy(r):
    return j1(2.0 * math.pi * r) / (math.pi * r)


@pytest.fixture(scope="module")
def basis60():
    return FourierZernikeBasis(60)


@pytest.fixture(scope="module")
def plan_perfect_analytic(grid):
    # analytic fundamental projector; its rejection of the displaced star
    # is exact to rounding, which matters at b = 1e-9 where the mode-stack
    # fundamental would leave ~7e-5 of the star in the image
    return perfect_plan(grid=grid)


# ---------------------------------------------------------------- binary sorter


def test_cce_spade_zero_separation():
    assert cce_spade_binary(Scene(0.0, 0.3, 1e-6)) == 0.0


@pytest.mark.parametrize(
    "r_over_sigma, b",
    [(0.5, 1e-9), (0.3, 1e-3), (1.0, 1e-6), (0.25, 1e-2)],
)
def test_cce_spade_matches_quantum_exponent(r_over_sigma, b):
    # the sorter saturates the quantum exponent; sharing the survival
    # evaluation with the quantum module makes the agreement exact, well
    # inside the contracted rel 1e-6
    sc = Scene(r_over_sigma * S, 1.1, b)
    c, q = cce_spade_binary(sc), qce(sc)
    assert abs(c - q) <= 1e-6 * q


def test_cce_spade_degenerate_survival_form():
    # under the null hypothesis outcome 0 is certain, so the Chernoff
    # infimum sits at t = 0 and the exponent reduces to -log of the
    # fundamental-mode survival under the alternative
    sc = Scene(0.4 * S, 2.0, 3e-3)
    surv = (1.0 - sc.b) * _gamma0_scipy(sc.b * sc.r_delta) ** 2
    surv += sc.b * _gamma0_scipy((1.0 - sc.b) * sc.r_delta) ** 2
    assert_allclose(cce_spade_binary(sc), -math.log(surv), rtol=1e-12)


# ------------------------------------------------------------- star leakage


def test_leakage_faint_example():
    # measured 1.4508e-9 at one part per billion contrast
    assert brightness_leakage_ratio(0.5 * S, 1e-9) <= 1e-8


@pytest.mark.parametrize("r, b", [(0.5 * S, 1e-9), (0.3 * S, 1e-4)])
def test_leakage_scales_linearly_in_contrast(r, b):
    ratio = brightness_leakage_ratio(r, b) / brightness_leakage_ratio(r, b / 10)
    assert_allclose(ratio, 10.0, rtol=1e-3)


def test_leakage_zero_brightness():
    assert brightness_leakage_ratio(0.5 * S, 0.0) == 0.0


def test_fundamental_miss_matches_mpmath():
    # 1 - Gamma_0^2 against mpmath at 40 digits over u = 2 pi r in
    # [1e-6, 10], densely around the old series switch (u = 0.1) and the
    # new one (u = 2); both branches read within 5e-16 relative, and the
    # old three-term series read 2.3e-10 just below u = 0.1
    u = np.unique(
        np.concatenate(
            [
                np.geomspace(1e-6, 10.0, 400),
                np.linspace(0.09, 0.11, 41),
                np.linspace(1.9, 2.1, 41),
                np.nextafter(2.0, [0.0, 4.0]),
            ]
        )
    )
    worst = 0.0
    with mpmath.workdps(40):
        for uk in u.tolist():
            g = 2 * mpmath.besselj(1, mpmath.mpf(uk)) / uk
            exact = 1 - g * g
            got = classical_info._fundamental_miss(uk / (2.0 * math.pi))
            worst = max(worst, float(abs(got - exact) / exact))
    assert worst <= 1e-14, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize(
    "r, b", [(0.0, 1e-9), (-0.3, 1e-9), (0.5 * S, 0.02), (0.5 * S, -1e-3)]
)
def test_leakage_domain_errors(r, b):
    with pytest.raises(ValueError):
        brightness_leakage_ratio(r, b)


# ------------------------------------------------------------ mode counting


@pytest.mark.parametrize("r_over_sigma", [0.05, 0.1, 0.3, 0.5, 0.8, 1.0])
def test_spade_saturates_quantum_matrix(basis60, r_over_sigma):
    # measured diagonal gaps 1.0e-9 to 3.4e-9 across this sweep, far
    # inside the 1% contract; off-diagonals vanish by parity
    sc = Scene(r_over_sigma * S, math.pi / 4, 1e-9)
    f = cfim_spade(basis60, sc)
    q = qfim_high_contrast(sc.r_delta, sc.b)
    assert abs(f.entries[0, 0] / q.entries[0, 0] - 1.0) < 1e-2
    assert abs(f.entries[1, 1] / q.entries[1, 1] - 1.0) < 1e-2
    assert abs(f.entries[0, 1]) <= 1e-9 * np.trace(f.entries)
    assert q.dominates(f)


def test_spade_fundamental_quadratic_contrast(basis60):
    # the fundamental mode sees the planet only through second order in
    # the contrast, so its separation information falls 100x per decade
    sc_hi = Scene(0.3 * S, math.pi / 4, 1e-4)
    sc_lo = Scene(0.3 * S, math.pi / 4, 1e-5)
    i_hi = per_mode_information(basis60, sc_hi)[0][0, 0]
    i_lo = per_mode_information(basis60, sc_lo)[0][0, 0]
    assert_allclose(i_hi / i_lo, 100.0, rtol=1e-3)


def test_spade_quarter_turn_alignment_rotates_basis(basis60):
    # position angles on the cosine/sine lattice hit zero-probability
    # outcomes; the fallback evaluates in a basis rotated by 0.1 rad
    f_auto = cfim_spade(basis60, Scene(0.3 * S, 0.0, 1e-9))
    f_rot = cfim_spade(FourierZernikeBasis(60, rotation=0.1), Scene(0.3 * S, 0.0, 1e-9))
    assert_allclose(f_auto.entries, f_rot.entries, rtol=1e-12, atol=1e-30)


def test_spade_lattice_angles_share_one_rotated_basis(monkeypatch):
    # the rotated sorter is built once per truncation, so its cached mode
    # tables are too: a sweep of every lattice angle at n_max 60 took 17 s
    # when each call built its own
    seen = []

    def recording(basis, scene):
        seen.append(basis)
        return per_mode_information(basis, scene)

    monkeypatch.setattr(classical_info, "per_mode_information", recording)
    for n_max, phi in ((12, 0.0), (12, math.pi / 2), (8, 0.0)):
        cfim_spade(FourierZernikeBasis(n_max), Scene(0.3 * S, phi, 1e-9))
    assert seen[0] is seen[1]
    assert (seen[0].n_max, seen[0].rotation) == (12, 0.1)
    assert (seen[2].n_max, seen[2].rotation) == (8, 0.1)


@pytest.mark.parametrize("n_max", [10, 20])
def test_spade_meets_the_quantum_bound_on_every_lattice_angle(n_max):
    # on a lattice angle k pi/(2m), 1 <= m <= n_max, an angular factor
    # Theta_m vanishes, and outcomes of zero probability still carry
    # information that the per-outcome sum cannot read.  A fallback that
    # caught quarter turns only, and rotated onto the eighth-turn lattice,
    # left 38 of the 133 angles at n_max 10 off the bound, by up to 18%
    basis = FourierZernikeBasis(n_max)
    angles = {k * math.pi / (2 * m) for m in range(1, n_max + 1) for k in range(4 * m)}
    for phi in sorted(angles):
        scene = Scene(0.3 * S, phi, 1e-9)
        ratio = np.diag(cfim_spade(basis, scene).entries) / np.diag(qfim_polar(scene).entries)
        assert_allclose(ratio, 1.0, rtol=0, atol=1e-6, err_msg=f"phi={phi!r}")


def test_spade_rotation_leaves_saturated_matrix(basis60):
    # at deep truncation the summed information is measurement-basis
    # independent; measured agreement is at rounding level
    sc = Scene(0.3 * S, 0.7, 1e-9)
    f_a = cfim_spade(FourierZernikeBasis(60, rotation=0.1), sc)
    f_b = cfim_spade(FourierZernikeBasis(60, rotation=math.pi / 4), sc)
    assert_allclose(np.diag(f_a.entries), np.diag(f_b.entries), rtol=1e-9)


def _radial_group_information(basis, scene):
    """Separation information of mode counting summed per radial order."""
    per_mode = per_mode_information(basis, scene)[:, 0, 0]
    return np.bincount([idx.n for idx in basis.modes], weights=per_mode)


def test_radial_group_distribution(basis60):
    # tip-tilt holds 84.8% of the separation information at 0.2 sigma and
    # the peak order climbs (1, 1, 4) as the separation widens
    shares = _radial_group_information(basis60, Scene(0.2 * S, math.pi / 4, 1e-9))
    assert shares[1] / shares.sum() > 0.5
    peaks = []
    for r_over_sigma in (0.2, 1.0, 2.0):
        sc = Scene(r_over_sigma * S, math.pi / 4, 1e-9)
        peaks.append(int(np.argmax(_radial_group_information(basis60, sc))))
    assert peaks == sorted(peaks)


# ------------------------------------------------- coronagraph error exponent


def test_cce_perfect_saturates_high_contrast(op_perfect20):
    # measured rel 3.9e-9 at 0.3 sigma and 2.9e-9 at 0.5 sigma against
    # the contracted 1e-4
    for r_over_sigma in (0.3, 0.5):
        sc = Scene(r_over_sigma * S, 0.3, 1e-9)
        lhs = cce_coronagraph(op_perfect20, sc) / sc.b
        rhs = 1.0 - _gamma0_scipy(sc.r_delta) ** 2
        assert_allclose(lhs, rhs, rtol=1e-4)


def test_cce_coronagraph_zero_separation(op_perfect20, op_vortex20):
    assert cce_coronagraph(op_perfect20, Scene(0.0, 0.3, 1e-6)) == 0.0
    assert cce_coronagraph(op_vortex20, Scene(0.0, 0.3, 1e-6)) == 0.0


def _enhancement_maximum(op, b=1e-2):
    best = 0.0
    for k in range(1, 21):
        sc = Scene(0.025 * k * S, 0.3, b)
        best = max(best, qce(sc) / cce_coronagraph(op, sc))
    return best


def test_cce_vortex_enhancement_window(op_vortex20):
    # measured maximum 1.923 at 0.375 sigma; evaluated at the top of the
    # high-contrast range where the chain's star residual is negligible
    # next to the planet term
    assert 1.5 <= _enhancement_maximum(op_vortex20) <= 2.5


def test_cce_piaacmc_enhancement_window(op_piaacmc20):
    # measured maximum 1.4274 at 0.35 sigma, a thin margin over the
    # window floor of 1.4
    assert 1.4 <= _enhancement_maximum(op_piaacmc20) <= 1.8


@pytest.mark.parametrize("r_over_sigma", [0.2, 0.4])
def test_cce_dominated_by_quantum_exponent(
    op_perfect20, op_piaacmc20, op_vortex20, r_over_sigma
):
    sc = Scene(r_over_sigma * S, 0.3, 1e-2)
    q = qce(sc)
    for op in (op_perfect20, op_piaacmc20, op_vortex20):
        assert cce_coronagraph(op, sc) <= q * (1.0 + 1e-9)


def test_cce_coronagraph_leak_guard(stack6):
    # an all-pass operator keeps the whole on-axis PSF and the pure
    # miss-probability exponent does not apply
    n = stack6.count
    open_op = CoronagraphOperator(
        name="open",
        fields=stack6,
        transmissions=np.ones(n, dtype=complex),
        mode_coefficients=np.eye(n, dtype=complex),
    )
    assert psf_throughput(open_op) > PSF_THROUGHPUT_CEILING
    with pytest.raises(ValueError):
        cce_coronagraph(open_op, Scene(0.3 * S, 0.3, 1e-6))


def test_psf_throughput_levels(op_perfect20, op_piaacmc20, op_vortex20):
    # measured 9.0e-30 (perfect), 1.496e-4 (piaacmc), 1.342e-4 (vortex);
    # the nonzero floors are the numerically built chains' null residuals
    assert psf_throughput(op_perfect20) < 1e-20
    for op in (op_piaacmc20, op_vortex20):
        t = psf_throughput(op)
        assert 1e-5 < t < PSF_THROUGHPUT_CEILING


# ------------------------------------------------------ direct-imaging CFIM


@pytest.mark.parametrize("r_over_sigma", [0.05, 0.1, 0.3, 1.0])
def test_imaging_perfect_matches_quantum_bound(plan_perfect_analytic, r_over_sigma):
    # measured diagonal gaps 0.4% to 1.0% over this sweep, inside the 2%
    # contract; the residue is the 32 lambda/D window, which cuts the Airy
    # tails off the source fields (a window-free continuum evaluation of
    # the perfect chain meets the QFIM as its disk radius grows, its
    # deficit about 0.2/R)
    sc = Scene(r_over_sigma * S, 0.3, 1e-9)
    f = cfim_direct_imaging(plan_perfect_analytic, sc)
    q = qfim_high_contrast(sc.r_delta, sc.b)
    assert abs(f.entries[0, 0] / q.entries[0, 0] - 1.0) < 2e-2
    assert abs(f.entries[1, 1] / q.entries[1, 1] - 1.0) < 2e-2


@pytest.mark.parametrize("r_over_sigma", [0.1, 0.3, 0.5])
def test_imaging_ordering_across_designs(
    plan_perfect_analytic, plan_piaacmc, plan_vortex, r_over_sigma
):
    sc = Scene(r_over_sigma * S, 0.3, 1e-9)
    f_pc = cfim_direct_imaging(plan_perfect_analytic, sc).entries
    f_pi = cfim_direct_imaging(plan_piaacmc, sc).entries
    f_vc = cfim_direct_imaging(plan_vortex, sc).entries
    for k in (0, 1):
        assert f_pc[k, k] >= f_pi[k, k] >= f_vc[k, k]


def test_imaging_vortex_angular_deficit_window(plan_vortex):
    # contract window [50, 200]; measured 204.5 on the default grid at
    # b = 1e-2.  The cause is the vortex chain's on-axis leak, where the
    # paper's designs reject an on-axis star totally: the grid chain
    # passes 1.93e-4 of it (the extracted operator 1.34e-4, which
    # test_psf_throughput_levels pins).  With an ideal null the deficit
    # falls inside the window: 178 with the on-axis output field projected
    # out of the chain, 151 with the star term dropped.  The leak is not
    # phase sampling (a pixel-averaged phase leaks 1.94e-4); it falls
    # slowly with the window (2.19e-4, 1.93e-4, 1.44e-4 on the
    # self-conjugate 512, 1024 and 2048 grids, deficits 232, 204.5, 202)
    # and sits at the Lyot rim: stop radii 0.98, 0.95, 0.90 leave 9.5e-5,
    # 4.2e-5, 1.65e-5 but push the deficit to 236, 271, 353.  The 62 and
    # 772 once quoted here for half and double resolution came from
    # GridSpec(512, 16) and GridSpec(2048, 16) while cfim_direct_imaging
    # weighted pixels by the plan grid's pitch, not the output grid's
    # (half and twice as fine there, a factor 4 either way).  Expected to
    # fail until the chain nulls exactly
    sc = Scene(0.1 * S, 0.3, 1e-2)
    f = cfim_direct_imaging(plan_vortex, sc)
    q = qfim_polar(sc)
    ratio = q.entries[1, 1] / f.entries[1, 1]
    assert 50.0 <= ratio <= 200.0, f"angular deficit ratio {ratio:.1f}"


def test_imaging_converges_perfect_piaacmc(plan_perfect_analytic, plan_piaacmc):
    # measured ratios: perfect 0.9941/0.9942, piaacmc 0.8089/0.8476; the
    # piaacmc radial entry clears the 20% convergence contract by 0.9%
    sc = Scene(3.0 * S, 0.3, 1e-9)
    q = qfim_high_contrast(sc.r_delta, sc.b)
    for plan in (plan_perfect_analytic, plan_piaacmc):
        f = cfim_direct_imaging(plan, sc)
        assert abs(f.entries[0, 0] / q.entries[0, 0] - 1.0) < 0.2
        assert abs(f.entries[1, 1] / q.entries[1, 1] - 1.0) < 0.2


def test_imaging_converges_vortex(plan_vortex):
    # contract expects 20% convergence by 3 sigma; the vortex radial ratio
    # reads 0.012 at b = 1e-9 (gap 0.988), because the grid chain's 1.93e-4
    # on-axis leak dominates every informative pixel at this contrast, and
    # 0.68 at b = 1e-2.  An ideal null (the on-axis output field projected
    # out, or the star term dropped) reads 0.782, still 0.018 beyond the
    # bound, and PAPER.md does not settle the 20% level, so this is
    # expected to fail
    sc = Scene(3.0 * S, 0.3, 1e-9)
    f = cfim_direct_imaging(plan_vortex, sc)
    q = qfim_high_contrast(sc.r_delta, sc.b)
    rel = abs(f.entries[0, 0] / q.entries[0, 0] - 1.0)
    assert rel < 0.2, f"radial convergence gap {rel:.3f}"


def test_imaging_step_insensitive(plan_perfect_analytic):
    # measured max entry change 3.0e-8 under step halving
    sc = Scene(0.3 * S, 0.3, 1e-9)
    h = 1e-4 * max(S, sc.r_delta)
    f_1 = cfim_direct_imaging(plan_perfect_analytic, sc, step=h)
    f_2 = cfim_direct_imaging(plan_perfect_analytic, sc, step=h / 2)
    assert_allclose(np.diag(f_1.entries), np.diag(f_2.entries), rtol=1e-6)


def test_imaging_separation_below_step_rejected(plan_perfect_analytic):
    with pytest.raises(ValueError, match=r"separation 1e-09 must exceed the difference step 6\.09"):
        cfim_direct_imaging(plan_perfect_analytic, Scene(1e-9, 0.3, 1e-3))


@pytest.mark.parametrize(
    "design, bound_mib", [("perfect", 34), ("piaacmc", 29.5), ("vortex", 29.5)]
)
def test_imaging_memory(design, bound_mib, plan_perfect_analytic, plan_piaacmc, plan_vortex):
    # at the `tables` scene: the ten sources are staged first, so the
    # vortex's full-grid focal field is freed before any image exists; the
    # two differences (8 MiB each) are rendered before the base image, and
    # the quotient sums run over row blocks, so the peak is one image
    # render on top of the two differences; an image is one real buffer
    # that each output is squared into.  Measured 33.2 / 28.6 / 28.6 MiB
    # of tracemalloc for perfect / PIAACMC / vortex, the perfect chain with
    # one real source on top of the three images (41.0 / 33.0 / 44.2 MiB
    # when each source was staged into its allocated image, the Airy
    # sampler held its radii whole and the live pixels were gathered into
    # four full-size arrays; 48.0 MiB for perfect when its sources were
    # cast to complex; 57.0 / 48.1 / 48.1 MiB with each output built
    # whole, 72.0 / 72.1 / 83.1 MiB with the base image rendered first and
    # every full image held to the end).  One more full-grid image (8 MiB)
    # breaks every bound
    plan = {"perfect": plan_perfect_analytic, "piaacmc": plan_piaacmc, "vortex": plan_vortex}[
        design
    ]
    scene = Scene(0.1 * S, 0.3, 1e-9)
    output_state_image(plan, scene)  # the source disk is built once per grid
    tracemalloc.start()
    try:
        cfim_direct_imaging(plan, scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_imaging_accepts_angles_at_the_wrap():
    # the angular difference wraps through 0 = 2 pi.  The grid chain is
    # invariant under quarter turns about the grid center, so both sides
    # of the wrap read as phi = pi/2: measured diagonal gaps below 1e-11
    plan = vortex_plan(GridSpec(256, 8.0))
    ref = np.diag(cfim_direct_imaging(plan, Scene(0.5, 0.5 * math.pi, 1e-3)).entries)
    for phi in (0.0, 2.0 * math.pi - 1e-9):
        f = cfim_direct_imaging(plan, Scene(0.5, phi, 1e-3))
        assert_allclose(np.diag(f.entries), ref, rtol=1e-9)
    # one ulp below the step h = 1e-4 at r = 1, phi - h is a hair below
    # zero and its plain modulo rounds to the excluded 2 pi
    perfect = perfect_plan(grid=GridSpec(256, 8.0))
    f = cfim_direct_imaging(perfect, Scene(1.0, np.nextafter(1e-4, 0.0), 1e-3))
    assert np.all(np.isfinite(f.entries))


# ----------------------------------------------------------- quantum ordering


@given(
    r_over_sigma=st.floats(min_value=0.05, max_value=3.0),
    log10_b=st.floats(min_value=-9.0, max_value=math.log10(0.3)),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    n_max=st.sampled_from([4, 10, 30]),
)
@settings(max_examples=60, deadline=None)
def test_qfim_dominates_spade_information(r_over_sigma, log10_b, phi, n_max):
    # the quantum matrix bounds every measurement's; over 600 random
    # scenes the worst violation measured 7.5e-13 of the trace, where
    # dominates allows 1e-9 of max(1, trace)
    scene = Scene(r_over_sigma * S, phi, 10.0**log10_b)
    spade = cfim_spade(FourierZernikeBasis(n_max), scene)
    assert qfim_polar(scene).dominates(spade)
