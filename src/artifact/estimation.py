"""Monte-Carlo localization of a faint companion from mode counting.

Simulates photon counting in the Fourier-Zernike basis for a star-planet
scene, estimates the planet offset by maximum likelihood, and reduces
trial clusters to an uncertainty patch comparable with the quantum
localization bound.  Counting intensities depend on the position angle
only through squared cosines and sines of whole multiples, so the four
reflections phi, -phi, pi - phi and pi + phi are indistinguishable;
estimates and reference truths are folded to the first quadrant.

The estimator is a Nelder-Mead simplex written as a generator
(`_nelder_mead`): it yields each point to evaluate and takes the value
back, and keeps its three vertices and their values as Python floats.
A trial cluster advances all its searches in lockstep, so each round
costs one batched modal-kernel call over the pending points; the batched
rows equal the single-scene ones bit for bit, so an estimate does not
depend on the cluster it was computed in.  Where b r_delta < 1e-8 (at
b = 1e-9, every separation the search reaches) the stars of a batch sit
on axis, where the radial factors are exact constants, so only the
planets' radii reach the Bessel kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .modebasis import all_mode_probabilities
from .optics import AIRY_SIGMA, Scene, wrap_angle

__all__ = [
    "PATCH_MIN_ESTIMATES",
    "LikelihoodTable",
    "LocalizationEstimate",
    "MeasurementRecord",
    "TrialResult",
    "coarse_table",
    "fit_uncertainty_patch",
    "fold_position_angle",
    "mle_localize",
    "run_trials",
    "sample_measurement",
    "spiral_truths",
]

# fewest estimates a stable patch fit takes
PATCH_MIN_ESTIMATES = 30

_DEFECT_CEILING = 0.05
_R_FLOOR = 1e-3 * AIRY_SIGMA
_R_CEILING = 3.0 * AIRY_SIGMA
_GRID_POINTS = 64
_LOG_FLOOR = 1e-300
_SPIRAL_PHI0 = 0.18
_SPIRAL_TURNS = 0.18
# the simplex stops when every vertex lies within _XATOL of the best one
# in each coordinate, or after _MAXFEV objective evaluations
_XATOL = 1e-6 * AIRY_SIGMA
_MAXFEV = 500


def fold_position_angle(phi):
    """Canonical first-quadrant representative of a position angle."""
    folded = math.fmod(float(phi), math.pi)
    if folded < 0.0:
        folded += math.pi
    if folded > 0.5 * math.pi:
        folded = math.pi - folded
    return folded


def _outcome_probabilities(basis, *scene):
    """Mode probabilities with the out-of-truncation mass as a last bucket.

    Takes the scene arguments of all_mode_probabilities: one Scene gives
    shape (count + 1,), a batch of S scenes a C-contiguous
    (S, count + 1) array.  The leak is summed over C-contiguous rows, so
    every row equals the single-scene result bit for bit.
    """
    p = all_mode_probabilities(basis, *scene)
    leak = np.maximum(1.0 - p.sum(axis=-1, keepdims=True), 0.0)
    return np.concatenate([p, leak], axis=-1)


@dataclass(frozen=True)
class MeasurementRecord:
    """Photon counts per sorted mode, leakage bucket last."""

    counts: np.ndarray
    total_photons: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.min(initial=0) < 0:
            raise ValueError("negative photon count")
        if int(counts.sum()) != self.total_photons:
            raise ValueError("counts must sum to the total photon number")


@dataclass(frozen=True)
class LocalizationEstimate:
    """Maximum-likelihood planet offset with optimizer bookkeeping."""

    r_hat: float
    phi_hat: float
    loglik: float
    converged: bool
    n_evals: int

    def __post_init__(self):
        if self.r_hat < 0.0:
            raise ValueError("separation estimate must be nonnegative")
        if not 0.0 <= self.phi_hat < 2.0 * math.pi:
            raise ValueError("position angle estimate must lie in [0, 2 pi)")


# numpy's Poisson sampler rejects a larger mean with a bare "lam value too large"
_POISSON_MAX = 9.223372006484771e18


def _check_mean_photons(mean_photons):
    if not 0.0 < mean_photons <= _POISSON_MAX:
        raise ValueError(
            f"mean photon number must lie in (0, {_POISSON_MAX!r}], got {mean_photons!r}"
        )


def _truth_weights(scene, basis):
    """Outcome weights of a truth scene: mode probabilities plus leak, summing to 1.

    Raises when the leak exceeds _DEFECT_CEILING.
    """
    pv = _outcome_probabilities(basis, scene)
    if pv[-1] > _DEFECT_CEILING:
        raise ValueError(
            "truncation leaves %.3f of the scene unsorted; raise n_max" % pv[-1]
        )
    return pv / pv.sum()


def _draw_record(weights, mean_photons, rng_seed):
    rng = np.random.default_rng(rng_seed)
    total = int(rng.poisson(mean_photons))
    return MeasurementRecord(rng.multinomial(total, weights), total)


def sample_measurement(scene, basis, mean_photons, rng_seed):
    """Draw one photon-counting record for a scene, deterministic per seed.

    The total photon number is Poisson with the given mean, which must be
    finite and positive, and the split over sorted modes plus the leakage
    bucket is multinomial.  A leakage mass above 5% means the truncation
    cannot represent the scene and is rejected.
    """
    _check_mean_photons(mean_photons)
    return _draw_record(_truth_weights(scene, basis), mean_photons, rng_seed)


@dataclass(frozen=True)
class LikelihoodTable:
    """Precomputed coarse-grid log probabilities shared across trials."""

    n_max: int
    rotation: float
    b: float
    r_values: np.ndarray
    phi_values: np.ndarray
    log_probs: np.ndarray


def coarse_table(basis, b):
    """Log outcome probabilities on the estimator's seeding grid.

    The grid is 64 log-spaced separations from 1e-3 to 3 Airy sigma by
    64 position angles; one table serves every record taken at the same
    truncation and contrast.  ``log_probs`` has shape (4096, count + 1),
    row i * 64 + j for separation i and angle j, and is C-contiguous:
    ``log_probs @ counts`` then sums in a fixed order, so the seeding
    point, and with it every estimate, does not depend on the table's
    memory layout.  It is built one separation (64 scenes) per call of
    the modal kernel, which bounds the working memory to one row block.
    Where b r < 1e-8 (at b = 1e-9, the whole grid) the stars of a block
    sit on axis and take their exact radial factors, so only the planets'
    radii are evaluated by bessel_j.
    """
    r_values = np.geomspace(_R_FLOOR, _R_CEILING, _GRID_POINTS)
    phi_values = np.linspace(0.0, 2.0 * math.pi, _GRID_POINTS, endpoint=False)
    rows = np.empty((_GRID_POINTS * _GRID_POINTS, basis.count + 1))
    for i, r in enumerate(r_values):
        block = slice(i * _GRID_POINTS, (i + 1) * _GRID_POINTS)
        rows[block] = _outcome_probabilities(basis, r, phi_values, b)
    return LikelihoodTable(
        basis.n_max,
        basis.rotation,
        float(b),
        r_values,
        phi_values,
        np.log(np.maximum(rows, _LOG_FLOOR)),
    )


def _check_table(table, basis, b):
    if table is None:
        return coarse_table(basis, b)
    if (
        table.n_max != basis.n_max
        or table.rotation != basis.rotation
        or table.b != b
    ):
        raise ValueError("likelihood table built for a different configuration")
    return table


class _BudgetSpent(Exception):
    """The evaluation budget ran out inside a simplex step."""


def _simplex_order(fsim):
    """Vertex indices by value as numpy's argsort orders three entries.

    That is an insertion sort: stable on ties, NaN after every number.
    """
    return sorted(
        range(len(fsim)),
        key=lambda k: (True, 0.0) if fsim[k] != fsim[k] else (False, fsim[k]),
    )


def _nelder_mead(x0, maxfev):
    """Nelder-Mead simplex search over (r, phi) as a generator of points to evaluate.

    Yields each point, an (r, phi) tuple of floats, and expects its
    objective value back through ``send``; returns (x, fun, nfev,
    success) with x such a tuple when it stops.  This is scipy 1.17's
    ``_minimize_neldermead`` in the mode ``minimize(method="Nelder-Mead",
    options={"xatol": _XATOL, "fatol": inf, "maxfev": maxfev})`` runs on
    a two-coordinate start, step for step and bit for bit: its initial
    simplex, its non-adaptive coefficients, its sort, and its cut-off,
    which abandons the step that would exceed maxfev evaluations.  The
    three vertices and their values are kept as Python floats, each
    trial point formed by the same float operations as scipy's arrays
    (numpy rounds each elementwise operation as Python does), and the
    vertices are reordered as numpy's argsort orders three entries.
    With fatol infinite the test is on the vertices alone: it stops when
    every vertex lies within _XATOL of the best vertex in each
    coordinate.  Given maxfev, scipy sets no iteration cap.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return (yield x)

    def toward(xbar, vertex, t):
        # (1 + t) xbar - t vertex: scipy's reflection (t = rho), expansion
        # (rho chi) and outside contraction (psi rho); its inside
        # contraction (1 - psi) xbar + psi vertex is t = -psi to the bit
        return ((1 + t) * xbar[0] - t * vertex[0], (1 + t) * xbar[1] - t * vertex[1])

    r0, phi0 = float(x0[0]), float(x0[1])
    # scipy's 5% steps, 0.00025 off a zero coordinate
    sim = [
        (r0, phi0),
        ((1 + 0.05) * r0 if r0 != 0 else 0.00025, phi0),
        (r0, (1 + 0.05) * phi0 if phi0 != 0 else 0.00025),
    ]
    fsim = [math.inf] * 3
    try:
        for k in range(3):
            fsim[k] = yield from evaluate(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the initial simplex twice; the sort is stable, so once
    # is the same
    order = _simplex_order(fsim)
    sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]

    while nfev < maxfev:
        try:
            best = sim[0]
            # the fatol = inf test fails only on NaN, from inf - inf while
            # the search still has only infinite values; like numpy's max,
            # all() reads any NaN difference as a failed test
            if all(
                abs(v[0] - best[0]) <= _XATOL and abs(v[1] - best[1]) <= _XATOL
                for v in sim[1:]
            ) and all(abs(fsim[0] - f) <= math.inf for f in fsim[1:]):
                break
            # np.add.reduce over two rows is one addition
            xbar = ((sim[0][0] + sim[1][0]) / 2, (sim[0][1] + sim[1][1]) / 2)
            xr = toward(xbar, sim[2], rho)
            fxr = yield from evaluate(xr)
            if fxr < fsim[0]:
                xe = toward(xbar, sim[2], rho * chi)
                fxe = yield from evaluate(xe)
                if fxe < fxr:
                    sim[2], fsim[2] = xe, fxe
                else:
                    sim[2], fsim[2] = xr, fxr
            elif fxr < fsim[1]:
                sim[2], fsim[2] = xr, fxr
            else:
                if fxr < fsim[2]:
                    xc = toward(xbar, sim[2], psi * rho)
                    fxc = yield from evaluate(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[2], fsim[2] = xc, fxc
                else:
                    xcc = toward(xbar, sim[2], -psi)
                    fxcc = yield from evaluate(xcc)
                    shrink = not fxcc < fsim[2]
                    if not shrink:
                        sim[2], fsim[2] = xcc, fxcc
                if shrink:
                    for j in (1, 2):
                        v = sim[j]
                        sim[j] = (
                            best[0] + sigma * (v[0] - best[0]),
                            best[1] + sigma * (v[1] - best[1]),
                        )
                        fsim[j] = yield from evaluate(sim[j])
        except _BudgetSpent:
            pass
        order = _simplex_order(fsim)
        sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]
    # numpy's min: NaN when any value is NaN
    fun = math.nan if any(f != f for f in fsim) else fsim[0]
    return sim[0], fun, nfev, nfev < maxfev


def _check_record(record, basis):
    counts = record.counts
    if int(counts.sum()) == 0:
        raise ValueError("record carries no photons")
    if counts.shape != (basis.count + 1,):
        raise ValueError("record truncation does not match the basis")


def _seed_point(table, counts):
    """The coarse-grid point (r, phi) that best explains the counts."""
    best = int(np.argmax(table.log_probs @ counts))
    return np.array([table.r_values[best // _GRID_POINTS], table.phi_values[best % _GRID_POINTS]])


def _negloglik(basis, b, counts, points):
    """Negative log-likelihood of counts[s] at points[s] = (r, phi).

    One call of the modal kernel covers every point inside the search
    domain 0 < r <= 1.5 * _R_CEILING; points outside it read inf.  Their
    angles are wrapped by one array call of wrap_angle, which equals the
    scalar call per angle.  Each value is the 1-D product
    counts[s] @ log p, as for a single scene.
    """
    r = points[:, 0]
    values = np.full(len(points), np.inf)
    inside = np.flatnonzero(~((r <= 0.0) | (r > 1.5 * _R_CEILING)))
    if inside.size:
        phi = wrap_angle(points[inside, 1])
        pv = _outcome_probabilities(basis, r[inside], phi, b)
        logp = np.log(np.maximum(pv, _LOG_FLOOR))
        for row, s in enumerate(inside.tolist()):
            values[s] = -float(counts[s] @ logp[row])
    return values


def _localize(records, basis, b, table):
    """Estimates for records taken at one truncation and contrast.

    Each search is seeded at its record's best coarse-grid point; all
    searches then advance in lockstep, one batched objective evaluation
    per round over the points still pending.
    """
    counts = [record.counts for record in records]
    searches = [_nelder_mead(_seed_point(table, c), _MAXFEV) for c in counts]
    pending = {s: next(search) for s, search in enumerate(searches)}
    outcomes = [None] * len(searches)
    while pending:
        order = list(pending)
        values = _negloglik(
            basis, b, [counts[s] for s in order], np.array([pending[s] for s in order])
        )
        for s, value in zip(order, values.tolist()):
            try:
                pending[s] = searches[s].send(value)
            except StopIteration as stop:
                del pending[s]
                outcomes[s] = stop.value
    estimates = []
    for x, fun, nfev, success in outcomes:
        r_hat = max(float(x[0]), 0.0)
        estimates.append(
            LocalizationEstimate(
                r_hat=r_hat,
                phi_hat=fold_position_angle(x[1]),
                loglik=-float(fun),
                converged=bool(success) and r_hat > 1.5 * _R_FLOOR,
                n_evals=int(nfev),
            )
        )
    return estimates


def mle_localize(record, basis, b_known, table=None):
    """Maximum-likelihood planet offset from one counting record.

    Seeds a Nelder-Mead refinement with the best point of the coarse
    grid.  The simplex stops when every vertex lies within 1e-6 sigma of
    the best vertex in each coordinate (the angle read in radians), or
    after 500 evaluations, which flags the estimate unconverged; there is
    no cap on iterations.  A reusable table from coarse_table speeds up
    batch runs.  Estimates pinned at the grid's separation floor mean the
    record carries no offset information and are flagged unconverged.
    """
    _check_record(record, basis)
    return _localize([record], basis, b_known, _check_table(table, basis, b_known))[0]


def fit_uncertainty_patch(estimates):
    """Patch size sqrt(tr cov) of estimate scatter in Cartesian offsets."""
    if len(estimates) < PATCH_MIN_ESTIMATES:
        raise ValueError(
            f"need at least {PATCH_MIN_ESTIMATES} estimates for a stable patch fit"
        )
    x = np.array([e.r_hat * math.cos(e.phi_hat) for e in estimates])
    y = np.array([e.r_hat * math.sin(e.phi_hat) for e in estimates])
    cov = np.cov(np.vstack([x, y]))
    return float(math.sqrt(max(cov[0, 0] + cov[1, 1], 0.0)))


@dataclass(frozen=True)
class TrialResult:
    """One Monte-Carlo trial: derived seed, photon draw and its estimate."""

    index: int
    seed: int
    n_photons: int
    estimate: LocalizationEstimate


def _trial_seed(seed, index):
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def run_trials(scene, basis, mean_photons, n_trials, seed, table=None):
    """Sample and estimate n_trials records with per-trial derived seeds.

    Trial k uses the seed pair (seed, k), so any subset of trials can be
    reproduced independently of execution order.  All records are drawn
    first, from one evaluation of the truth scene's outcome probabilities,
    and each equals sample_measurement's record at its seed.  Their
    searches then run in lockstep, one batched kernel call per simplex
    round, and each estimate equals mle_localize on its record bit for
    bit.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    _check_mean_photons(mean_photons)
    table = _check_table(table, basis, scene.b)
    seeds = [_trial_seed(seed, k) for k in range(n_trials)]
    # the truth scene is evaluated once; every record draws from its weights
    weights = _truth_weights(scene, basis)
    records = [_draw_record(weights, mean_photons, s) for s in seeds]
    for record in records:
        _check_record(record, basis)
    estimates = _localize(records, basis, scene.b, table)
    return [
        TrialResult(index=k, seed=s, n_photons=record.total_photons, estimate=est)
        for k, (s, record, est) in enumerate(zip(seeds, records, estimates))
    ]


def spiral_truths(count, r_start, r_end, b):
    """Truth scenes spaced equally along an Archimedean spiral arc.

    The arc starts at _SPIRAL_PHI0 and sweeps _SPIRAL_TURNS of a turn, a
    span that keeps every point away from the quarter-turn reflection
    boundaries, where folded scatter would wrap and distort a patch fit.
    """
    if count < 1:
        raise ValueError("need at least one truth point")
    if count == 1:
        return [Scene(r_start, _SPIRAL_PHI0, b)]
    t = np.linspace(0.0, 1.0, count)
    scenes = []
    for tk in t:
        r = r_start + (r_end - r_start) * tk
        phi = (_SPIRAL_PHI0 + 2.0 * math.pi * _SPIRAL_TURNS * tk) % (2.0 * math.pi)
        scenes.append(Scene(r, phi, b))
    return scenes
