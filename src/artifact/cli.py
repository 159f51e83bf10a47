"""Command-line surface wiring the library into reproduction runs.

Four subcommands cover the capability areas: ``bounds`` sweeps the
quantum detection and localization limits over (separation, contrast)
grids, ``tables`` prints integration-time tables for every simulated
system at a pinned scene, ``coronagraph`` emits intensity rasters, mode
spectra and throughput sweeps for the three designs, and ``montecarlo``
runs the sampling-plus-estimation harness over one truth scene or a
spiral of them.

Conventions shared by every subcommand: outputs land in ``--out-dir``.
Every CSV has LF line endings and opens with a ``# `` comment line, then a
header row; cells are integers, ``%.17g`` floats or labels.  The comment
records the code version and seed, except in the per-cluster trials
CSVs of ``montecarlo``, which open with ``# localization trials; angles
folded to the first quadrant``.  After a subcommand returns, ``main``
writes a ``<command>_manifest.json`` run manifest next to its outputs:
the command, ``config`` (``--config`` as given, or null), ``seed``,
``version``, the Python, numpy and scipy versions under ``libraries``
with the name, version and thread count of numpy's BLAS (``blas``,
``blas_version``, ``blas_threads``; null where they cannot be read),
the ``outputs`` written, the wall-clock ``duration_s``, and under
``parameters`` every other parsed option except ``--out-dir`` and
``--jobs`` (``tables`` adds the ``kind`` its ``--table`` selects).  ``montecarlo``
adds ``diagnostics``: under ``clusters``, one entry per cluster with the
mean and max Nelder-Mead evaluations of its trials (``n_evals_mean``,
``n_evals_max``) and its ``converged_frac``; ``tables`` adds
``diagnostics``: under ``chains``, per nulling design in the order of its
rows (perfect, PIAACMC, vortex), the ``seconds`` from building the plan to
the end of its row and the process's ``peak_rss_mb`` then; ``coronagraph
--output eigenmodes`` adds ``diagnostics`` too: the smallest eigenvalue of the
sampled modes' scaled Gram matrix (``gram_floor``), the largest
|transmission| (``max_abs_transmission``), the ceiling that extraction
enforces on it (``transmission_ceiling``) and, under ``stages``, the
``seconds`` and the process's ``peak_rss_mb`` at the end of the ``plan``
build and of ``extract_operator``.  Exit code 0
means success, 2 a configuration or usage error, 3 numerical
non-convergence or another numerical failure (any ``ArithmeticError``,
such as an overflow).  Telescope prescriptions come from ``--config`` or,
when that is absent, the ``ARTIFACT_TELESCOPE_CONFIG`` environment
variable.  Sweep axes are given as ``v1,v2,...`` lists or
``start:stop:count`` ranges (append ``:log`` for geometric spacing).
Intensity rasters are row-major little-endian float32 behind a 16-byte
header: magic ``FR32``, then uint32 width, height and a reserved zero.
Every subcommand runs in the one process that parsed it; ``--jobs`` is
still accepted, for older command lines, and ignored.
"""

import argparse
import ctypes
import json
import math
import os
import pathlib
import platform
import resource
import sys
import time

import numpy as np
import scipy

from . import __version__
from .classical_info import (
    cce_spade_binary,
    cfim_direct_imaging,
    cfim_spade,
    imaging_step,
)
from .coronagraph import (
    _TRANSMISSION_CEILING,
    extract_operator,
    output_state_image,
    perfect_plan,
    piaacmc_plan,
    vortex_plan,
    write_raster,
)
from .estimation import (
    _POISSON_MAX,
    PATCH_MIN_ESTIMATES,
    coarse_table,
    fit_uncertainty_patch,
    run_trials,
    spiral_truths,
)
from .modebasis import FourierZernikeBasis
from .optics import (
    GridSpec,
    Scene,
    check_source_in_window,
    load_prescription,
    separation_from_sigma_units,
    wrap_angle,
)
from .quantum_bounds import (
    localization_photons,
    photon_requirement_map,
    qce,
    qfim_diagonal,
    qfim_polar,
    sigma_loc,
)

__all__ = ["main"]

CONFIG_ENV_VAR = "ARTIFACT_TELESCOPE_CONFIG"

_PE_TARGETS = (1e-1, 1e-2, 1e-3, 1e-4)
_REL_ERRORS = (1.0, 0.5, 0.1, 0.01)
_SPADE_TABLE_ORDER = 60
_EXTRACTION_DEFAULT_ORDER = 6
_CONVERGENCE_FLOOR = 0.9
# largest bounds separation for the qce and budget-map targets: the PSF
# overlaps there are about 1e-150, and their squares, which those targets
# take, underflow to zero by 1e108 sigma
_MAX_BOUNDS_R_SIGMA = 1e100
_TRIALS_COMMENT = "localization trials; angles folded to the first quadrant"
_TRIALS_HEADER = "trial,seed,truth_r,truth_phi,est_r,est_phi,loglik,converged,n_photons"
_SUMMARY_HEADER = (
    "cluster,truth_r_over_sigma,truth_phi,sigma_patch,sigma_floor,"
    "patch_ratio,n_converged,n_trials"
)
# parsed options the manifest records outside ``parameters`` or not at all;
# ``--jobs`` selects nothing
_NOT_PARAMETERS = ("command", "func", "config", "out_dir", "seed", "jobs")


def parse_axis(text):
    """Parse a sweep axis spec into a float array.

    Accepts a comma-separated value list or ``start:stop:count`` with an
    optional trailing ``:log`` for geometric spacing.  A bare number
    yields a one-point axis.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or parts[3:] not in ([], ["log"]):
            raise ValueError(
                f"bad axis spec {text!r}; use v1,v2,... or start:stop:count[:log]"
            )
        count = int(parts[2])
        if count < 1:
            raise ValueError(f"axis spec {text!r} needs a count of at least 1")
        space = np.geomspace if len(parts) == 4 else np.linspace
        return space(float(parts[0]), float(parts[1]), count)
    values = np.array([float(v) for v in text.split(",") if v.strip()])
    if values.size == 0:
        raise ValueError(f"empty axis spec {text!r}")
    return values


def _scalar_axis(text, flag):
    values = parse_axis(text)
    if values.size != 1:
        raise ValueError(f"{flag} must be a single value here, got {values.size}")
    return float(values[0])


def _load_config(args, required):
    if args.config is None:
        if required:
            raise ValueError(
                "no telescope configuration: pass --config or set "
                f"{CONFIG_ENV_VAR}"
            )
        return None
    return load_prescription(args.config)


def _out_dir(args):
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _comment(seed):
    return f"artifact {__version__} seed={seed}"


def _write_csv(path, comment, header, rows):
    """The one CSV writer: ``# comment``, the header line, then the rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {comment}\n{header}\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(value):
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _get_plan(design):
    """A fresh plan of one design on the default grid.

    Not cached: a process uses each design's plan once, and a table
    computes its chains one at a time, so each plan's arrays are freed
    before the next design is built.
    """
    maker = {
        "perfect": perfect_plan,
        "piaacmc": piaacmc_plan,
        "vortex": vortex_plan,
    }[design]
    return maker()


def _check_separations(r_values, reach):
    """Reject separations whose images leave the grid, before any plan is built.

    Each ``--r-delta-over-sigma`` value must be finite and nonnegative, and
    ``reach(r_delta)``, the farthest radius at which the run's images place
    a source of the scene at separation r_delta, must keep the margin of
    ``check_source_in_window`` on the default grid, which every design's
    plan samples its sources on.  ``reach`` may raise ValueError itself.
    The message names the option and the value.
    """
    for r_sigma in r_values:
        try:
            if not 0.0 <= r_sigma < math.inf:
                raise ValueError("a separation must be finite and nonnegative")
            check_source_in_window(reach(separation_from_sigma_units(r_sigma)), GridSpec())
        except ValueError as exc:
            raise ValueError(f"--r-delta-over-sigma {r_sigma:g}: {exc}") from None


def _check_contrast(b):
    """Reject a ``--contrast-b`` outside (0, 1), naming the option and the value."""
    if not 0.0 < b < 1.0:
        raise ValueError(f"--contrast-b must lie in (0, 1), got {b:g}")


def planet_throughput(plan, r_delta, phi=0.3):
    """Transmitted energy fraction of a unit source at radius r_delta.

    Probes the chain with a scene whose bare-star rendering places a
    unit-weight source at polar (r_delta, phi), the angle up to rounding:
    it passes through two half-turn shifts, so phi = 0.3 lands at
    0.2999999999999998.  The integrated output intensity is then the
    off-axis throughput, free of any on-axis null residual.
    """
    probe = Scene(2.0 * r_delta, (phi + math.pi) % (2.0 * math.pi), 0.5)
    image = output_state_image(plan, probe, star_only=True)
    return float(image.sum()) * plan.output_grid.dx**2


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args):
    """Sweep quantum limits over a (separation, contrast) grid to CSV."""
    prescription = _load_config(args, required=False)
    r_values = parse_axis(args.r_delta_over_sigma)
    # the qfim entries have closed forms that overflow to inf honestly
    limit = math.inf if args.target == "qfim" else _MAX_BOUNDS_R_SIGMA
    bad = r_values[~((r_values >= 0.0) & (r_values <= limit) & np.isfinite(r_values))]
    if bad.size:
        span = "finite and nonnegative" if limit == math.inf else f"in [0, {limit:g}]"
        raise ValueError(
            f"--r-delta-over-sigma values must be {span} for --target "
            f"{args.target}, got {bad[0]:g}"
        )
    b_values = parse_axis(args.contrast_b)

    # every row is formed before --out-dir is made; rows are row-major
    # over (separation, contrast)
    if args.target == "qce":
        name, header = "bounds_qce.csv", "r_delta_over_sigma,b,qce"
        rows = [
            (r, b, qce(Scene(separation_from_sigma_units(r), 0.0, b)))
            for r in r_values
            for b in b_values
        ]
    elif args.target == "qfim":
        name, header = "bounds_qfim.csv", "r_delta_over_sigma,b,k_rr,k_phiphi"
        rows = [
            (r, b, *qfim_diagonal(Scene(separation_from_sigma_units(r), 0.0, b)))
            for r in r_values
            for b in b_values
        ]
    else:
        name, header = "bounds_budget_map.csv", "r_delta_over_sigma,b,photons,seconds"
        rows = photon_requirement_map(
            r_values,
            b_values,
            task=args.task,
            target=args.pe_target if args.task == "detection" else args.rel_loc_error,
            prescription=prescription,
        )
    path = _out_dir(args) / name
    _write_csv(path, _comment(args.seed), header, rows)
    print(f"wrote {path} ({r_values.size * b_values.size} grid points)")
    return [path.name], 0, {}


# ---------------------------------------------------------------------------
# tables


_TABLE_SYSTEMS = ("quantum", "spade", "perfect", "piaacmc", "vortex")


def _peak_rss_mb():
    """The process's peak resident set size so far in MB, to 0.1.

    From ``getrusage``, which Linux reports in KiB.
    """
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _chain_rows(row):
    """``row(plan)`` for a fresh plan of each nulling design, in turn.

    Returns (rows, chains), both keyed by design in the order perfect,
    PIAACMC, vortex; ``chains[design]`` holds the ``seconds`` from building
    that design's plan to the end of its row (``time.perf_counter``) and
    the process's ``peak_rss_mb`` then.
    """
    rows, chains = {}, {}
    for design in ("perfect", "piaacmc", "vortex"):
        t0 = time.perf_counter()
        # no name holds the plan, so it is freed before the next is built
        rows[design] = row(_get_plan(design))
        chains[design] = _stage_cost(t0)
    return rows, chains


def _stage_cost(t0):
    """The ``seconds`` since ``t0`` (``time.perf_counter``) and the ``peak_rss_mb`` now."""
    return {"seconds": round(time.perf_counter() - t0, 3), "peak_rss_mb": _peak_rss_mb()}


def _detection_exponents(scene):
    """Detection exponent per system, and the chains' stage numbers.

    The nulling chains use b * throughput.
    """
    out = {"quantum": qce(scene), "spade": float(cce_spade_binary(scene))}
    rows, chains = _chain_rows(
        lambda plan: scene.b * planet_throughput(plan, scene.r_delta, scene.phi_delta)
    )
    return {**out, **rows}, chains


def _localization_matrices(scene):
    """Localization matrix per system at the pinned scene, and the chains' stage numbers."""
    out = {
        "quantum": qfim_polar(scene),
        "spade": cfim_spade(FourierZernikeBasis(_SPADE_TABLE_ORDER), scene),
    }
    rows, chains = _chain_rows(lambda plan: cfim_direct_imaging(plan, scene))
    return {**out, **rows}, chains


def _print_table(title, col_labels, rows):
    width = max(len(s) for s, _ in rows) + 2
    print(title)
    print(" " * width + "".join(f"{c:>14}" for c in col_labels))
    for system, values in rows:
        print(f"{system:<{width}}" + "".join(f"{v:>14.6g}" for v in values))


def cmd_tables(args):
    """Print and write an integration-time table for all systems.

    Selector 2 tabulates detection times against error-probability
    targets, selector 3 localization times against relative-error
    targets, both at the pinned sub-diffraction high-contrast scene.
    A separation or a ``--contrast-b`` outside its domain exits 2 before
    any plan is built and ``--out-dir`` made, naming the option and the
    value.
    """
    prescription = _load_config(args, required=True)
    flux = prescription.photon_flux_hz
    if not 0.0 < args.r_delta_over_sigma < math.inf:
        # on axis the detection exponent vanishes and the polar chart of
        # the localization matrices is singular: no table has a finite row
        raise ValueError(
            f"--r-delta-over-sigma must be positive and finite, got {args.r_delta_over_sigma:g}"
        )
    _check_contrast(args.contrast_b)
    scene = Scene(separation_from_sigma_units(args.r_delta_over_sigma), 0.3, args.contrast_b)
    kind = "detection" if args.table in ("2", "detection") else "localization"
    if kind == "detection":
        # the rows render a unit source at the separation (planet_throughput)
        _check_separations([args.r_delta_over_sigma], lambda r: r)
    else:
        # the rows render both sources of the scenes one difference step out
        # (cfim_direct_imaging), which also needs the separation to exceed it
        _check_separations(
            [args.r_delta_over_sigma],
            lambda r: max(scene.b, 1.0 - scene.b) * (r + imaging_step(r)),
        )
    out = _out_dir(args)
    args.kind = kind  # recorded among the manifest's parameters

    if kind == "detection":
        exponents, chains = _detection_exponents(scene)
        rates = {name: exponents[name] * flux for name in _TABLE_SYSTEMS}
        targets, label, target_name = _PE_TARGETS, "Pe", "pe_target"
        # an exponent that rounds to zero takes forever: the quantum and
        # SPADE ones do at b = 1e-9 below about 1e-3 sigma, where the
        # survival probability rounds to 1
        rows = [
            (name, [-math.log(pe) / rate if rate > 0.0 else math.inf for pe in targets])
            for name, rate in rates.items()
        ]
    else:
        matrices, chains = _localization_matrices(scene)
        targets, label, target_name = _REL_ERRORS, "rel", "rel_loc_error"
        rows = [
            (name, [localization_photons(matrices[name], rel) / flux for rel in targets])
            for name in _TABLE_SYSTEMS
        ]
    title = (
        f"{kind.capitalize()} integration time (s) at r_delta/sigma="
        f"{args.r_delta_over_sigma:g}, b={args.contrast_b:g}"
    )
    _print_table(title, [f"{label}={t:g}" for t in targets], rows)
    path = out / f"{kind}_times.csv"
    _write_csv(
        path,
        _comment(args.seed),
        f"system,{target_name},seconds",
        [
            (sys_name, target, seconds)
            for sys_name, values in rows
            for target, seconds in zip(targets, values)
        ],
    )
    print(f"wrote {path}")
    return [path.name], 0, {"chains": chains}


# ---------------------------------------------------------------------------
# coronagraph


def cmd_coronagraph(args):
    """Emit a raster, mode spectrum or throughput sweep for one design.

    The scene options are checked before the plan is built and
    ``--out-dir`` made: each separation of an image or a throughput sweep
    must be finite and nonnegative and keep every source its images place
    inside the grid window, or the run exits 2 naming
    ``--r-delta-over-sigma`` and the value.
    """
    if args.output == "image":
        r_sigma = _scalar_axis(args.r_delta_over_sigma, "--r-delta-over-sigma")
        b = args.contrast_b
        _check_contrast(b)
        # the bare star sits at b r; the planet of a full scene at (1 - b) r
        _check_separations(
            [r_sigma], lambda r: b * r if args.star_only else max(b, 1.0 - b) * r
        )
        scene = Scene(separation_from_sigma_units(r_sigma), wrap_angle(args.phi), b)
    elif args.output == "throughput":
        r_values = parse_axis(args.r_delta_over_sigma)
        # planet_throughput's probe source sits at the separation itself
        _check_separations(r_values, lambda r: r)
    t0 = time.perf_counter()
    plan = _get_plan(args.design)
    plan_cost = _stage_cost(t0)
    out = _out_dir(args)
    comment = _comment(args.seed)
    diagnostics = {}

    if args.output == "image":
        image = output_state_image(plan, scene, star_only=args.star_only)
        path = out / f"{args.design}_image.f32"
        write_raster(path, image)
        detail = f"star_only={args.star_only}"
    elif args.output == "eigenmodes":
        t0 = time.perf_counter()
        op = extract_operator(plan, FourierZernikeBasis(args.n_max))
        stages = {"plan": plan_cost, "extract_operator": _stage_cost(t0)}
        path = out / f"{args.design}_modes.csv"
        _write_csv(
            path,
            comment,
            "mode_index,transmission_sq",
            [(k, abs(t) ** 2) for k, t in enumerate(op.transmissions)],
        )
        detail = f"{op.fields.count} modes"
        diagnostics = {
            "gram_floor": op.fields.gram_floor,
            "max_abs_transmission": float(np.max(np.abs(op.transmissions))),
            "transmission_ceiling": _TRANSMISSION_CEILING,
            "stages": stages,
        }
    else:
        rows = [
            (r_sigma, planet_throughput(plan, separation_from_sigma_units(r_sigma)))
            for r_sigma in r_values
        ]
        path = out / f"{args.design}_throughput.csv"
        _write_csv(path, comment, "r_delta_over_sigma,planet_throughput", rows)
        detail = f"{len(rows)} separations"

    print(f"wrote {path} ({detail})")
    return [path.name], 0, diagnostics


# ---------------------------------------------------------------------------
# montecarlo


def _truth_option(args, k, count):
    """The option that sets the separation of truth scene k of count."""
    if args.spiral == 0:
        return "--r-delta-over-sigma"
    if k == 0:
        return "--r-start"
    return "--r-end" if k == count - 1 else "--r-start and --r-end"


def cmd_montecarlo(args):
    """Sample and estimate trial clusters; summarize patch efficiency.

    One cluster per truth scene: either the single scene given by the
    scene flags or ``--spiral N`` truth points along an arc.  Cluster k
    runs with seed ``--seed + k`` so any cluster reproduces in
    isolation.  Every cluster runs, in this process, before any CSV is
    written.  Exits 2 before the likelihood table when ``--seed`` is
    negative, ``--photons`` is not positive or exceeds numpy's Poisson
    limit (about 9.2e18), ``--contrast-b`` lies outside (0, 1), or the
    single scene's ``--r-delta-over-sigma`` or a spiral's ``--r-start`` or
    ``--r-end`` is negative or not finite, naming the option and the
    value; before the first trial when a truth's quantum floor is
    undefined (at zero separation, or where its Fisher matrix is
    singular); and 3 when any cluster converges on fewer than 90% of its
    trials.
    """
    if args.trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 < args.photons <= _POISSON_MAX:
        limit = f"(0, {_POISSON_MAX!r}], numpy's Poisson limit"
        raise ValueError(f"--photons must lie in {limit}, got {args.photons:g}")
    if args.spiral < 0:
        raise ValueError(f"--spiral must be nonnegative, got {args.spiral}")
    if args.seed < 0:
        # numpy's seed sequences take no negative entry
        raise ValueError(
            f"--seed must be nonnegative (cluster k runs with --seed + k), got {args.seed}"
        )
    b = args.contrast_b
    _check_contrast(b)
    flags = (("--r-start", args.r_start), ("--r-end", args.r_end))
    if args.spiral == 0:
        flags = (("--r-delta-over-sigma", args.r_delta_over_sigma),)
    for flag, value in flags:
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{flag} must be finite and nonnegative, got {value:g}")
    if args.spiral > 0:
        scenes = spiral_truths(
            args.spiral,
            separation_from_sigma_units(args.r_start),
            separation_from_sigma_units(args.r_end),
            b,
        )
    else:
        scenes = [
            Scene(
                separation_from_sigma_units(args.r_delta_over_sigma), wrap_angle(args.phi), b
            )
        ]
    # one basis and one likelihood table serve every cluster: the table
    # depends only on the truncation, rotation and contrast
    basis = FourierZernikeBasis(args.n_max)
    table = coarse_table(basis, b)
    # each truth's quantum floor is checked here, before any trial.  After
    # the table: evaluated first, its small arrays raised the peak RSS of a
    # three-truth n_max 10 run by 0.6 MB
    floors = []
    for k, scene in enumerate(scenes):
        if scene.r_delta == 0.0:
            raise ValueError(
                f"truth scene {k} (phi {scene.phi_delta:g}) is at zero separation, "
                "where the quantum localization floor is undefined"
            )
        try:
            floors.append(sigma_loc(qfim_polar(scene), args.photons))
        except ValueError as exc:
            raise ValueError(
                f"truth scene {k} (r {scene.r_delta / separation_from_sigma_units(1.0):g} "
                f"sigma, phi {scene.phi_delta:g}, from {_truth_option(args, k, len(scenes))}) "
                f"has no quantum localization floor: {exc}"
            ) from None
    clusters = [
        run_trials(scene, basis, args.photons, args.trials, args.seed + k, table=table)
        for k, scene in enumerate(scenes)
    ]
    out = _out_dir(args)

    outputs = []
    summary_rows = []
    cluster_diagnostics = []
    worst_fraction = 1.0
    for k, (scene, results) in enumerate(zip(scenes, clusters)):
        name = f"trials_cluster{k}.csv" if args.spiral > 0 else "montecarlo_trials.csv"
        _write_csv(
            out / name,
            _TRIALS_COMMENT,
            _TRIALS_HEADER,
            [
                (t.index, t.seed, scene.r_delta, scene.phi_delta, t.estimate.r_hat,
                 t.estimate.phi_hat, t.estimate.loglik, int(t.estimate.converged),
                 t.n_photons)
                for t in results
            ],
        )
        outputs.append(name)
        n_conv = sum(int(t.estimate.converged) for t in results)
        worst_fraction = min(worst_fraction, n_conv / len(results))
        n_evals = [t.estimate.n_evals for t in results]
        cluster_diagnostics.append(
            {
                "n_evals_mean": sum(n_evals) / len(n_evals),
                "n_evals_max": max(n_evals),
                "converged_frac": n_conv / len(results),
            }
        )
        if len(results) >= PATCH_MIN_ESTIMATES:
            patch = fit_uncertainty_patch([t.estimate for t in results])
        else:
            patch = math.nan
        ratio = patch / floors[k]  # 1 for an estimator saturating the quantum floor
        summary_rows.append(
            (
                k,
                scene.r_delta / separation_from_sigma_units(1.0),
                scene.phi_delta,
                patch,
                floors[k],
                ratio,
                n_conv,
                len(results),
            )
        )
        print(
            f"cluster {k}: r={summary_rows[-1][1]:.3f} sigma "
            f"phi={scene.phi_delta:.3f} ratio={ratio:.4f} "
            f"converged={n_conv}/{len(results)}"
        )

    summary_path = out / "montecarlo_summary.csv"
    _write_csv(summary_path, _comment(args.seed), _SUMMARY_HEADER, summary_rows)
    outputs.append(summary_path.name)
    print(f"wrote {summary_path}")
    diagnostics = {"clusters": cluster_diagnostics}
    if worst_fraction < _CONVERGENCE_FLOOR:
        print(
            f"error: worst cluster convergence {worst_fraction:.1%} below "
            f"{_CONVERGENCE_FLOOR:.0%}",
            file=sys.stderr,
        )
        return outputs, 3, diagnostics
    return outputs, 0, diagnostics


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument(
        "--config",
        default=os.environ.get(CONFIG_ENV_VAR),
        help="telescope prescription file (key = value lines); defaults to "
        f"${CONFIG_ENV_VAR}",
    )
    sub.add_argument("--out-dir", default=".", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    # accepted for older command lines and ignored: every run is one process
    sub.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Photon-information limits and measurement simulation "
        "for faint-companion detection and localization.",
    )
    parser.add_argument(
        "--version", action="version", version=f"artifact {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    bounds = subs.add_parser(
        "bounds", help="quantum-limit curves and photon requirement maps"
    )
    bounds.add_argument(
        "--target", choices=("qce", "qfim", "budget-map"), required=True
    )
    bounds.add_argument(
        "--r-delta-over-sigma",
        default="0.1:2:20",
        help="separation axis in diffraction-width units; at most "
        f"{_MAX_BOUNDS_R_SIGMA:g} except for --target qfim",
    )
    bounds.add_argument(
        "--contrast-b", default="1e-10:1e-5:20:log", help="brightness-ratio axis"
    )
    bounds.add_argument(
        "--task",
        choices=("detection", "localization"),
        default="detection",
        help="requirement mapped by budget-map",
    )
    bounds.add_argument(
        "--pe-target", type=float, default=1e-3, help="detection error target"
    )
    bounds.add_argument(
        "--rel-loc-error",
        type=float,
        default=0.1,
        help="relative localization error target",
    )
    _add_common(bounds)
    bounds.set_defaults(func=cmd_bounds)

    tables = subs.add_parser(
        "tables", help="integration-time tables for all simulated systems"
    )
    tables.add_argument(
        "--table",
        choices=("2", "3", "detection", "localization"),
        required=True,
        help="2/detection: error-probability table; 3/localization: "
        "relative-error table",
    )
    tables.add_argument("--r-delta-over-sigma", type=float, default=0.1)
    tables.add_argument("--contrast-b", type=float, default=1e-9)
    _add_common(tables)
    tables.set_defaults(func=cmd_tables)

    coro = subs.add_parser(
        "coronagraph", help="design rasters, mode spectra, throughput sweeps"
    )
    coro.add_argument(
        "--design", choices=("perfect", "piaacmc", "vortex"), required=True
    )
    coro.add_argument(
        "--output", choices=("image", "eigenmodes", "throughput"), required=True
    )
    coro.add_argument(
        "--r-delta-over-sigma",
        default="1.0",
        help="scene separation (image) or sweep axis (throughput)",
    )
    coro.add_argument("--phi", type=float, default=0.0, help="position angle, wrapped")
    coro.add_argument("--contrast-b", type=float, default=1e-9)
    coro.add_argument(
        "--star-only",
        action="store_true",
        help="render the bare-star output only",
    )
    coro.add_argument(
        "--n-max",
        type=int,
        default=_EXTRACTION_DEFAULT_ORDER,
        help="radial order of the extraction basis",
    )
    _add_common(coro)
    coro.set_defaults(func=cmd_coronagraph)

    mc = subs.add_parser(
        "montecarlo", help="measurement sampling and localization trials"
    )
    mc.add_argument("--trials", type=int, default=500, help="trials per cluster")
    mc.add_argument(
        "--photons", type=float, default=3e11, help="mean photons per trial"
    )
    mc.add_argument("--n-max", type=int, default=10, help="sorter truncation")
    mc.add_argument("--r-delta-over-sigma", type=float, default=0.3)
    mc.add_argument("--phi", type=float, default=0.8, help="position angle, wrapped")
    mc.add_argument("--contrast-b", type=float, default=1e-9)
    mc.add_argument(
        "--spiral",
        type=int,
        default=0,
        help="number of truth points along an arc (0: single scene)",
    )
    mc.add_argument(
        "--r-start", type=float, default=0.2, help="spiral start, sigma units"
    )
    mc.add_argument("--r-end", type=float, default=0.5, help="spiral end, sigma units")
    _add_common(mc)
    mc.set_defaults(func=cmd_montecarlo)

    return parser


# OpenBLAS's thread-count getters, as the scipy-openblas wheels and plain
# builds name them
_OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_build():
    """numpy's BLAS as (name, version, threads); None where one cannot be read.

    The name and version come from numpy's build configuration, and the
    thread count from OpenBLAS's own getter in the library that numpy's
    wheel ships (``numpy.libs``).  Read when a manifest is written, not at
    import.
    """
    config = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    getters = (
        getattr(ctypes.CDLL(str(path)), symbol, None)
        for path in sorted(libs.glob("*openblas*"))
        for symbol in _OPENBLAS_THREAD_GETTERS
    )
    getter = next((g for g in getters if g is not None), None)
    threads = None
    if getter is not None:
        getter.restype = ctypes.c_int
        threads = getter()
    return config.get("name"), config.get("version"), threads


def _write_manifest(args, outputs, diagnostics, duration_s):
    """Write the run manifest of a finished subcommand next to its outputs.

    Re-running the same command with the options recorded here
    regenerates byte-identical CSVs on the same build and libraries; the
    wall-clock duration and the process's peak resident set size so far
    (``peak_rss_mb``), with the per-chain ``seconds`` and ``peak_rss_mb``
    of ``tables``, are the only fields expected to differ between such
    runs.  The ``tables`` CSVs are byte-identical at any BLAS thread count
    as well; the eigenmode spectra of ``coronagraph --output eigenmodes``
    are not, which is why ``libraries`` records the thread count.  A
    subcommand that reports numerical diagnostics has them under
    ``diagnostics``.  ``parameters`` omit ``--jobs``, which every command
    accepts and ignores: each runs in this one process.
    """
    blas, blas_version, blas_threads = _blas_build()
    parameters = {
        key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS
    }
    payload = {
        "command": args.command,
        "config": args.config,
        "parameters": parameters,
        "outputs": outputs,
        "version": __version__,
        "libraries": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "blas_version": blas_version,
            "blas_threads": blas_threads,
        },
        "seed": args.seed,
        "duration_s": round(duration_s, 3),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if diagnostics:
        payload["diagnostics"] = diagnostics
    path = pathlib.Path(args.out_dir) / f"{args.command}_manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    """Entry point: run one subcommand, write its manifest, return the exit code.

    Each ``cmd_*`` returns the names of the files it wrote, its exit code
    and its diagnostics for the manifest (empty when it reports none); a
    subcommand that raises writes no manifest.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        t0 = time.perf_counter()
        outputs, code, diagnostics = args.func(args)
        _write_manifest(args, outputs, diagnostics, time.perf_counter() - t0)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        # the numerical solvers raise RuntimeError when they do not converge;
        # an overflow or a division by zero is a numerical failure too
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
