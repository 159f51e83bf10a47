"""End-to-end tests of the command-line surface, called through main(argv)."""

import concurrent.futures
import contextlib
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import warnings
import weakref

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import __version__, cli, coronagraph
from artifact.cli import CONFIG_ENV_VAR, main, parse_axis
from artifact.coronagraph import extract_operator, read_raster
from artifact.estimation import coarse_table, run_trials, spiral_truths
from artifact.modebasis import FourierZernikeBasis
from artifact.optics import (
    GridSpec,
    Scene,
    load_prescription,
    separation_from_sigma_units,
    wrap_angle,
)
from artifact.quantum_bounds import photon_requirement_map, qfim_polar

_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "telescope.cfg"

_SPIRAL = ["montecarlo", "--spiral", "2", "--trials", "5", "--seed", "0"]
_TRIAL_HEADER = "trial,seed,truth_r,truth_phi,est_r,est_phi,loglik,converged,n_photons"
_SUMMARY_HEADER = (
    "cluster,truth_r_over_sigma,truth_phi,sigma_patch,sigma_floor,"
    "patch_ratio,n_converged,n_trials"
)


def _montecarlo(out_dir, jobs):
    code = main(_SPIRAL + ["--jobs", str(jobs), "--out-dir", str(out_dir)])
    csvs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
    return code, csvs, out_dir


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.fixture(scope="module")
def spiral_runs(tmp_path_factory):
    # the same small spiral run three times: --jobs 1, again, then --jobs 2,
    # which is accepted and ignored, so it too runs in this process
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        runs = [_montecarlo(tmp_path_factory.mktemp(name), 1) for name in ("first", "rerun")]
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        return runs + [_montecarlo(tmp_path_factory.mktemp("pool"), 2)]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about a third of the CLI's start-up and 22 MB;
    # the PIAACMC design solve runs a port of its brentq instead
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    design = (
        "from artifact.coronagraph import piaacmc_design; "
        "from artifact.optics import GridSpec; piaacmc_design(GridSpec(512, 16.0)); "
    )
    for work in ("", design):
        code = f"import sys, artifact.cli; {work}sys.exit('scipy.optimize' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr or f"scipy.optimize was imported by {code!r}"


def test_package_import_loads_no_submodule_numpy_or_scipy():
    # the package holds only its version; every name has one home module
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, artifact; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy') "
        "or m.startswith('artifact.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_montecarlo_exit_code_and_outputs(spiral_runs):
    for code, csvs, _ in spiral_runs:
        assert code == 0
        assert sorted(csvs) == [
            "montecarlo_summary.csv",
            "trials_cluster0.csv",
            "trials_cluster1.csv",
        ]


def test_montecarlo_csv_comment_and_header_rows(spiral_runs):
    _, csvs, _ = spiral_runs[0]
    for name in ("trials_cluster0.csv", "trials_cluster1.csv"):
        lines = csvs[name].decode("ascii").splitlines()
        assert lines[0] == "# localization trials; angles folded to the first quadrant"
        assert lines[1] == _TRIAL_HEADER
        assert len(lines) == 2 + 5
    lines = csvs["montecarlo_summary.csv"].decode("ascii").splitlines()
    assert lines[0] == f"# artifact {__version__} seed=0"
    assert lines[1] == _SUMMARY_HEADER
    assert [row.split(",")[0] for row in lines[2:]] == ["0", "1"]
    # five trials are below the 30 a patch fit needs
    assert all(row.split(",")[3] == "nan" for row in lines[2:])
    assert all(row.split(",")[-1] == "5" for row in lines[2:])


def test_montecarlo_manifest(spiral_runs):
    _, _, out_dir = spiral_runs[0]
    manifest = json.loads((out_dir / "montecarlo_manifest.json").read_text())
    assert manifest["command"] == "montecarlo"
    assert manifest["version"] == __version__
    assert manifest["seed"] == 0
    assert manifest["config"] is None
    assert manifest["parameters"]["spiral"] == 2
    assert manifest["parameters"]["trials"] == 5
    assert set(manifest["parameters"]) == {
        "trials", "photons", "n_max", "spiral", "r_delta_over_sigma", "phi",
        "contrast_b", "r_start", "r_end",
    }
    assert manifest["outputs"] == [
        "trials_cluster0.csv",
        "trials_cluster1.csv",
        "montecarlo_summary.csv",
    ]


def test_montecarlo_manifest_diagnostics(spiral_runs):
    # per cluster: the mean and max Nelder-Mead evaluations of its trials
    # and its converged fraction, the numbers the trials CSVs do not hold
    manifests = [
        json.loads((out_dir / "montecarlo_manifest.json").read_text())
        for _, _, out_dir in spiral_runs
    ]
    first = manifests[0]
    assert set(first) == {
        "command", "config", "diagnostics", "duration_s", "libraries", "outputs",
        "parameters", "peak_rss_mb", "seed", "version",
    }
    clusters = first["diagnostics"]["clusters"]
    assert set(first["diagnostics"]) == {"clusters"}
    assert len(clusters) == 2
    s = separation_from_sigma_units(1.0)
    scenes = spiral_truths(2, 0.2 * s, 0.5 * s, 1e-9)
    table = coarse_table(FourierZernikeBasis(10), 1e-9)
    for k, (scene, entry) in enumerate(zip(scenes, clusters)):
        assert set(entry) == {"n_evals_mean", "n_evals_max", "converged_frac"}
        results = run_trials(scene, FourierZernikeBasis(10), 3e11, 5, k, table=table)
        n_evals = [t.estimate.n_evals for t in results]
        assert entry["n_evals_mean"] == sum(n_evals) / 5
        assert entry["n_evals_max"] == max(n_evals)
        assert entry["converged_frac"] == sum(t.estimate.converged for t in results) / 5
        assert 0 < entry["n_evals_mean"] <= entry["n_evals_max"] <= 500
    # a rerun differs only in its duration and peak RSS, and the --jobs 2
    # run reports the same diagnostics
    for manifest in manifests:
        del manifest["duration_s"], manifest["peak_rss_mb"]
    assert manifests[1] == first
    assert manifests[2]["diagnostics"] == first["diagnostics"]


def test_montecarlo_trial_rows_match_cluster_results(spiral_runs):
    # every cell of the trials CSVs reads back as the value the cluster produced
    _, csvs, _ = spiral_runs[0]
    s = separation_from_sigma_units(1.0)
    scenes = spiral_truths(2, 0.2 * s, 0.5 * s, 1e-9)
    table = coarse_table(FourierZernikeBasis(10), 1e-9)
    for k, scene in enumerate(scenes):
        results = run_trials(scene, FourierZernikeBasis(10), 3e11, 5, k, table=table)
        lines = csvs[f"trials_cluster{k}.csv"].decode("ascii").splitlines()
        rows = [row.split(",") for row in lines[2:]]
        assert len(rows) == len(results)
        for row, trial in zip(rows, results):
            e = trial.estimate
            assert [int(row[0]), int(row[1]), int(row[7]), int(row[8])] == [
                trial.index, trial.seed, int(e.converged), trial.n_photons
            ]
            assert [float(v) for v in row[2:7]] == [
                scene.r_delta, scene.phi_delta, e.r_hat, e.phi_hat, e.loglik
            ]


def test_montecarlo_negative_spiral_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    code = main(["montecarlo", "--spiral", "-2", "--trials", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: --spiral must be nonnegative, got -2\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "scene_args, phi",
    [(["--r-delta-over-sigma", "0"], "0.8"), (["--spiral", "2", "--r-start", "0"], "0.18")],
)
def test_montecarlo_zero_separation_truth_exits_2_before_trials(
    scene_args, phi, tmp_path, monkeypatch, capsys
):
    # the quantum floor of the summary is undefined on axis, so the run
    # stops before the first trial and leaves the output directory empty
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    argv = ["montecarlo", *scene_args, "--trials", "2", "--n-max", "4", "--jobs", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: truth scene 0 (phi {phi}) is at zero separation, "
        "where the quantum localization floor is undefined\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("photons", ["inf", "1e19", "1e300"])
def test_montecarlo_infinite_photons_exits_2_before_trials(photons, tmp_path, monkeypatch, capsys):
    # numpy's Poisson draw once raised a bare "lam value too large", and
    # a finite mean above its limit left an empty --out-dir behind
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    out = tmp_path / "out"
    argv = ["montecarlo", "--photons", photons, "--trials", "2", "--n-max", "4", "--jobs", "1"]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --photons must lie in (0, 9.223372006484771e+18], numpy's Poisson limit, "
        f"got {float(photons):g}\n"
    )
    assert not out.exists()


def test_montecarlo_singular_floor_exits_2_before_trials(tmp_path, monkeypatch, capsys):
    # just above zero separation the truth's quantum Fisher matrix is
    # singular; the run once wrote trials_cluster0.csv before it failed
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    argv = ["montecarlo", "--spiral", "2", "--r-start", "2.2250738585072014e-308"]
    argv += ["--trials", "3", "--n-max", "2", "--jobs", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: truth scene 0 (r 2.22507e-308 sigma, phi 0.18, from --r-start) has no "
        "quantum localization floor: Fisher matrix is singular at r_delta=1.35693e-308\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value", [("--r-end", "inf"), ("--r-end", "nan"), ("--r-start", "-0.1")]
)
def test_montecarlo_spiral_radius_outside_its_domain_exits_2_before_trials(
    flag, value, tmp_path, monkeypatch, capsys
):
    # --r-end inf once reached the spiral, where numpy warned "invalid value
    # encountered in scalar multiply" before Scene's message, which named
    # neither the option nor the value
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    out = tmp_path / "out"
    argv = ["montecarlo", "--spiral", "2", flag, value, "--trials", "2", "--n-max", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--jobs", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} must be finite and nonnegative, got {float(value):g}\n"
    )
    assert not out.exists()


def test_montecarlo_negative_seed_exits_2_before_the_table(tmp_path, monkeypatch, capsys):
    # numpy's seed sequence once rejected cluster 0's seed with a bare
    # "expected non-negative integer", after the table was built and
    # --out-dir made
    def no_table(basis, b):
        raise AssertionError("the likelihood table was built")

    monkeypatch.setattr(cli, "coarse_table", no_table)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    out = tmp_path / "out"
    argv = ["montecarlo", "--seed", "-1", "--trials", "1", "--n-max", "4"]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --seed must be nonnegative (cluster k runs with --seed + k), got -1\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_montecarlo_separation_outside_its_domain_exits_2_before_the_table(
    value, tmp_path, monkeypatch, capsys
):
    # Scene's message once named neither the option nor the value
    def no_table(basis, b):
        raise AssertionError("the likelihood table was built")

    monkeypatch.setattr(cli, "coarse_table", no_table)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    out = tmp_path / "out"
    argv = ["montecarlo", "--r-delta-over-sigma", value, "--trials", "1", "--n-max", "4"]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --r-delta-over-sigma must be finite and nonnegative, got {float(value):g}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("spiral", ["0", "2"])
def test_montecarlo_contrast_outside_its_domain_exits_2_before_the_table(
    spiral, tmp_path, monkeypatch, capsys
):
    # Scene's message once named neither the option nor the value
    def no_table(basis, b):
        raise AssertionError("the likelihood table was built")

    monkeypatch.setattr(cli, "coarse_table", no_table)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    out = tmp_path / "out"
    argv = ["montecarlo", "--contrast-b", "2", "--spiral", spiral, "--trials", "1"]
    assert main(argv + ["--n-max", "4", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: --contrast-b must lie in (0, 1), got 2\n"
    assert not out.exists()


def test_montecarlo_wraps_phi(tmp_path, monkeypatch):
    # a position angle past 2 pi is wrapped, not rejected
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    argv = ["montecarlo", "--phi", "7", "--trials", "1", "--n-max", "4", "--jobs", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "montecarlo_trials.csv").read_text().splitlines()[2].split(",")
    assert float(row[3]) == wrap_angle(7.0)


def test_montecarlo_rerun_is_byte_identical(spiral_runs):
    (_, first, _), (_, rerun, _), _ = spiral_runs
    assert first == rerun


def test_montecarlo_jobs_do_not_change_outputs(spiral_runs):
    (_, serial, _), _, (_, pooled, _) = spiral_runs
    assert pooled == serial


# ---------------------------------------------------------------------------
# tables


def _table2(out_dir):
    code = main(
        ["tables", "--table", "2", "--config", str(_CONFIG), "--out-dir", str(out_dir)]
    )
    return code, (out_dir / "detection_times.csv").read_bytes(), out_dir


@pytest.fixture(scope="module")
def table2_runs(tmp_path_factory):
    first = _table2(tmp_path_factory.mktemp("first"))
    # the rerun solves the design and builds the plans afresh
    return [first, _table2(tmp_path_factory.mktemp("rerun"))]


def test_tables_exit_code_and_csv_rows(table2_runs):
    code, csv, _ = table2_runs[0]
    assert code == 0
    lines = csv.decode("ascii").splitlines()
    assert lines[0] == f"# artifact {__version__} seed=0"
    assert lines[1] == "system,pe_target,seconds"
    systems = ["quantum", "spade", "perfect", "piaacmc", "vortex"]
    assert [row.split(",")[0] for row in lines[2:]] == [s for s in systems for _ in range(4)]
    # one row per error-probability target, times growing with -log(Pe)
    for k in range(len(systems)):
        seconds = [float(row.split(",")[2]) for row in lines[2 + 4 * k : 6 + 4 * k]]
        assert all(0.0 < a < b for a, b in zip(seconds, seconds[1:]))


def test_tables_manifest(table2_runs):
    _, _, out_dir = table2_runs[0]
    manifest = json.loads((out_dir / "tables_manifest.json").read_text())
    assert manifest["command"] == "tables"
    assert manifest["config"] == str(_CONFIG)
    assert manifest["version"] == __version__
    assert manifest["seed"] == 0
    assert manifest["parameters"]["table"] == "2"
    assert manifest["parameters"]["kind"] == "detection"
    assert set(manifest["parameters"]) == {
        "table", "kind", "r_delta_over_sigma", "contrast_b",
    }
    assert manifest["outputs"] == ["detection_times.csv"]


def test_tables_manifest_records_each_chain(table2_runs):
    # each design's stage numbers are taken after its rows: the seconds
    # from building its plan and the process's peak RSS so far, which
    # cannot fall from one design to the next or exceed the manifest's
    _, _, out_dir = table2_runs[0]
    manifest = json.loads((out_dir / "tables_manifest.json").read_text())
    chains = manifest["diagnostics"]["chains"]
    assert list(chains) == ["perfect", "piaacmc", "vortex"]
    assert all(set(stage) == {"seconds", "peak_rss_mb"} for stage in chains.values())
    assert all(stage["seconds"] > 0.0 for stage in chains.values())
    peaks = [stage["peak_rss_mb"] for stage in chains.values()]
    assert peaks == sorted(peaks)
    assert peaks[-1] <= manifest["peak_rss_mb"]


def test_tables_rerun_is_byte_identical(table2_runs):
    (_, first, _), (_, rerun, _) = table2_runs
    assert first == rerun


_THREAD_RUNS = {
    "table2": ["tables", "--table", "2", "--config", str(_CONFIG)],
    "table3": ["tables", "--table", "3", "--config", str(_CONFIG)],
    "budget-map": ["bounds", "--target", "budget-map", "--config", str(_CONFIG)],
    "montecarlo": ["montecarlo", "--trials", "40", "--n-max", "6"],
    "spiral": ["montecarlo", "--spiral", "2", "--trials", "30", "--n-max", "6"],
}


def test_tables_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every reduction behind the rows has a fixed order: the perfect
    # chain's coefficient is not a threaded BLAS dot, whose sum moved the
    # last digit of its rows between 1 and 2 OpenBLAS threads, and the
    # quotient sums of the localization rows add row blocks in turn.  The
    # budget map and the Monte-Carlo runs are held to the same bytes.  Each
    # run is a process of its own, since OpenBLAS reads the count at
    # start-up, and its manifest records that count
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(src)
    for name, command in _THREAD_RUNS.items():
        runs = {}
        for threads in (1, 2):
            argv = [sys.executable, "-m", "artifact.cli", *command]
            argv += ["--out-dir", str(tmp_path / f"{name}-{threads}")]
            runs[threads] = subprocess.Popen(
                argv, env=dict(env, OPENBLAS_NUM_THREADS=str(threads)), stdout=subprocess.DEVNULL
            )
        assert [run.wait(timeout=300) for run in runs.values()] == [0, 0], name
        outs = [tmp_path / f"{name}-{threads}" for threads in runs]
        csvs = [{p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))} for out in outs]
        assert csvs[0] and csvs[0] == csvs[1], name
        for threads, out in zip(runs, outs):
            manifest = json.loads(next(out.glob("*_manifest.json")).read_text())
            assert manifest["libraries"]["blas_threads"] in (None, threads)


def test_tables_localization_rows(tmp_path):
    code = main(
        ["tables", "--table", "3", "--config", str(_CONFIG), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "localization_times.csv").read_text().splitlines()
    assert lines[0] == f"# artifact {__version__} seed=0"
    assert lines[1] == "system,rel_loc_error,seconds"
    rows = [row.split(",") for row in lines[2:]]
    systems = ["quantum", "spade", "perfect", "piaacmc", "vortex"]
    assert [row[0] for row in rows] == [s for s in systems for _ in range(4)]
    seconds = {s: [float(row[2]) for row in rows if row[0] == s] for s in systems}
    for s in systems:
        # Cramer-Rao times scale as 1/rel^2, and no system beats the QFIM
        rel = [float(row[1]) for row in rows if row[0] == s]
        assert seconds[s] == pytest.approx([seconds[s][0] / r**2 for r in rel], rel=1e-12)
        assert seconds[s][0] >= seconds["quantum"][0]


def test_tables_hold_one_plan_at_a_time(monkeypatch):
    # plans are not cached: each chain's plan is freed before the next
    # design's is built, and none outlives its table
    grid = GridSpec(128, 8.0)
    made = []

    def tracked(maker):
        def make():
            assert all(ref() is None for ref in made), "an earlier plan is alive"
            plan = maker(grid=grid)
            made.append(weakref.ref(plan))
            return plan

        return make

    for name in ("perfect_plan", "piaacmc_plan", "vortex_plan"):
        monkeypatch.setattr(cli, name, tracked(getattr(cli, name)))
    scene = Scene(separation_from_sigma_units(0.1), 0.3, 1e-9)
    for table_rows in (cli._detection_exponents, cli._localization_matrices):
        made.clear()
        table_rows(scene)
        assert len(made) == 3
        assert all(ref() is None for ref in made)


def test_tables_without_config_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    code = main(["tables", "--table", "2", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: no telescope configuration")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("table", ["2", "3"])
def test_tables_at_zero_separation_exits_2(table, tmp_path, monkeypatch, capsys):
    # no table has a finite row on axis; the option is checked before any
    # plan is built (detection divided by a zero exponent here)
    def no_plan(design):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(cli, "_get_plan", no_plan)
    argv = ["tables", "--table", table, "--r-delta-over-sigma", "0", "--config", str(_CONFIG)]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --r-delta-over-sigma must be positive and finite, got 0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "table, r_sigma, complaint",
    [
        # the probe source of the detection rows and the planet one
        # difference step out in the localization rows: the window holds
        # |s| + 3 <= 16 focal units, and 30 sigma is 18.3
        ("2", "30", "a source at separation 18.295 (focal units)"),
        ("3", "30", "a source at separation 18.2969 (focal units)"),
        ("3", "1e300", "a source at separation 6.09896e+299 (focal units)"),
        # the radial difference step is 1e-4 sigma at small separations
        ("3", "1e-300", "separation 6.09835e-301 must exceed the difference step"),
    ],
)
def test_tables_scene_outside_the_images_exits_2_before_a_plan(
    table, r_sigma, complaint, tmp_path, monkeypatch, capsys
):
    # these once exited 2 only after a plan was built, and the messages
    # named no separation; the pupil-fed images of the detection rows
    # once wrapped a far source silently to the other side of the window
    def no_plan(design):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(cli, "_get_plan", no_plan)
    argv = ["tables", "--table", table, "--r-delta-over-sigma", r_sigma, "--config", str(_CONFIG)]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --r-delta-over-sigma {float(r_sigma):g}: {complaint}")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("table", ["2", "3"])
def test_tables_contrast_outside_its_domain_exits_2_before_a_plan(
    table, tmp_path, monkeypatch, capsys
):
    # Scene's message once named neither the option nor the value
    def no_plan(design):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(cli, "_get_plan", no_plan)
    out = tmp_path / "out"
    argv = ["tables", "--table", table, "--contrast-b", "2", "--config", str(_CONFIG)]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: --contrast-b must lie in (0, 1), got 2\n"
    assert not out.exists()


def test_tables_detection_time_of_a_vanishing_exponent_reads_inf(tmp_path):
    # at 1e-300 sigma the quantum and SPADE exponents round to zero, whose
    # times once raised ZeroDivisionError; the chains' exponents are their
    # null residuals, which stay positive
    argv = ["tables", "--table", "2", "--r-delta-over-sigma", "1e-300", "--config", str(_CONFIG)]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "detection_times.csv").read_text().splitlines()[2:]
    seconds = {}
    for row in rows:
        system, _, value = row.split(",")
        seconds.setdefault(system, []).append(float(value))
    assert seconds["quantum"] == seconds["spade"] == [math.inf] * 4
    assert all(0.0 < v < math.inf for s in ("perfect", "piaacmc", "vortex") for v in seconds[s])


def test_non_convergence_exits_3(tmp_path, monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise RuntimeError("grid prolate power iteration did not converge")

    # a fresh process state: no cached plan
    monkeypatch.setattr(coronagraph, "_grid_prolate", stalled)
    code = main(
        ["tables", "--table", "2", "--config", str(_CONFIG), "--out-dir", str(tmp_path)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: grid prolate power iteration did not converge\n"
    assert not (tmp_path / "detection_times.csv").exists()


def test_arithmetic_error_exits_3(tmp_path, monkeypatch, capsys):
    # an overflow or a division by zero is a numerical failure, not a
    # traceback with exit 1
    def overflowing(args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "cmd_bounds", overflowing)
    assert main(["bounds", "--target", "qce", "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: math range error\n"
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# bounds

_BOUNDS_GRID = ["--r-delta-over-sigma", "0.1:2:3", "--contrast-b", "1e-9:1e-7:3:log"]
_BOUNDS_CSV = {
    "qce": ("bounds_qce.csv", "r_delta_over_sigma,b,qce"),
    "qfim": ("bounds_qfim.csv", "r_delta_over_sigma,b,k_rr,k_phiphi"),
    "budget-map": ("bounds_budget_map.csv", "r_delta_over_sigma,b,photons,seconds"),
}


def _bounds(target, out_dir, jobs):
    argv = ["bounds", "--target", target, *_BOUNDS_GRID, "--jobs", str(jobs)]
    code = main(argv + ["--out-dir", str(out_dir)])
    return code, (out_dir / _BOUNDS_CSV[target][0]).read_bytes(), out_dir


@pytest.fixture(scope="module", params=sorted(_BOUNDS_CSV))
def bounds_runs(request, tmp_path_factory):
    # each target on a 3 x 3 grid: --jobs 1, again, then --jobs 2 in this
    # process
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        runs = [
            _bounds(request.param, tmp_path_factory.mktemp(name), 1)
            for name in ("first", "rerun")
        ]
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        runs.append(_bounds(request.param, tmp_path_factory.mktemp("pool"), 2))
    return request.param, runs


def test_bounds_exit_code_and_csv_rows(bounds_runs):
    target, runs = bounds_runs
    code, csv, _ = runs[0]
    assert code == 0
    # LF line endings only, as every CSV of the package
    assert b"\r" not in csv
    lines = csv.decode("ascii").splitlines()
    assert lines[0] == f"# artifact {__version__} seed=0"
    assert lines[1] == _BOUNDS_CSV[target][1]
    rows = [row.split(",") for row in lines[2:]]
    assert len(rows) == 9
    # row-major over (separation, contrast)
    assert [float(row[0]) for row in rows] == [x for x in (0.1, 1.05, 2.0) for _ in range(3)]
    assert [float(row[1]) for row in rows[:3]] == pytest.approx([1e-9, 1e-8, 1e-7], rel=1e-12)


def test_bounds_manifest(bounds_runs):
    target, runs = bounds_runs
    _, _, out_dir = runs[0]
    manifest = json.loads((out_dir / "bounds_manifest.json").read_text())
    assert manifest["command"] == "bounds"
    assert manifest["config"] is None
    assert manifest["version"] == __version__
    assert manifest["seed"] == 0
    assert manifest["parameters"]["target"] == target
    assert manifest["parameters"]["r_delta_over_sigma"] == "0.1:2:3"
    assert manifest["parameters"]["contrast_b"] == "1e-9:1e-7:3:log"
    assert "jobs" not in manifest["parameters"]
    assert set(manifest["parameters"]) == {
        "target", "task", "r_delta_over_sigma", "contrast_b", "pe_target",
        "rel_loc_error",
    }
    assert manifest["outputs"] == [_BOUNDS_CSV[target][0]]


def test_manifest_keys_and_reruns_differ_only_in_duration(bounds_runs):
    # the manifest records the libraries that produced the outputs and the
    # process's peak RSS; two runs of one command differ in nothing but
    # their wall-clock duration and that peak
    _, ((_, _, first_dir), (_, _, rerun_dir), _) = bounds_runs
    first, rerun = (
        json.loads((d / "bounds_manifest.json").read_text()) for d in (first_dir, rerun_dir)
    )
    assert set(first) == {
        "command", "config", "duration_s", "libraries", "outputs", "parameters",
        "peak_rss_mb", "seed", "version",
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libraries = dict(first["libraries"])
    threads = libraries.pop("blas_threads")
    assert libraries == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
    }
    # OpenBLAS's own count, null for a BLAS whose count cannot be read
    assert threads is None or threads >= 1
    assert isinstance(first["duration_s"], float)
    # getrusage reports KiB on Linux: the peak of a process that imported
    # numpy and scipy is tens of MB, not tens of GB
    assert 10.0 < first["peak_rss_mb"] < 4096.0
    for manifest in (first, rerun):
        del manifest["duration_s"], manifest["peak_rss_mb"]
    assert first == rerun


def test_montecarlo_builds_one_likelihood_table_per_run(tmp_path, monkeypatch):
    # the table depends only on the truncation, rotation and contrast, which
    # every cluster of a run shares
    calls = []

    def counting_table(basis, b):
        calls.append((basis.n_max, b))
        return coarse_table(basis, b)

    monkeypatch.setattr(cli, "coarse_table", counting_table)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    argv = ["montecarlo", "--spiral", "3", "--trials", "1", "--n-max", "4", "--jobs", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert calls == [(4, 1e-9)]


def test_bounds_rerun_is_byte_identical(bounds_runs):
    _, ((_, first, _), (_, rerun, _), _) = bounds_runs
    assert first == rerun


def test_bounds_jobs_do_not_change_outputs(bounds_runs):
    _, ((_, serial, _), _, (_, pooled, _)) = bounds_runs
    assert pooled == serial


@pytest.mark.parametrize("pe_target", ["0", "1", "2"])
def test_bounds_detection_target_outside_unit_interval_exits_2(
    pe_target, tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    argv = ["bounds", "--target", "budget-map", "--task", "detection", *_BOUNDS_GRID]
    code = main(argv + ["--pe-target", pe_target, "--jobs", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: detection error-probability target")
    assert f"{float(pe_target)!r}" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("rel_loc_error", ["0", "-0.1", "nan"])
def test_bounds_localization_target_not_positive_exits_2(
    rel_loc_error, tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    argv = ["bounds", "--target", "budget-map", "--task", "localization", *_BOUNDS_GRID]
    argv += ["--rel-loc-error", rel_loc_error, "--jobs", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: relative localization error target {float(rel_loc_error)!r} "
        "must be positive\n"
    )
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("task", ["detection", "localization"])
def test_bounds_budget_map_zero_separation_reads_inf(task, tmp_path):
    # neither requirement has a finite photon budget on axis
    argv = ["bounds", "--target", "budget-map", "--task", task]
    argv += ["--r-delta-over-sigma", "0,1", "--contrast-b", "1e-9", "--jobs", "1"]
    assert main(argv + ["--config", str(_CONFIG), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "bounds_budget_map.csv").read_text().splitlines()
    assert lines[2] == "0,1.0000000000000001e-09,inf,inf"
    photons, seconds = (float(v) for v in lines[3].split(",")[2:])
    assert 0.0 < photons < math.inf and 0.0 < seconds < math.inf


def test_bounds_qfim_huge_separation_writes_inf(tmp_path):
    # the angular entry 4 b (1-b) pi^2 r^2 overflows to inf, as the CSV
    # writes it; r^2 as a Python float raised OverflowError here
    argv = ["bounds", "--target", "qfim", "--r-delta-over-sigma", "1e200"]
    argv += ["--contrast-b", "0.1", "--jobs", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "bounds_qfim.csv").read_text().splitlines()
    assert len(lines) == 3
    k_rr, k_phiphi = lines[2].split(",")[2:]
    assert 0.0 < float(k_rr) < math.inf
    assert k_phiphi == "inf"


@pytest.mark.parametrize(
    "target",
    [
        ["budget-map", "--task", "localization", "--r-delta-over-sigma", "1e200"],
        ["qce", "--r-delta-over-sigma", "1e300"],
    ],
)
def test_bounds_huge_separation_exits_2(target, tmp_path):
    # these once ended in an OverflowError traceback (exit 1) and in a bare
    # "math domain error"; run as a process, so stderr is the real one
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(src)
    argv = [sys.executable, "-m", "artifact.cli", "bounds", "--target", *target]
    argv += ["--contrast-b", "0.1", "--jobs", "1", "--out-dir", str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"error: --r-delta-over-sigma values must be in [0, 1e+100] for --target {target[0]}"
    )
    assert not list(tmp_path.iterdir())


def test_bounds_localization_huge_target_needs_no_photons(tmp_path):
    # (target r)^2 overflows to inf, where the Python float square raised
    argv = ["bounds", "--target", "budget-map", "--task", "localization"]
    argv += ["--r-delta-over-sigma", "0.1", "--contrast-b", "0.1", "--rel-loc-error", "1e300"]
    assert main(argv + ["--jobs", "1", "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "bounds_budget_map.csv").read_text().splitlines()[2]
    assert row == "0.10000000000000001,0.10000000000000001,0,nan"


def test_bounds_qfim_zero_separation_row(tmp_path):
    # on axis the radial entry keeps its limit 4 b (1-b) pi^2 and the
    # angular entry vanishes; rows off axis are qfim_polar's diagonal
    argv = ["bounds", "--target", "qfim", "--r-delta-over-sigma", "0,1"]
    argv += ["--contrast-b", "1e-9", "--jobs", "1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "bounds_qfim.csv").read_text().splitlines()
    r_sigma, b, k_rr, k_phiphi = lines[2].split(",")
    assert (r_sigma, b, k_phiphi) == ("0", "1.0000000000000001e-09", "0")
    assert float(k_rr) == pytest.approx(4e-9 * (1.0 - 1e-9) * math.pi**2, rel=1e-15)
    fisher = qfim_polar(Scene(separation_from_sigma_units(1.0), 0.0, 1e-9))
    assert lines[3] == "1,1.0000000000000001e-09,%.17g,%.17g" % (
        fisher.entries[0, 0], fisher.entries[1, 1]
    )


def test_bounds_budget_map_values_round_trip(tmp_path):
    argv = ["bounds", "--target", "budget-map", *_BOUNDS_GRID, "--jobs", "1"]
    assert main(argv + ["--config", str(_CONFIG), "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "bounds_budget_map.csv"
    assert b"\r" not in path.read_bytes()
    assert path.read_text().splitlines()[1] == "r_delta_over_sigma,b,photons,seconds"
    rows = photon_requirement_map(
        parse_axis("0.1:2:3"),
        parse_axis("1e-9:1e-7:3:log"),
        prescription=load_prescription(_CONFIG),
    )
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=2), rows)


@pytest.mark.parametrize("flux", ["nan", "inf"])
def test_bounds_budget_map_nonfinite_flux_exits_2(flux, tmp_path, capsys):
    # these exited 0 with a seconds column of nan and of 0
    config = tmp_path / "telescope.cfg"
    text = _CONFIG.read_text()
    assert "photon_flux_hz = 6e7" in text
    config.write_text(text.replace("photon_flux_hz = 6e7", f"photon_flux_hz = {flux}"))
    out = tmp_path / "out"
    argv = ["bounds", "--target", "budget-map", *_BOUNDS_GRID, "--jobs", "1"]
    assert main(argv + ["--config", str(config), "--out-dir", str(out)]) == 2
    assert "photon_flux_hz" in capsys.readouterr().err
    assert not out.exists()  # no CSV, nor the directory for one


@pytest.mark.parametrize("target", ["qce", "budget-map"])
def test_bounds_zero_count_axis_exits_2(target, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    argv = ["bounds", "--target", target, "--r-delta-over-sigma", "0.1:2:0"]
    code = main(argv + ["--jobs", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "'0.1:2:0'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# coronagraph

_VORTEX_OUTPUTS = {
    "throughput": (["--r-delta-over-sigma", "0.5,1,2"], "vortex_throughput.csv"),
    "image": ([], "vortex_image.f32"),
    "eigenmodes": (["--n-max", "1"], "vortex_modes.csv"),
}


def _coronagraph(output, out_dir):
    extra, name = _VORTEX_OUTPUTS[output]
    argv = ["coronagraph", "--design", "vortex", "--output", output, *extra]
    code = main(argv + ["--out-dir", str(out_dir)])
    return code, out_dir / name


@pytest.fixture(scope="module", params=sorted(_VORTEX_OUTPUTS))
def vortex_runs(request, tmp_path_factory):
    first = _coronagraph(request.param, tmp_path_factory.mktemp("first"))
    # the rerun builds the plan afresh
    return request.param, [first, _coronagraph(request.param, tmp_path_factory.mktemp("rerun"))]


def test_coronagraph_exit_code_and_outputs(vortex_runs):
    output, ((code, path), _) = vortex_runs
    assert code == 0
    manifest = json.loads((path.parent / "coronagraph_manifest.json").read_text())
    assert manifest["config"] is None
    assert set(manifest["parameters"]) == {
        "design", "output", "r_delta_over_sigma", "phi", "contrast_b", "star_only",
        "n_max",
    }
    assert manifest["parameters"]["design"] == "vortex"
    assert manifest["parameters"]["output"] == output
    assert manifest["outputs"] == [path.name]
    if output == "image":
        image = read_raster(path)
        assert image.shape == (1024, 1024)
        assert image.min() >= 0.0
        return
    lines = path.read_text().splitlines()
    assert lines[0] == f"# artifact {__version__} seed=0"
    if output == "throughput":
        assert lines[1] == "r_delta_over_sigma,planet_throughput"
        values = [float(row.split(",")[1]) for row in lines[2:]]
        assert len(values) == 3
        # the vortex passes more of the planet the farther it sits off axis
        assert all(0.0 < a < b <= 1.0 for a, b in zip(values, values[1:]))
    else:
        assert lines[1] == "mode_index,transmission_sq"
        assert [row.split(",")[0] for row in lines[2:]] == ["0", "1", "2"]


def test_coronagraph_rerun_is_byte_identical(vortex_runs):
    _, ((_, first), (_, rerun)) = vortex_runs
    assert first.read_bytes() == rerun.read_bytes()


def test_coronagraph_eigenmode_rows_match_operator(tmp_path):
    argv = ["coronagraph", "--design", "perfect", "--output", "eigenmodes", "--n-max", "2"]
    assert main(argv + ["--config", str(_CONFIG), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "perfect_modes.csv").read_text().splitlines()
    assert lines[0] == f"# artifact {__version__} seed=0"
    assert lines[1] == "mode_index,transmission_sq"
    op = extract_operator(cli._get_plan("perfect"), FourierZernikeBasis(2))
    assert len(lines) == 2 + op.fields.count
    rows = [row.split(",") for row in lines[2:]]
    assert [int(row[0]) for row in rows] == list(range(op.fields.count))
    assert [float(row[1]) for row in rows] == [abs(t) ** 2 for t in op.transmissions]
    # the manifest records --config as given, even where the command reads none
    manifest = json.loads((tmp_path / "coronagraph_manifest.json").read_text())
    assert manifest["config"] == str(_CONFIG)


@pytest.mark.parametrize("design", ["perfect", "piaacmc", "vortex"])
def test_coronagraph_eigenmodes_manifest_diagnostics(design, tmp_path):
    argv = ["coronagraph", "--design", design, "--output", "eigenmodes", "--n-max", "2"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "coronagraph_manifest.json").read_text())
    diagnostics = manifest["diagnostics"]
    assert set(diagnostics) == {
        "gram_floor", "max_abs_transmission", "transmission_ceiling", "stages",
    }
    assert diagnostics["transmission_ceiling"] == coronagraph._TRANSMISSION_CEILING
    # the plan build and the extraction, each with its time and the
    # process's peak RSS at its end, which cannot fall
    stages = diagnostics["stages"]
    assert set(stages) == {"plan", "extract_operator"}
    for stage in stages.values():
        assert set(stage) == {"seconds", "peak_rss_mb"}
        assert stage["seconds"] >= 0.0
    assert 0.0 < stages["plan"]["peak_rss_mb"] <= stages["extract_operator"]["peak_rss_mb"]
    assert stages["extract_operator"]["peak_rss_mb"] <= manifest["peak_rss_mb"]
    # the sampled modes of every design are the same well-conditioned set
    assert 0.9 < diagnostics["gram_floor"] <= 1.0
    rows = (tmp_path / f"{design}_modes.csv").read_text().splitlines()[2:]
    largest = max(float(row.split(",")[1]) for row in rows)
    assert diagnostics["max_abs_transmission"] == pytest.approx(math.sqrt(largest), rel=1e-15)
    # the perfect chain passes every mode but the fundamental whole, the
    # vortex is passive, and the PIAACMC remap stays under the ceiling
    bounds = {"perfect": (1.0 - 1e-12, 1.0 + 1e-12), "vortex": (0.5, 1.0 + 1e-12)}
    low, high = bounds.get(design, (0.5, coronagraph._TRANSMISSION_CEILING))
    assert low <= diagnostics["max_abs_transmission"] <= high


@pytest.mark.parametrize("design", ["perfect", "piaacmc"])
def test_coronagraph_throughput_other_designs(design, tmp_path):
    argv = ["coronagraph", "--design", design, "--output", "throughput"]
    code = main(argv + ["--r-delta-over-sigma", "0.5,1.5", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / f"{design}_throughput.csv").read_text().splitlines()
    assert lines[0] == f"# artifact {__version__} seed=0"
    assert lines[1] == "r_delta_over_sigma,planet_throughput"
    rows = [row.split(",") for row in lines[2:]]
    assert [float(row[0]) for row in rows] == [0.5, 1.5]
    # both chains pass more of the planet the farther it sits off axis
    values = [float(row[1]) for row in rows]
    assert 0.0 < values[0] < values[1] <= 1.0


def test_coronagraph_image_needs_one_separation(tmp_path, capsys):
    argv = ["coronagraph", "--design", "vortex", "--output", "image"]
    code = main(argv + ["--r-delta-over-sigma", "0.5,1.5", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --r-delta-over-sigma must be a single value here, got 2\n"
    assert not (tmp_path / "vortex_image.f32").exists()


@pytest.mark.parametrize(
    "output, r_sigma, complaint",
    [
        ("throughput", "-1", "a separation must be finite and nonnegative"),
        # the 0.5 row was once rendered before the NaN was rejected
        ("throughput", "0.5,nan", "a separation must be finite and nonnegative"),
        # the window holds |s| + 3 <= 16 focal units, and 30 sigma is 18.3
        ("throughput", "0.5,30", "a source at separation 18.295 (focal units)"),
        ("image", "nan", "a separation must be finite and nonnegative"),
        ("image", "30", "a source at separation 18.295 (focal units)"),
    ],
)
def test_coronagraph_separation_outside_the_images_exits_2_before_a_plan(
    output, r_sigma, complaint, tmp_path, monkeypatch, capsys
):
    # a negative separation once exited 2 only after the PIAACMC design was
    # solved and --out-dir made
    def no_plan(design):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(cli, "_get_plan", no_plan)
    out = tmp_path / "out"
    argv = ["coronagraph", "--design", "piaacmc", "--output", output]
    assert main(argv + ["--r-delta-over-sigma", r_sigma, "--out-dir", str(out)]) == 2
    bad = float(r_sigma.split(",")[-1])
    assert capsys.readouterr().err.startswith(f"error: --r-delta-over-sigma {bad:g}: {complaint}")
    assert not out.exists()


def test_coronagraph_image_wraps_phi(tmp_path):
    # a negative position angle renders the raster of its wrapped value
    rasters = []
    for phi in ("-0.3", repr(wrap_angle(-0.3))):
        out_dir = tmp_path / phi
        argv = ["coronagraph", "--design", "vortex", "--output", "image", "--phi", phi]
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        rasters.append((out_dir / "vortex_image.f32").read_bytes())
    assert rasters[0] == rasters[1]


# ---------------------------------------------------------------------------
# every CSV the runs above wrote


def _as_written(cell):
    """The cell as the writer formats the value it parses to."""
    try:
        return "%d" % int(cell)
    except ValueError:
        pass
    try:
        return "%.17g" % float(cell)
    except ValueError:
        return cell  # a label


def test_every_cli_csv_is_lf_commented_and_round_trips(
    spiral_runs, table2_runs, tmp_path_factory
):
    # each run's manifest names its outputs; run last, this sees every run
    # of the module, and at least the two fixtures' runs when run alone
    manifests = sorted(tmp_path_factory.getbasetemp().rglob("*_manifest.json"))
    assert len(manifests) >= 5
    for manifest in manifests:
        names = json.loads(manifest.read_text())["outputs"]
        csvs = sorted(p.name for p in manifest.parent.glob("*.csv"))
        assert csvs == sorted(n for n in names if n.endswith(".csv"))
        for name in csvs:
            data = (manifest.parent / name).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")
            lines = data.decode("ascii").splitlines()
            assert lines[0].startswith("# ")
            header = lines[1].split(",")
            assert all(column.isidentifier() for column in header)
            assert len(lines) > 2
            for line in lines[2:]:
                cells = line.split(",")
                assert len(cells) == len(header)
                assert [_as_written(cell) for cell in cells] == cells


# ---------------------------------------------------------------------------
# the documented domain of the cheap subcommands, as a property


# the documented boundaries and just past them
_EDGE_NUMBERS = (
    0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
    math.nextafter(1.0, 0.0), 1.0,
)
_UNIT = st.floats(1e-12, 0.999)
_SEPARATION = st.floats(0.0, 5.0)


def _axis(inside):
    """A sweep axis inside the domain: one or two values, or a range."""
    values = st.lists(inside.map(repr), min_size=1, max_size=2).map(",".join)
    ranges = st.tuples(inside, inside, st.integers(1, 3), st.booleans()).map(
        lambda t: f"{t[0]!r}:{t[1]!r}:{t[2]}" + (":log" if t[3] else "")
    )
    return st.one_of(values, ranges)


def _off_domain(names):
    """One option name and the edge value that replaces its value, or None."""
    edge = st.one_of(st.sampled_from(_EDGE_NUMBERS).map(repr), st.just("-1"))
    return st.one_of(st.tuples(st.sampled_from(names), edge), st.none())


def _exit_code_is_documented(command, options, off):
    # the exit code is 0, 2 or 3, no exception escapes main (that would be a
    # traceback and exit 1), and a usage or configuration error (exit 2)
    # writes no manifest
    if off is not None:
        options = {**options, off[0]: off[1]}
    argv = [command, *(f"--{k}={v}" for k, v in options.items()), "--jobs=1"]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, f"--out-dir={tmp}"])
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not list(pathlib.Path(tmp).glob("*_manifest.json")), argv


_BOUNDS_NUMBERS = ("r-delta-over-sigma", "contrast-b", "pe-target", "rel-loc-error")


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(["qce", "qfim", "budget-map"]),
    task=st.sampled_from(["detection", "localization"]),
    r_axis=_axis(_SEPARATION),
    b_axis=_axis(_UNIT),
    pe_target=_UNIT,
    rel_loc_error=st.floats(1e-6, 10.0),
    off=_off_domain(_BOUNDS_NUMBERS),
)
def test_bounds_exits_as_documented_over_its_domain(
    target, task, r_axis, b_axis, pe_target, rel_loc_error, off
):
    values = (r_axis, b_axis, pe_target, rel_loc_error)
    options = {"target": target, "task": task, **dict(zip(_BOUNDS_NUMBERS, values))}
    _exit_code_is_documented("bounds", options, off)


_MONTECARLO_NUMBERS = (
    "n-max", "photons", "r-delta-over-sigma", "phi", "contrast-b", "spiral", "r-start", "r-end"
)


@settings(max_examples=150, deadline=None)
@given(
    trials=st.integers(1, 3),
    n_max=st.integers(0, 3),
    photons=st.floats(1e6, 1e12),
    # wider scenes need more than n_max 3 and exit 2 for it
    r_delta=st.floats(0.0, 1.0),
    phi=st.floats(-10.0, 10.0),
    b=_UNIT,
    spiral=st.integers(0, 2),
    r_start=st.floats(0.0, 1.0),
    r_end=st.floats(0.0, 1.0),
    off=_off_domain(_MONTECARLO_NUMBERS),
)
def test_montecarlo_exits_as_documented_over_its_domain(
    trials, n_max, photons, r_delta, phi, b, spiral, r_start, r_end, off
):
    values = (n_max, photons, r_delta, phi, b, spiral, r_start, r_end)
    options = {"trials": trials, **dict(zip(_MONTECARLO_NUMBERS, values))}
    _exit_code_is_documented("montecarlo", options, off)


# the scene edges of tables and coronagraph, one at a time: beyond the grid
# window (30 and 1e300 sigma), below the difference step (1e-300 sigma), NaN,
# and contrasts at the ends of (0, 1).  Each run exits 0, 2 or 3 without a
# traceback and writes no manifest on exit 2
_SCENE_EDGES = [
    {"r-delta-over-sigma": "30"},
    {"r-delta-over-sigma": "1e-300"},
    {"r-delta-over-sigma": "1e300"},
    {"r-delta-over-sigma": "nan"},
    {"contrast-b": "0"},
    {"contrast-b": "1"},
]


@pytest.mark.parametrize("edge", _SCENE_EDGES, ids=lambda e: "=".join(*e.items()))
@pytest.mark.parametrize("table", ["2", "3"])
def test_tables_exits_as_documented_at_the_scene_edges(table, edge):
    _exit_code_is_documented("tables", {"table": table, "config": _CONFIG}, next(iter(edge.items())))


@pytest.mark.parametrize("edge", _SCENE_EDGES, ids=lambda e: "=".join(*e.items()))
@pytest.mark.parametrize(
    "design, output",
    [("perfect", "image"), ("piaacmc", "image"), ("vortex", "image"), ("vortex", "throughput")],
)
def test_coronagraph_exits_as_documented_at_the_scene_edges(design, output, edge):
    options = {"design": design, "output": output, "phi": "0.3"}
    _exit_code_is_documented("coronagraph", options, next(iter(edge.items())))
