"""End-to-end tests of the command-line surface, called through main(argv)."""

import json

import pytest

from artifact import __version__
from artifact.cli import CONFIG_ENV_VAR, main

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


@pytest.fixture(scope="module")
def spiral_runs(tmp_path_factory):
    # the same small spiral run three times: serial, serial again, two workers
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        return [
            _montecarlo(tmp_path_factory.mktemp(name), jobs)
            for name, jobs in (("first", 1), ("rerun", 1), ("pool", 2))
        ]


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
    assert manifest["parameters"]["spiral"] == 2
    assert manifest["parameters"]["trials"] == 5
    assert manifest["outputs"] == [
        "trials_cluster0.csv",
        "trials_cluster1.csv",
        "montecarlo_summary.csv",
    ]


def test_montecarlo_rerun_is_byte_identical(spiral_runs):
    (_, first, _), (_, rerun, _), _ = spiral_runs
    assert first == rerun


def test_montecarlo_jobs_do_not_change_outputs(spiral_runs):
    (_, serial, _), _, (_, pooled, _) = spiral_runs
    assert pooled == serial
