"""Benchmark of the ``artifact`` CLI, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a closed loop:
one benchmark process runs the workload's CLI commands one after another,
each as its own ``python -m artifact.cli`` process with ``--jobs 1`` and
``--config telescope.cfg`` pinned and the package imported from ``src/``.
One pass of the loop runs every command once, in a fresh output directory
with a fresh ``HOME`` and ``XDG_CACHE_HOME`` that the pass's commands
share.  Every output is checked (see ``check.py``).

``--trace 0`` first times ``artifact --version`` several times (set-up
cost), then runs passes until ``--seconds`` have elapsed (at least one)
and prints the end-to-end metrics as medians over the passes.  Pass k
gives its commands the seed ``seed + k * PASS_SEED_STRIDE``: the
Monte-Carlo work varies with the seed by several percent, so a run
averages over more than one trial set.

``--trace 1`` runs one untraced pass and then one traced pass, in which
each command runs under ``tracer.py``; it prints the per-layer metrics
and the tracing overhead.  The traced outputs must be
byte-identical to the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one command; it fails when it exits non-zero or an output fails its
check.  A record of the run, with the machine's environment, is written
under ``.perfbench/`` in the checkout.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import check
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_REPEATS = 3
PASS_SEED_STRIDE = 1_000_003
PINNED = ("--jobs", "1", "--config", "telescope.cfg")
MONTECARLO_TRIALS = [f"trials_cluster{k}.csv" for k in range(3)]


@dataclass(frozen=True)
class Command:
    argv: tuple  # CLI arguments; --seed, --out-dir and PINNED are appended
    outputs: tuple  # CSV files it writes into --out-dir


WORKLOADS = {
    # analytic modal path only: no grid, no FFT
    "modal-mc": (
        Command(
            ("montecarlo", "--spiral", "3", "--trials", "100", "--n-max", "10"),
            (*MONTECARLO_TRIALS, "montecarlo_summary.csv"),
        ),
        Command(
            ("bounds", "--target", "budget-map", "--task", "localization",
             "--r-delta-over-sigma", "0.05:3:100",
             "--contrast-b", "1e-10:1e-3:100:log"),
            ("bounds_budget_map.csv",),
        ),
    ),
    # grid path: mode stack, 112 FFTs in the extraction, SVD; memory peak
    "extract-vortex": (
        Command(
            ("coronagraph", "--design", "vortex", "--output", "eigenmodes"),
            ("vortex_modes.csv",),
        ),
    ),
    # headline tables: PIAACMC design solve and tilted-source imaging
    "tables": (
        Command(("tables", "--table", "2"), ("detection_times.csv",)),
        Command(("tables", "--table", "3"), ("localization_times.csv",)),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}

SUBCOMMANDS = ("bounds", "tables", "coronagraph", "montecarlo")

# per-layer metrics read from span totals: "<span name>.<field>"
SPAN_FIELDS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "rss_gain_mb": "MB",
    "self_rss_gain_mb": "MB",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "points": "count",
    "bytes_computed": "B",
    "nfev_mean": "count",
    "converged_frac": "frac",
}
SPAN_METRICS = (
    "specfun.bessel_j.calls",
    "specfun.bessel_j.self_s",
    "specfun.bessel_j.points",
    "modebasis.all_mode_probabilities.calls",
    "modebasis.all_mode_probabilities.self_s",
    "modebasis.mode_field_stack.s",
    "modebasis.mode_field_stack.self_s",
    "modebasis.mode_field_stack.rss_gain_mb",
    "modebasis.ModeFieldSet.gram.s",
    "optics.propagate.calls",
    "optics.inverse_propagate.calls",
    "optics.fft.calls",
    "optics.fft.self_s",
    "optics.fft.bytes_computed",
    "optics.shifted_source_field.calls",
    "optics.shifted_source_field.s",
    "coronagraph.piaacmc_design.s",
    "coronagraph.piaacmc_design.rss_gain_mb",
    "coronagraph.prolate_radial.calls",
    "coronagraph.PropagatorPlan.apply.calls",
    "coronagraph.PropagatorPlan.apply.self_s",
    "coronagraph.extract_operator.s",
    "coronagraph.extract_operator.self_s",
    "coronagraph.extract_operator.rss_gain_mb",
    "coronagraph.extract_operator.self_rss_gain_mb",
    "coronagraph.output_state_image.calls",
    "coronagraph.output_state_image.s",
    "classical_info.cfim_direct_imaging.calls",
    "classical_info.cfim_direct_imaging.s",
    "classical_info.cfim_spade.s",
    "classical_info.cce_spade_binary.s",
    "quantum_bounds.photon_requirement_map.s",
    "quantum_bounds.qfim_polar.calls",
    "estimation.coarse_table.calls",
    "estimation.coarse_table.s",
    "estimation.coarse_table.rss_gain_mb",
    "estimation.mle_localize.calls",
    "estimation.mle_localize.p50_ms",
    "estimation.mle_localize.p95_ms",
    "estimation.mle_localize.self_s",
    "estimation.mle_localize.nfev_mean",
    "estimation.mle_localize.converged_frac",
    "estimation.sample_measurement.self_s",
) + tuple(
    f"cli.{sub}.{suffix}"
    for sub in SUBCOMMANDS
    for suffix in ("s", "self_s")
)
# per-layer metrics computed otherwise, with their units
OTHER_LAYER_METRICS = {
    "coronagraph.piaacmc_design.fft_calls": "count",
    **{f"cli.{sub}.peak_rss_mb": "MB" for sub in SUBCOMMANDS},
    "cli.import_s": "s",
    "trace.overhead_frac": "frac",
    "trials_per_s": "1/s",
    "mle_converged_frac": "frac",
}


def per_layer_units():
    units = {name: SPAN_FIELDS[name.rsplit(".", 1)[1]] for name in SPAN_METRICS}
    units.update(OTHER_LAYER_METRICS)
    return units


# ---------------------------------------------------------------------------
# running commands


@dataclass
class CommandRun:
    argv: list
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list = field(default_factory=list)
    identical: dict = field(default_factory=dict)  # output -> bytes equal
    spans_path: str = None

    @property
    def failed(self):
        return bool(self.problems)


def run_process(argv, env, log_path, timeout):
    """Run argv to completion; return (exit code, wall s, CPU s, peak RSS MiB).

    The child is killed once ``timeout`` seconds pass.  Its peak RSS comes
    from the kernel's accounting for that child alone.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def isolated_env(home):
    """Environment with a private HOME and cache directory."""
    env = {k: v for k, v in os.environ.items() if k != "ARTIFACT_TELESCOPE_CONFIG"}
    cache = home / ".cache"
    cache.mkdir(parents=True, exist_ok=True)
    env.update(HOME=str(home), XDG_CACHE_HOME=str(cache), PYTHONPATH=str(ROOT / "src"))
    return env


def run_pass(commands, seed, pass_dir, deadline, traced=False):
    """Run every command once in a fresh directory; check its outputs."""
    out = pass_dir / "out"
    out.mkdir(parents=True)
    env = isolated_env(pass_dir / "home")
    runs = []
    for k, cmd in enumerate(commands):
        args = [*cmd.argv, "--seed", str(seed), "--out-dir", str(out), *PINNED]
        spans_path = None
        if traced:
            spans_path = pass_dir / f"spans{k}.json"
            prog = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path)]
        else:
            prog = [sys.executable, "-m", "artifact.cli"]
        code, wall, cpu, rss = run_process(
            prog + args, env, pass_dir / f"log{k}.txt", deadline - time.perf_counter()
        )
        run = CommandRun(args, code, wall, cpu, rss, spans_path=spans_path and str(spans_path))
        if code != 0:
            run.problems.append(f"exit code {code}")
        for name in cmd.outputs:
            path = out / name
            if not path.is_file():
                run.problems.append(f"{name}: missing")
                continue
            run.problems += check.check_output(path, seed)
            run.identical[name] = check.bytes_identical(path, seed)
        runs.append(run)
    return runs


def measure_setup(run_dir, deadline, repeats):
    """Wall times of fresh ``artifact --version`` processes (first untimed)."""
    env = isolated_env(run_dir / "setup-home")
    runs = []
    for k in range(repeats + 1):
        log = run_dir / f"setup{k}.txt"
        argv = [sys.executable, "-m", "artifact.cli", "--version"]
        code, wall, cpu, rss = run_process(argv, env, log, deadline - time.perf_counter())
        run = CommandRun(argv[1:], code, wall, cpu, rss)
        if code != 0 or not log.read_text().startswith("artifact "):
            run.problems.append(f"--version failed with exit code {code}")
        runs.append(run)
    return runs[0], runs[1:]


def compare_traced(traced, untraced_dir, traced_dir):
    """Mark traced commands whose outputs differ from the untraced ones."""
    for run in traced:
        for name in run.identical:
            a, b = untraced_dir / "out" / name, traced_dir / "out" / name
            if a.is_file() and a.read_bytes() != b.read_bytes():
                run.problems.append(f"{name}: traced output differs from untraced")


def cleanup(pass_dir, runs):
    """Drop a pass's outputs and home once every command passed."""
    if not any(r.failed for r in runs):
        shutil.rmtree(pass_dir / "out", ignore_errors=True)
        shutil.rmtree(pass_dir / "home", ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _span_field(st, fld):
    extras = st.extras
    if fld == "p50_ms":
        return _percentile(st.durations, 50) * 1e3
    if fld == "p95_ms":
        return _percentile(st.durations, 95) * 1e3
    if fld == "points":
        return sum(e["points"] for e in extras)
    if fld == "bytes_computed":
        return sum(e["bytes"] for e in extras)
    if fld == "nfev_mean":
        return statistics.fmean(e["nfev"] for e in extras) if extras else 0.0
    if fld == "converged_frac":
        return statistics.fmean(e["converged"] for e in extras) if extras else 0.0
    return getattr(st, fld)


def _trials_summary(out_dir):
    """(trials, converged trials) over the montecarlo trial CSVs."""
    trials = converged = 0
    for name in MONTECARLO_TRIALS:
        path = out_dir / name
        if not path.is_file():
            continue
        _, header, rows = check.split_csv(path.read_bytes())
        col = header.index("converged")
        trials += len(rows)
        converged += sum(int(row[col]) for row in rows)
    return trials, converged


def layer_metrics(traced, untraced, untraced_dir):
    """Per-layer metrics from a traced pass and the untraced pass before it."""
    payloads = [tracer.read_spans(r.spans_path) for r in traced if r.spans_path
                and Path(r.spans_path).is_file()]
    span_lists = [p["spans"] for p in payloads]
    stats = tracer.summarize(span_lists)
    empty = tracer.SpanStats()
    values = {}
    for name in SPAN_METRICS:
        span, fld = name.rsplit(".", 1)
        values[name] = _span_field(stats.get(span, empty), fld)
    values["coronagraph.piaacmc_design.fft_calls"] = tracer.count_within(
        span_lists, "optics.fft", "coronagraph.piaacmc_design"
    )
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.peak_rss_mb"] = max(
            (r.peak_rss_mb for r in traced if r.argv[0] == sub), default=0.0
        )
    values["cli.import_s"] = statistics.median(p["import_s"] for p in payloads) if payloads else 0.0
    untraced_wall = sum(r.wall_s for r in untraced)
    values["trace.overhead_frac"] = sum(r.wall_s for r in traced) / untraced_wall - 1.0
    mc_wall = sum(r.wall_s for r in untraced if r.argv[0] == "montecarlo")
    trials, converged = _trials_summary(untraced_dir / "out")
    values["trials_per_s"] = trials / mc_wall if mc_wall else 0.0
    values["mle_converged_frac"] = converged / trials if trials else 0.0
    return values


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(label, runs):
    for r in runs:
        status = "ok" if not r.failed else "FAILED: " + "; ".join(r.problems[:5])
        print(f"{label} {' '.join(r.argv[:3])}: {r.wall_s:.3f} s, "
              f"{r.peak_rss_mb:.0f} MB, {status}")


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "artifact" / "cli.py").is_file():
        print(f"error: no artifact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}

    all_runs = []
    if args.trace == 0:
        warmup, setup_runs = measure_setup(run_dir, deadline, SETUP_REPEATS)
        all_runs += [warmup, *setup_runs]
        passes = []
        measure_start = time.perf_counter()
        while not passes or time.perf_counter() - measure_start < args.seconds:
            pass_dir = run_dir / f"pass{len(passes)}"
            pass_seed = args.seed + len(passes) * PASS_SEED_STRIDE
            runs = run_pass(commands, pass_seed, pass_dir, deadline)
            _report(pass_dir.name, runs)
            cleanup(pass_dir, runs)
            passes.append(runs)
            all_runs += runs
            if any(r.failed for r in runs) or time.perf_counter() > deadline:
                break
        metrics = {
            "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
            "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in p) for p in passes),
            "setup_s": statistics.median(r.wall_s for r in setup_runs),
        }
        units = END_TO_END
        record["passes"] = [[asdict(r) for r in p] for p in passes]
        record["setup_runs"] = [asdict(r) for r in setup_runs]
    else:
        warmup, _ = measure_setup(run_dir, deadline, 0)
        all_runs.append(warmup)
        untraced_dir, traced_dir = run_dir / "untraced", run_dir / "traced"
        untraced = run_pass(commands, args.seed, untraced_dir, deadline)
        traced = run_pass(commands, args.seed, traced_dir, deadline, traced=True)
        compare_traced(traced, untraced_dir, traced_dir)
        _report("untraced", untraced)
        _report("traced", traced)
        metrics = layer_metrics(traced, untraced, untraced_dir)
        cleanup(untraced_dir, untraced)
        cleanup(traced_dir, traced)
        all_runs += untraced + traced
        units = per_layer_units()
        record["passes"] = [[asdict(r) for r in untraced], [asdict(r) for r in traced]]

    attempted = len(all_runs)
    failed = sum(r.failed for r in all_runs)
    if args.trace == 0:
        metrics["ok_frac"] = (attempted - failed) / attempted
    identical = [v for r in all_runs for v in r.identical.values() if v is not None]
    print(f"outputs byte-identical to the reference: {sum(identical)}/{len(identical)} "
          "comparable")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(result=result, elapsed_s=time.perf_counter() - start)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
