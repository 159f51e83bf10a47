"""Write the reference outputs that ``check.py`` compares against.

    python3 perfbench/make_reference.py

Runs every workload's commands once at ``check.REFERENCE_SEED`` and stores
each CSV gzip-compressed under ``perfbench/reference/``.  The stored files
come from the seed commit; rerun this only when a change to the program is
meant to change its outputs, and say so where the change is recorded.
"""

import gzip
import shutil
import sys
import time

import check
from run import PINNED, RUNS_DIR, WORKLOADS, isolated_env, run_process


def main():
    work = RUNS_DIR / f"reference-{time.time_ns()}"
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, commands in WORKLOADS.items():
        out = work / workload / "out"
        out.mkdir(parents=True)
        env = isolated_env(work / workload / "home")
        for k, cmd in enumerate(commands):
            argv = [sys.executable, "-m", "artifact.cli", *cmd.argv,
                    "--seed", str(check.REFERENCE_SEED), "--out-dir", str(out), *PINNED]
            code, wall, _, _ = run_process(argv, env, work / workload / f"log{k}.txt", 600.0)
            if code != 0:
                print(f"{workload}: {cmd.argv[0]} exited {code}", file=sys.stderr)
                return 1
            for name in cmd.outputs:
                data = (out / name).read_bytes()
                with open(check.REFERENCE_DIR / (name + ".gz"), "wb") as raw:
                    with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                        fh.write(data)
            print(f"{workload}: {cmd.argv[0]} {wall:.1f} s")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
