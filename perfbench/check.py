"""Correctness checks for the CSVs the benchmark's CLI commands write.

Every output is compared with a reference written by the seed commit at
``REFERENCE_SEED`` (gzip-compressed under ``reference/``).  The comment
line is ignored; headers and row counts must match exactly.  Values are
compared cell by cell, numbers within ``RTOL`` of the reference or within
the absolute floor ``ATOL`` (which admits near-null entries such as the
vortex ``transmission_sq`` of about 9e-10 once they differ in the last
digits).

Outputs that do not depend on the seed are compared in full at every
seed.  The Monte-Carlo outputs are compared in full only at the
reference seed; at other seeds only their seed-independent columns are,
and the documented invariants are checked: every value is finite and
each cluster converges on at least 90% of its trials.
"""

import gzip
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
RTOL = 1e-6
ATOL = 1e-12
CONVERGENCE_FLOOR = 0.9

# columns that do not depend on the seed, per output; None means all
SEED_FREE_COLUMNS = {
    "bounds_budget_map.csv": None,
    "vortex_modes.csv": None,
    "detection_times.csv": None,
    "localization_times.csv": None,
    "montecarlo_summary.csv": (
        "cluster", "truth_r_over_sigma", "truth_phi", "sigma_floor", "n_trials",
    ),
    "trials_cluster0.csv": ("trial", "truth_r", "truth_phi"),
    "trials_cluster1.csv": ("trial", "truth_r", "truth_phi"),
    "trials_cluster2.csv": ("trial", "truth_r", "truth_phi"),
}


def reference_bytes(name):
    with gzip.open(REFERENCE_DIR / (name + ".gz"), "rb") as fh:
        return fh.read()


def split_csv(data):
    """(comment line, header, rows) of a CSV written by the CLI."""
    lines = data.decode("ascii").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing comment line")
    if len(lines) < 2:
        raise ValueError("missing header row")
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:]]


def _cells_match(got, want):
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= max(ATOL, RTOL * abs(w))


def compare_rows(header, got_rows, want_rows, columns=None):
    """Mismatch descriptions for the named columns (all when None)."""
    picked = range(len(header)) if columns is None else [header.index(c) for c in columns]
    problems = []
    for r, (got, want) in enumerate(zip(got_rows, want_rows)):
        if len(got) != len(want):
            problems.append(f"row {r}: {len(got)} cells, expected {len(want)}")
            continue
        for c in picked:
            if not _cells_match(got[c], want[c]):
                problems.append(f"row {r} {header[c]}: {got[c]} != {want[c]}")
    return problems


def _invariants(name, header, rows):
    problems = []
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                problems.append(f"row {r} {header[c]}: {cell} is not finite")
    if name.startswith("trials_cluster"):
        col = header.index("converged")
        frac = sum(int(row[col]) for row in rows) / max(len(rows), 1)
        if frac < CONVERGENCE_FLOOR:
            problems.append(f"converged on {frac:.1%} of trials")
    if name == "montecarlo_summary.csv":
        conv, total = header.index("n_converged"), header.index("n_trials")
        for r, row in enumerate(rows):
            if int(row[conv]) < CONVERGENCE_FLOOR * int(row[total]):
                problems.append(f"cluster {r}: converged {row[conv]}/{row[total]}")
    return problems


def check_output(path, seed):
    """List of problems with one output file; empty when it is correct."""
    name = Path(path).name
    if name not in SEED_FREE_COLUMNS:
        return [f"{name}: no reference for this output"]
    try:
        data = Path(path).read_bytes()
        _, header, rows = split_csv(data)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        return [f"{name}: unreadable ({exc})"]
    _, want_header, want_rows = split_csv(reference_bytes(name))
    if header != want_header:
        return [f"{name}: header {header} != {want_header}"]
    if len(rows) != len(want_rows):
        return [f"{name}: {len(rows)} rows, expected {len(want_rows)}"]
    columns = None if seed == REFERENCE_SEED else SEED_FREE_COLUMNS[name]
    problems = compare_rows(header, rows, want_rows, columns)
    problems += _invariants(name, header, rows)
    return [f"{name}: {p}" for p in problems]


def bytes_identical(path, seed):
    """Whether an output repeats the reference byte for byte.

    At the reference seed the whole file is compared; at other seeds only
    seed-independent outputs are, below their comment line.  Returns None
    where no byte comparison applies.
    """
    name = Path(path).name
    if name not in SEED_FREE_COLUMNS:
        return None
    data = Path(path).read_bytes()
    want = reference_bytes(name)
    if seed == REFERENCE_SEED:
        return data == want
    if SEED_FREE_COLUMNS[name] is not None:
        return None
    return data.split(b"\n", 1)[-1] == want.split(b"\n", 1)[-1]
