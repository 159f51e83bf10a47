"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench

The last two tests run traced CLI commands (about a minute in all).
"""

import gzip
import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import check
import run
import tracer

BENCH_DIR = Path(__file__).resolve().parent
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# wrappers and spans


def test_wrapper_returns_value_unchanged():
    t = tracer.Tracer()
    payload = object()
    wrapped = t.wrap("f", lambda x, y=None: (x, y))
    assert wrapped(payload, y=payload) == (payload, payload)
    assert wrapped(payload)[0] is payload
    assert [s.name for s in t.spans] == ["f", "f"]
    assert all(not s.failed and s.end >= s.start for s in t.spans)


def test_wrapper_reraises_and_closes_span():
    t = tracer.Tracer()
    error = KeyError("boom")

    def fail():
        raise error

    wrapped = t.wrap("fail", fail)
    with pytest.raises(KeyError) as info:
        wrapped()
    assert info.value is error
    assert t.spans[0].failed and t.spans[0].end >= t.spans[0].start
    # the open-span stack unwound, so the next call is top level again
    t.wrap("g", lambda: None)()
    assert t.spans[1].parent == -1


def test_spans_nest():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = t.wrap("outer", outer_body)
    outer()
    outer()
    names = [(s.name, s.parent) for s in t.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0),
                     ("outer", -1), ("inner", 3), ("inner", 3)]
    for s in t.spans:
        if s.parent >= 0:
            p = t.spans[s.parent]
            assert p.start <= s.start <= s.end <= p.end


def test_self_time_arithmetic():
    S = tracer.Span
    spans = [
        S("outer", -1, 0.0, 10.0),
        S("a", 0, 1.0, 3.0),
        S("b", 0, 5.0, 6.0),
        S("leaf", 2, 5.2, 5.7),
        S("outer", 0, 7.0, 9.0),  # nested same-name span
    ]
    stats = tracer.summarize([spans])
    # outer: 10 - (2 + 1 + 2) for the top span, 2 for the nested one
    assert stats["outer"].self_s == pytest.approx(5.0 + 2.0)
    assert stats["outer"].s == pytest.approx(10.0)  # nested span not counted twice
    assert stats["outer"].calls == 2
    assert stats["b"].self_s == pytest.approx(0.5)
    assert stats["b"].s == pytest.approx(1.0)
    assert stats["leaf"].self_s == pytest.approx(0.5)
    assert tracer.count_within([spans], "leaf", "outer") == 1
    assert tracer.count_within([spans], "a", "b") == 0


def test_overlapping_children_counted_once():
    assert tracer._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracer._covered([]) == 0.0


def test_rss_gain_and_self_gain():
    S = tracer.Span
    spans = [S("outer", -1, 0.0, 1.0, 100.0, 900.0), S("stack", 0, 0.1, 0.5, 100.0, 700.0)]
    stats = tracer.summarize([spans])
    assert stats["outer"].rss_gain_mb == pytest.approx(800.0)
    assert stats["outer"].self_rss_gain_mb == pytest.approx(200.0)
    assert stats["stack"].rss_gain_mb == pytest.approx(600.0)


def test_spans_round_trip(tmp_path):
    spans = [tracer.Span("x", -1, 1.0, 2.0, 3.0, 4.0, True, {"points": 5})]
    tracer.write_spans(tmp_path / "s.json", spans, import_s=0.5)
    payload = tracer.read_spans(tmp_path / "s.json")
    assert payload["spans"] == spans and payload["import_s"] == 0.5


def test_install_replaces_every_binding_and_uninstall_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class Box:
        def get(self):
            return 7

    a.f, a.Box = f, Box
    b.f = f  # as bound by "from .a import f"
    pkg.f = f
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    targets = (
        tracer.Target("a.f", "fakepkg.a", "f"),
        tracer.Target("a.Box.get", "fakepkg.a", "get", cls="Box"),
    )
    t = tracer.Tracer()
    replaced = tracer.install(t, targets, package="fakepkg")
    assert a.f is not f and b.f is a.f and pkg.f is a.f
    assert b.f(1) == 2 and Box().get() == 7
    assert [s.name for s in t.spans] == ["a.f", "a.Box.get"]
    tracer.uninstall(replaced)
    assert a.f is f and b.f is f and pkg.f is f and Box.__dict__["get"].__name__ == "get"
    assert Box().get() == 7 and len(t.spans) == 2


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json


def _benchmark_json():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert METRIC_NAME.fullmatch(m["name"]), m["name"]


# ---------------------------------------------------------------------------
# output checks


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _perturb_cell(data, row, column, new):
    lines = data.decode("ascii").split("\n")
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    cells[header.index(column)] = new
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines).encode("ascii")


def test_reference_outputs_pass_at_reference_seed(tmp_path):
    for name in check.SEED_FREE_COLUMNS:
        path = _write(tmp_path, name, check.reference_bytes(name))
        assert check.check_output(path, check.REFERENCE_SEED) == []
        assert check.bytes_identical(path, check.REFERENCE_SEED) is True


def test_comment_line_is_ignored(tmp_path):
    data = check.reference_bytes("vortex_modes.csv")
    other = b"# artifact 9.9 seed=7\n" + data.split(b"\n", 1)[1]
    path = _write(tmp_path, "vortex_modes.csv", other)
    assert check.check_output(path, 7) == []
    assert check.bytes_identical(path, 7) is True
    assert check.bytes_identical(path, check.REFERENCE_SEED) is False


def test_perturbed_value_fails(tmp_path):
    data = check.reference_bytes("localization_times.csv")
    bad = _perturb_cell(data, 3, "seconds", "2312600.0")
    path = _write(tmp_path, "localization_times.csv", bad)
    assert check.check_output(path, 5)
    assert check.bytes_identical(path, 5) is False


def test_near_null_entries_use_the_absolute_floor(tmp_path):
    data = check.reference_bytes("vortex_modes.csv")
    null = float(data.split(b"\n")[2].split(b",")[1])
    assert null < 1e-8
    close = _perturb_cell(data, 0, "transmission_sq", repr(null + 5e-13))
    far = _perturb_cell(data, 0, "transmission_sq", repr(null * 1.01))
    assert check.check_output(_write(tmp_path, "vortex_modes.csv", close), 0) == []
    assert check.check_output(_write(tmp_path, "vortex_modes.csv", far), 0)


def test_missing_row_and_bad_header_fail(tmp_path):
    data = check.reference_bytes("detection_times.csv")
    short = data.rsplit(b"\n", 2)[0] + b"\n"
    assert check.check_output(_write(tmp_path, "detection_times.csv", short), 0)
    renamed = data.replace(b"pe_target", b"pe", 1)
    assert check.check_output(_write(tmp_path, "detection_times.csv", renamed), 0)


def test_seed_dependent_columns_checked_only_at_reference_seed(tmp_path):
    data = check.reference_bytes("trials_cluster1.csv")
    moved = _perturb_cell(data, 4, "est_r", "0.25")
    path = _write(tmp_path, "trials_cluster1.csv", moved)
    assert check.check_output(path, check.REFERENCE_SEED)
    assert check.check_output(path, 11) == []
    assert check.bytes_identical(path, 11) is None
    truth = _perturb_cell(data, 4, "truth_r", "0.25")
    assert check.check_output(_write(tmp_path, "trials_cluster1.csv", truth), 11)


def test_convergence_floor(tmp_path):
    data = check.reference_bytes("trials_cluster0.csv")
    for row in range(11):
        data = _perturb_cell(data, row, "converged", "0")
    problems = check.check_output(_write(tmp_path, "trials_cluster0.csv", data), 11)
    assert any("converged on" in p for p in problems)


def test_references_are_gzip_files():
    for name in check.SEED_FREE_COLUMNS:
        with gzip.open(check.REFERENCE_DIR / (name + ".gz")) as fh:
            assert fh.read(2) == b"# "


# ---------------------------------------------------------------------------
# the runner


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced_counts(tmp_path, commands, tag):
    deadline = time.perf_counter() + 170.0
    runs = run.run_pass(commands, 0, tmp_path / tag, deadline, traced=True)
    assert all(not r.failed for r in runs), [r.problems for r in runs]
    spans = [tracer.read_spans(r.spans_path)["spans"] for r in runs]
    return {name: st.calls for name, st in tracer.summarize(spans).items()}


def test_fft_count_repeats_on_extract_vortex(tmp_path):
    commands = run.WORKLOADS["extract-vortex"]
    first = _traced_counts(tmp_path, commands, "a")
    second = _traced_counts(tmp_path, commands, "b")
    assert first == second
    assert first["optics.fft"] == 112


def test_estimation_counts_repeat_on_modal_mc(tmp_path):
    commands = run.WORKLOADS["modal-mc"][:1]  # the montecarlo command
    first = _traced_counts(tmp_path, commands, "a")
    second = _traced_counts(tmp_path, commands, "b")
    assert first == second
    assert first["estimation.mle_localize"] == 300
    assert first["estimation.coarse_table"] == 3


def test_traced_output_must_match_untraced(tmp_path):
    for tag, text in (("untraced", b"# c\na\n1\n"), ("traced", b"# c\na\n2\n")):
        (tmp_path / tag / "out").mkdir(parents=True)
        (tmp_path / tag / "out" / "x.csv").write_bytes(text)
    same = run.CommandRun(["tables"], 0, 1.0, 1.0, 1.0, identical={})
    differs = run.CommandRun(["tables"], 0, 1.0, 1.0, 1.0, identical={"x.csv": None})
    run.compare_traced([same, differs], tmp_path / "untraced", tmp_path / "traced")
    assert not same.failed
    assert differs.problems == ["x.csv: traced output differs from untraced"]
