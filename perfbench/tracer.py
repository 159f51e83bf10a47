"""Span tracing of the ``artifact`` package, applied from outside it.

``install`` replaces each callable named in ``TARGETS`` with a wrapper that
records one span per call: name, start, end and the enclosing span.  A
function is replaced in every ``artifact`` module namespace that holds it,
so calls made through ``from .x import f`` bindings are seen too; a method
is replaced on its class.  Spans stay in memory until the process writes
them out.  Nothing under ``src/`` is changed.

Run as a script, the module traces one CLI command in this process::

    python3 perfbench/tracer.py SPANS.json montecarlo --trials 10 ...

It imports ``artifact.cli`` (timed as the import cost), installs the
wrappers, calls ``artifact.cli.main(argv)``, writes the spans to
SPANS.json and exits with the command's exit code.
"""

import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field


def maxrss_mb():
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result_size(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


def _fft_bytes(args, kwargs, result):
    # computed, not measured: the input and output arrays of one transform
    return {"bytes": int(args[0].nbytes + result.nbytes)}


def _mle_outcome(args, kwargs, result):
    return {"nfev": int(result.n_evals), "converged": bool(result.converged)}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr``, or ``module.cls.attr``."""

    span: str
    module: str
    attr: str
    cls: str = None
    rss: bool = False
    extra: object = None


TARGETS = (
    Target("specfun.bessel_j", "artifact.specfun", "bessel_j", extra=_result_size),
    Target("modebasis.all_mode_probabilities", "artifact.modebasis", "all_mode_probabilities"),
    Target("modebasis.mode_field_stack", "artifact.modebasis", "mode_field_stack", rss=True),
    Target("modebasis.ModeFieldSet.gram", "artifact.modebasis", "gram", cls="ModeFieldSet"),
    Target("optics.propagate", "artifact.optics", "propagate"),
    Target("optics.inverse_propagate", "artifact.optics", "inverse_propagate"),
    Target("optics.fft", "artifact.optics", "_centered_fft", extra=_fft_bytes),
    Target("optics.shifted_source_field", "artifact.optics", "shifted_source_field"),
    Target("coronagraph.piaacmc_design", "artifact.coronagraph", "piaacmc_design", rss=True),
    Target("coronagraph.prolate_radial", "artifact.coronagraph", "prolate_radial"),
    Target("coronagraph.PropagatorPlan.apply", "artifact.coronagraph", "apply", cls="PropagatorPlan"),
    Target("coronagraph.extract_operator", "artifact.coronagraph", "extract_operator", rss=True),
    Target("coronagraph.output_state_image", "artifact.coronagraph", "output_state_image"),
    Target("classical_info.cfim_direct_imaging", "artifact.classical_info", "cfim_direct_imaging"),
    Target("classical_info.cfim_spade", "artifact.classical_info", "cfim_spade"),
    Target("classical_info.cce_spade_binary", "artifact.classical_info", "cce_spade_binary"),
    Target("quantum_bounds.photon_requirement_map", "artifact.quantum_bounds", "photon_requirement_map"),
    Target("quantum_bounds.qfim_polar", "artifact.quantum_bounds", "qfim_polar"),
    Target("estimation.coarse_table", "artifact.estimation", "coarse_table", rss=True),
    Target("estimation.mle_localize", "artifact.estimation", "mle_localize", extra=_mle_outcome),
    Target("estimation.sample_measurement", "artifact.estimation", "sample_measurement"),
    Target("cli.bounds", "artifact.cli", "cmd_bounds", rss=True),
    Target("cli.tables", "artifact.cli", "cmd_tables", rss=True),
    Target("cli.coronagraph", "artifact.cli", "cmd_coronagraph", rss=True),
    Target("cli.montecarlo", "artifact.cli", "cmd_montecarlo", rss=True),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span in the same list, -1 at top
    start: float = 0.0
    end: float = 0.0
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    failed: bool = False
    extra: dict = None

    def to_list(self):
        return [self.name, self.parent, self.start, self.end,
                self.rss_start_mb, self.rss_end_mb, self.failed, self.extra]

    @classmethod
    def from_list(cls, row):
        return cls(*row)


class Tracer:
    """Collects spans of one single-threaded process in call order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, rss=False, extra=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        The wrapper returns ``fn``'s result unchanged and re-raises its
        exceptions after closing the span.  ``rss`` records the process's
        peak RSS at both ends; ``extra(args, kwargs, result)`` returns a
        dict of counts stored on the span.
        """
        spans = self.spans
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, open_spans[-1] if open_spans else -1)
            open_spans.append(len(spans))
            spans.append(span)
            if rss:
                span.rss_start_mb = maxrss_mb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                open_spans.pop()
                if rss:
                    span.rss_end_mb = maxrss_mb()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return wrapper


def _package_modules(package):
    prefix = package + "."
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    ]


def install(tracer, targets=TARGETS, package="artifact"):
    """Wrap every target; return the (owner, attr, original) list to undo it."""
    for target in targets:
        importlib.import_module(target.module)
    modules = _package_modules(package)
    replaced = []
    for target in targets:
        owner = importlib.import_module(target.module)
        if target.cls is not None:
            cls = getattr(owner, target.cls)
            original = cls.__dict__[target.attr]
            wrapped = tracer.wrap(target.span, original, target.rss, target.extra)
            setattr(cls, target.attr, wrapped)
            replaced.append((cls, target.attr, original))
            continue
        original = getattr(owner, target.attr)
        wrapped = tracer.wrap(target.span, original, target.rss, target.extra)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    replaced.append((mod, key, original))
    return replaced


def uninstall(replaced):
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class SpanStats:
    """Per-name totals over one or more processes' spans."""

    calls: int = 0
    s: float = 0.0  # inclusive time, not double-counting nested same-name spans
    self_s: float = 0.0
    rss_gain_mb: float = 0.0
    self_rss_gain_mb: float = 0.0
    durations: list = field(default_factory=list)
    extras: list = field(default_factory=list)


def summarize(span_lists):
    """Aggregate spans per name over several processes' span lists.

    A span's self time is its duration minus the part of it that its
    direct child spans cover.  Its RSS gain is the rise of the process's
    peak RSS across it; the self gain subtracts the gains of child spans
    that also recorded RSS.
    """
    stats = {}
    for spans in span_lists:
        children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span.parent >= 0:
                children[span.parent].append(i)
        for i, span in enumerate(spans):
            st = stats.get(span.name)
            if st is None:
                st = stats[span.name] = SpanStats()
            duration = span.end - span.start
            kids = [spans[k] for k in children[i]]
            st.calls += 1
            st.durations.append(duration)
            st.self_s += duration - _covered([(k.start, k.end) for k in kids])
            if not any(a.name == span.name for a in ancestors(spans, i)):
                st.s += duration
            gain = span.rss_end_mb - span.rss_start_mb
            st.rss_gain_mb = max(st.rss_gain_mb, gain)
            kid_gain = sum(k.rss_end_mb - k.rss_start_mb for k in kids)
            st.self_rss_gain_mb = max(st.self_rss_gain_mb, gain - kid_gain)
            if span.extra:
                st.extras.append(span.extra)
    return stats


def ancestors(spans, index):
    """Spans enclosing spans[index], innermost first."""
    out = []
    parent = spans[index].parent
    while parent >= 0:
        out.append(spans[parent])
        parent = spans[parent].parent
    return out


def count_within(span_lists, inner, outer):
    """Number of ``inner`` spans nested at any depth inside an ``outer`` span."""
    return sum(
        1
        for spans in span_lists
        for i, span in enumerate(spans)
        if span.name == inner and any(a.name == outer for a in ancestors(spans, i))
    )


def write_spans(path, spans, **fields):
    payload = dict(fields, spans=[s.to_list() for s in spans])
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def read_spans(path):
    with open(path) as fh:
        payload = json.load(fh)
    payload["spans"] = [Span.from_list(row) for row in payload["spans"]]
    return payload


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json CLI-ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("artifact.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_argv)
    write_spans(spans_path, tracer.spans, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
