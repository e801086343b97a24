"""Timing core of the benchmark: speed normalisation, timed phases and tracing.

Every end-to-end time is reported in seconds at nominal speed.  The CPU this
benchmark was built on switches between speeds up to 2x apart, often several
times a second, so raw wall-clock times of the same work differ by up to 2x
between runs and even within one long item.  A Sampler therefore times a
fixed reference kernel (an exact-rational loop that uses nothing from the
program) from a SIGALRM handler every SAMPLE_S, in the same thread as the
items, for the whole run.  A timed segment's raw time excludes the handler
time inside it, and is scaled by nominal / mean kernel time of the samples
taken while it ran, widened by WINDOW_S on each side.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

# Kernel time in the fast state of a 2-vCPU virtual machine with Python 3.11.7;
# normalised seconds are seconds at this speed.
NOMINAL_KERNEL_S = 0.0014
SAMPLE_S = 0.04
WINDOW_S = 0.04
SETUP_REPEATS = 5

LIB_MODULES = ("graphs", "stability", "multidegrees", "divisor_classes", "jsonio", "cli")


class Refused(Exception):
    """The run cannot produce trustworthy figures and must not print a result."""


def reference_kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
    return acc


class Sampler:
    """Kernel samples taken from a SIGALRM handler while active, and the time the handler took.

    ``handled`` holds (start, end) of every handler run; ``kernels`` the kernel
    time of each, both in time order.  The cyclic collector is paused around
    the kernel so that the program's heap cannot slow it.
    """

    def __init__(self):
        self.handled: list[tuple[float, float]] = []
        self.starts: list[float] = []
        self.kernels: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        h0 = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = time.perf_counter()
            reference_kernel()
            k1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.kernels.append(k1 - k0)
        self.starts.append(h0)
        self.handled.append((h0, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def handler_time(self, t0: float, t1: float) -> float:
        """Seconds spent in the handler between t0 and t1 (runs lie wholly inside or outside)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(end - start for start, end in self.handled[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """nominal / mean kernel time of the samples in [t0 - WINDOW_S, t1 + WINDOW_S]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        window = self.kernels[lo:hi]
        return NOMINAL_KERNEL_S * len(window) / sum(window)


def guard() -> None:
    """Refuse to time when a tracer, a profiler or a second thread would skew the kernel ratio."""
    if sys.gettrace() is not None:
        raise Refused("sys.gettrace() is set; a tracer slows kernel and items unevenly")
    if sys.getprofile() is not None:
        raise Refused("sys.getprofile() is set; a profiler slows kernel and items unevenly")
    if threading.active_count() != 1:
        raise Refused(f"{threading.active_count()} threads are active; the benchmark needs one")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, 0 <= q <= 100."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_library() -> SimpleNamespace:
    """Import jacwall.cli afresh (package modules purged first) and return its modules."""
    for name in [m for m in sys.modules if m == "jacwall" or m.startswith("jacwall.")]:
        del sys.modules[name]
    importlib.import_module("jacwall.cli")
    return SimpleNamespace(**{m: sys.modules[f"jacwall.{m}"] for m in LIB_MODULES})


# -- tracing ---------------------------------------------------------------------

TRACED_FUNCTIONS = {
    "graphs": ("contract", "enumerate_tree_type_graphs"),
    "stability": ("phi_from_degrees", "polytope_label", "extend_to_graph", "check_compatibility"),
    "multidegrees": ("stable_multidegree", "is_semistable", "all_stable_multidegrees_bruteforce"),
    "divisor_classes": (
        "theta_pullback",
        "wall_crossing",
        "stable_pairs_class",
        "hain_class",
        "mueller_class",
        "mueller_comparison",
    ),
    "jsonio": ("graph_from_json", "parameter_from_json", "class_to_json", "label_to_json"),
}
CLI_SUBCOMMANDS = ("polytope", "pullback", "wall-cross", "compare", "stable-degree")
SPAN_NAMES = (
    ("graphs.MarkedGraph",)
    + tuple(f"{m}.{f}" for m, fs in TRACED_FUNCTIONS.items() for f in fs)
    + tuple(f"cli.main.{c}" for c in CLI_SUBCOMMANDS)
)


class Tracer:
    """Spans around calls into the library's public functions, kept in memory.

    ``install`` rebinds each traced function, wherever a jacwall module holds a
    reference to it, to a wrapper that records (name, start, end, parent,
    segment); ``MarkedGraph.__init__`` is wrapped on the class.  Calls the
    library makes to its own public functions therefore become child spans.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.segment = None
        self._undo: list = []

    def span(self, name: str, fn, *args, **kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            spans[idx] = (name, t0, t1, parent, self.segment)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, lib: SimpleNamespace) -> None:
        modules = [m for n, m in sys.modules.items() if n == "jacwall" or n.startswith("jacwall.")]
        for mod_name, fns in TRACED_FUNCTIONS.items():
            owner = getattr(lib, mod_name)
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cls = lib.graphs.MarkedGraph
        original_init = cls.__init__
        self._undo.append((cls, "__init__", original_init))
        cls.__init__ = self._wrap("graphs.MarkedGraph", original_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- timed phases ------------------------------------------------------------------


@dataclass
class Op:
    """One timed segment: an item (counted in the metrics) or supporting work such as corpus generation."""

    rung: str | None
    fn: object
    item: bool = True
    span: str | None = None  # a span of its own around the call, when traced
    pair_steps: int = 0  # P x unit steps of the wall_crossing calls it makes


@dataclass
class Segment:
    op: Op
    start: float
    end: float
    output: object = None
    error: BaseException | None = None
    raw_s: float = 0.0  # end - start without the sampler's handler time
    factor: float = 1.0

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


def run_segment(op: Op, tracer: Tracer | None = None, seg_id=None) -> Segment:
    """Time one op alone, after collecting the garbage of earlier ones."""
    gc.collect()
    # Freezing moves what survives into the permanent generation, so the
    # collections an item triggers scan only the objects that item made.
    gc.freeze()
    if tracer is not None:
        tracer.segment = seg_id
    output = error = None
    t0 = time.perf_counter()
    try:
        output = tracer.span(op.span, op.fn) if tracer is not None and op.span else op.fn()
    except Exception as exc:  # an op that raises is a failed operation, reported by the caller
        error = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.segment = None
    return Segment(op, t0, t1, output, error)


def drive_round(workload, lib, inputs, tracer=None, seg_base=0):
    """Run one round of the workload's ops; ops may depend on earlier outputs (a generator)."""
    segments = []
    gen = workload.round_ops(lib, inputs)
    sent = None
    while True:
        try:
            op = gen.send(sent)
        except StopIteration:
            break
        seg = run_segment(op, tracer, seg_base + len(segments))
        segments.append(seg)
        sent = seg.output if seg.error is None else None
    return segments


def settle(sampler: Sampler, segments) -> None:
    """Fill in each segment's raw time and speed factor once its samples exist."""
    for seg in segments:
        seg.raw_s = seg.end - seg.start - sampler.handler_time(seg.start, seg.end)
        seg.factor = sampler.factor(seg.start, seg.end)


def measure_setup(workload, seed: int, sampler: Sampler):
    """Set up SETUP_REPEATS times; return (library, round-0 inputs, normalised and raw medians)."""
    plain0 = workload.plain_round(seed, 0)
    spans = []
    lib = inputs = None
    for _ in range(SETUP_REPEATS):
        lib = inputs = None
        gc.collect()
        t0 = time.perf_counter()
        lib = import_library()
        inputs = workload.build_round(lib, plain0)
        spans.append((t0, time.perf_counter()))
    time.sleep(2 * WINDOW_S)  # let the samples after the last set-up arrive
    raw = [t1 - t0 - sampler.handler_time(t0, t1) for t0, t1 in spans]
    norm = [r * sampler.factor(t0, t1) for r, (t0, t1) in zip(raw, spans)]
    return lib, inputs, statistics.median(norm), statistics.median(raw)
