"""Benchmark of jacwall: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  With --trace 0 the line before it holds
the raw wall-clock figures and the run's shape; with --trace 1 the spans are
written to .perfbench_traces/<workload>-seed<seed>.jsonl.  Exit code 2 means the program could
not be found or imported, 3 that the run refused to time (see harness.guard),
and no result is printed in either case.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
from wl_classes import Classes
from wl_cli import Cli
from wl_corpus import Corpus
from wl_trees import Trees

ROOT = Path(__file__).resolve().parent.parent
PER_RUNG = {
    "divisor_classes.wall_crossing": ("g3n3", "g4n5", "g5n7"),
    "divisor_classes.theta_pullback": ("g3n3", "g4n5", "g5n7"),
    "stability.extend_to_graph": ("v10", "v50", "v200"),
    "multidegrees.is_semistable": ("v10", "v50", "v200"),
}
COUNTS = (
    "divisor_classes.wall_crossing.unit_steps",
    "stability.pairs",
    "graphs.vertices",
    "multidegrees.is_semistable.subsets",
)


WORKLOADS = {"classes": Classes, "trees": Trees, "corpus": Corpus, "cli": Cli}


class Run:
    """The timed phase of one run: rounds until the measuring time is spent, then the metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = harness.Tracer() if trace else None
        self.untraced: list = []
        self.traced: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0

    def _account(self, inputs, segments) -> None:
        failed, problems = self.wl.check_round(self.lib, inputs, segments)
        self.attempted += len(segments)
        self.failed += failed
        self.problems += problems
        for seg in segments:
            # Keep timings only: outputs and the op's closure hold the round's inputs.
            seg.output = None
            seg.op.fn = None

    def execute(self) -> None:
        with harness.Sampler() as sampler:
            self.sampler = sampler
            self._execute()

    def _execute(self) -> None:
        wl = self.wl
        harness.guard()
        self.lib, inputs0, self.setup_s, self.setup_raw_s = harness.measure_setup(wl, self.seed, self.sampler)
        wl.warmup(self.lib, inputs0)
        self.counts = wl.counts(wl.plain_round(self.seed, 0))
        harness.guard()
        body = 0.0
        while self.rounds == 0 or body < self.seconds:
            r = self.rounds
            plain = wl.plain_round(self.seed, r)
            inputs = inputs0 if r == 0 else wl.build_round(self.lib, plain)
            t0 = time.perf_counter()
            segments = harness.drive_round(wl, self.lib, inputs)
            body += time.perf_counter() - t0
            self._account(inputs, segments)
            self.untraced += segments
            if self.tracer is not None:
                body += self._traced_round(plain)
            harness.guard()
            self.rounds += 1
        time.sleep(2 * harness.WINDOW_S)  # let the samples after the last segment arrive
        harness.settle(self.sampler, self.untraced + self.traced)

    def _traced_round(self, plain) -> float:
        """The same round again, on freshly built inputs, with spans recorded."""
        tracer = self.tracer
        t0 = time.perf_counter()
        tracer.install(self.lib)
        try:
            build = harness.run_segment(
                harness.Op("build", lambda: self.wl.build_round(self.lib, plain), item=False),
                tracer, len(self.traced),
            )
            if build.error is not None:
                raise build.error
            segments = harness.drive_round(self.wl, self.lib, build.output, tracer, len(self.traced) + 1)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - t0
        self._account(build.output, segments)
        build.output = None
        self.traced += [build] + segments
        return elapsed

    # -- metrics -----------------------------------------------------------------------

    def end_to_end(self, normalised: bool) -> dict:
        def t(seg):
            return seg.norm_s if normalised else seg.raw_s

        items = [s for s in self.untraced if s.op.item]
        large = [t(s) * 1e3 for s in items if s.op.rung == self.wl.largest_rung]
        item_ms = [t(s) * 1e3 for s in items]
        return {
            "items_per_s": len(items) / sum(t(s) for s in self.untraced),
            "item_ms_p50": statistics.median(item_ms),
            "item_ms_p90": harness.percentile(item_ms, 90),
            "large_item_ms_p50": statistics.median(large) if large else 0.0,
            "setup_s": self.setup_s if normalised else self.setup_raw_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def shape(self) -> dict:
        items = [s for s in self.untraced if s.op.item]
        rungs = {}
        for s in items:
            rungs.setdefault(s.op.rung, []).append(s.norm_s * 1e3)
        return {
            "rounds": self.rounds,
            "items": len(items),
            "kernel_ms_median": statistics.median(self.sampler.kernels) * 1e3,
            "rung_items": {k: len(v) for k, v in sorted(rungs.items())},
            "rung_ms_p50": {k: round(statistics.median(v), 4) for k, v in sorted(rungs.items())},
        }

    def write_trace(self, path: Path) -> None:
        """One JSON line per span: name, start (s from the first), nominal-speed duration, parent, segment, rung."""
        origin = self.tracer.spans[0][1] if self.tracer.spans else 0.0
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as fh:
            for (name, dur, parent, seg_id, seg), raw in zip(self._spans(), self.tracer.spans):
                fh.write(json.dumps([name, round(raw[1] - origin, 7), dur, parent, seg_id, seg.op.rung]) + "\n")

    def _spans(self):
        """(name, duration without handler time at nominal speed, parent, segment id, segment) per span."""
        segs = self.traced
        return [
            (name, (t1 - t0 - self.sampler.handler_time(t0, t1)) * segs[seg_id].factor, parent, seg_id, segs[seg_id])
            for name, t0, t1, parent, seg_id in self.tracer.spans
        ]

    def per_layer(self) -> dict:
        spans = [(name, dur, parent, seg) for name, dur, parent, seg_id, seg in self._spans()]
        segs = self.traced
        child_s = [0.0] * len(spans)
        for name, dur, parent, seg in spans:
            if parent >= 0:
                child_s[parent] += dur
        calls = {name: 0 for name in harness.SPAN_NAMES}
        self_s = {name: 0.0 for name in harness.SPAN_NAMES}
        durations = {name: [] for name in harness.SPAN_NAMES}
        by_rung = {}
        root_s = 0.0
        for idx, (name, dur, parent, seg) in enumerate(spans):
            calls[name] += 1
            self_s[name] += dur - child_s[idx]
            durations[name].append(dur)
            by_rung.setdefault((name, seg.op.rung), []).append(dur)
            if parent < 0 and seg.op.rung != "build":
                root_s += dur
        rounds = self.rounds
        out = {}
        for name in harness.SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / rounds, "count")
            out[f"{name}.self_ms"] = (self_s[name] * 1e3 / rounds, "ms")
            out[f"{name}.us_p50"] = (statistics.median(durations[name]) * 1e6 if durations[name] else 0.0, "us")
        for name, rungs in PER_RUNG.items():
            for rung in rungs:
                values = by_rung.get((name, rung), [])
                out[f"{name}.us_p50.{rung}"] = (statistics.median(values) * 1e6 if values else 0.0, "us")
        for name in COUNTS:
            out[name] = (self.counts.get(name, 0), "count")
        steps = sum(s.op.pair_steps for s in segs)
        wc = self_s["divisor_classes.wall_crossing"] * 1e9
        out["divisor_classes.wall_crossing.ns_per_pair_step"] = (wc / steps if steps else 0.0, "ns")
        ops = [s for s in segs if s.op.rung != "build"]
        out["trace.accounted_pct"] = (100 * root_s / sum(s.norm_s for s in ops), "%")
        traced_items = sum(s.norm_s for s in ops if s.op.item)
        untraced_items = sum(s.norm_s for s in self.untraced if s.op.item)
        out["trace.overhead_pct"] = (100 * (traced_items / untraced_items - 1), "%")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so that clean-up in finally blocks runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "jacwall" / "cli.py").is_file():
        print(f"error: no program source at {src}/jacwall", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = Cli(ROOT) if args.workload == "cli" else WORKLOADS[args.workload]()
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except harness.Refused as exc:
        print(f"error: refused to time: {exc}", file=sys.stderr)
        return 3
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.close()

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        run.write_trace(ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.per_layer().items()}
    else:
        units = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
                 "large_item_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in run.end_to_end(True).items()}
        print(json.dumps({"raw": run.end_to_end(False), "shape": run.shape()}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
