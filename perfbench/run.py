#!/usr/bin/env python3
"""Run one kpindex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload extract-dense --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository: the package is
imported from the checkout's ``src/``, and scratch files go to
``.bench_build/`` in the checkout and are removed at exit.

With ``--trace 0`` the timed loop runs untraced and the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. The line before it is a report with
the metrics and sample counts that are not gated, the input properties
of the workload and the SHA-256 digest of its output bytes.

Every time reported is scaled to the reference speed of the calibration
kernel (see calibrate.py), which runs every quarter second between
operations; the report also gives the unscaled wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import calibrate
from spans import NullTracer, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p95_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "corpus.load_s": "s", "corpus.candidates_s": "s",
    "corpus.candidate_cache_hit_ratio": "ratio",
    "similarity.build_s": "s", "similarity.neighbors_s": "s",
    "similarity.pairs_scored": "count", "similarity.useful_ratio": "ratio",
    "similarity.mean_neighbors": "count",
    "similarity.zero_neighbor_share": "ratio",
    "graph.document_s": "s", "graph.expand_s": "s", "graph.bridge_s": "s",
    "graph.nodes_present": "count", "graph.nodes_absent": "count",
    "graph.absent_quota_share": "ratio",
    "graph.edges_document": "count", "graph.edges_domain": "count",
    "ranking.pagerank_s": "s", "ranking.rank_s": "s",
    "evaluation.evaluate_s": "s",
    "index.build_s": "s", "index.save_s": "s", "index.file_bytes": "B",
    "index.load_s": "s", "index.search_s": "s",
    "index.postings_scanned": "count",
    "trace.overhead_ratio": "ratio", "trace.attributed_ratio": "ratio",
    "trace.glue_s": "s",
}


def import_package():
    """Import kpindex from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kpindex" / "__init__.py").is_file():
        raise RuntimeError(f"no kpindex sources under {src}")
    sys.path.insert(0, str(src))
    import kpindex
    if Path(kpindex.__file__).resolve().parent != src / "kpindex":
        raise RuntimeError(f"kpindex imported from {kpindex.__file__}")


def quantile(sorted_values: list, q: float):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Passes:
    """Operations run pass after pass over a workload's items.

    ``latency_ns`` holds the raw time of each operation. Every
    ``WINDOW_S`` between operations the calibration kernel runs;
    ``factors`` holds each operation's scale factor (reference kernel time
    over the mean of the kernel times before and after its window), and
    ``scaled_s`` the scaled wall time of all windows, calibration excluded.
    ``pass_ops`` holds the operation index range of each complete pass.
    """

    WINDOW_S = 0.25

    def __init__(self) -> None:
        self.latency_ns = array("q")
        self.factors = array("d")
        self.kernel_s: list[float] = []
        self.pass_ops: list[range] = []
        self.elapsed_s = 0.0
        self.scaled_s = 0.0

    def scaled_ms(self) -> list[float]:
        return [ns / 1e6 * f for ns, f in zip(self.latency_ns, self.factors)]

    def pass_seconds(self) -> list[float]:
        ms = self.scaled_ms()
        return [sum(ms[i] for i in ops) / 1e3 for ops in self.pass_ops]


class Outputs:
    """What the operations returned, checked as they finish.

    Only the first pass's result and output line of each item are kept,
    so memory does not grow with the number of operations run. A later
    operation fails if it raises or if its output line differs from the
    first pass's line for the same item (every run must be deterministic);
    ``validate`` checks the first pass's results against the workload's
    output rules once the loop is over.
    """

    def __init__(self, n_items: int) -> None:
        self.first: list[tuple | None] = [None] * n_items  # (result, line)
        self.tries = [0] * n_items  # operations run per item
        self.repeats = [0] * n_items  # later operations equal to the first
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []  # the first few failures

    def add(self, idx: int, result, line, error) -> None:
        self.attempted += 1
        self.tries[idx] += 1
        first = self.first[idx]
        if error is None and first is None:
            self.first[idx] = (result, line)
        elif error is None and first[1] == line:
            self.repeats[idx] += 1
        else:
            self.fail(f"{idx}: {error or 'output differs from the first pass'}")

    def fail(self, message: str, times: int = 1) -> None:
        self.failed += times
        if len(self.messages) < 10:
            self.messages.append(message)


def run_passes(wl, items, seconds: float, whole_passes: bool,
               outputs: Outputs, tracer=None,
               out: Passes | None = None) -> Passes:
    """Run operations until ``seconds`` pass; with ``whole_passes`` only
    complete passes, at least one. The first pass is always completed, the
    part after the deadline untimed, so that its output can be digested."""
    out = out or Passes()
    clock = time.perf_counter_ns
    window_ns = int(Passes.WINDOW_S * 1e9)
    out.kernel_s.append(calibrate.measure())
    window_start = clock()
    window_first = len(out.latency_ns)

    def close_window():
        nonlocal window_start, window_first
        wall = (clock() - window_start) / 1e9
        out.kernel_s.append(calibrate.measure())
        factor = calibrate.REFERENCE_S / statistics.mean(out.kernel_s[-2:])
        out.factors.extend([factor] * (len(out.latency_ns) - window_first))
        out.scaled_s += wall * factor
        out.elapsed_s += wall
        window_start, window_first = clock(), len(out.latency_ns)

    deadline = clock() + int(seconds * 1e9)
    stopped = False
    while not stopped:
        pass_first = len(out.latency_ns)
        ctx = wl.begin_pass()
        for idx, item in enumerate(items):
            t0 = clock()
            outcome = run_op(wl, ctx, item, tracer)
            t1 = clock()
            out.latency_ns.append(t1 - t0)
            outputs.add(idx, *outcome)
            if not whole_passes and t1 >= deadline:
                stopped = True
                break
            if t1 - window_start >= window_ns:
                close_window()
        else:
            out.pass_ops.append(range(pass_first, len(out.latency_ns)))
            stopped = clock() >= deadline
    close_window()
    for idx, tries in enumerate(outputs.tries):
        if not tries:
            outputs.add(idx, *run_op(wl, ctx, items[idx], None))
    return out


def run_op(wl, ctx, item, tracer) -> tuple:
    """(result, output line, error message) of one operation."""
    try:
        if tracer is None:
            return (*wl.op(ctx, item), None)
        with tracer.span("bench.op"):
            return (*wl.op(ctx, item), None)
    except Exception as exc:  # counted as a failed operation
        return None, None, f"{type(exc).__name__}: {exc}"


def timed_call(fn, *args):
    """Result of fn(*args) and its scaled duration, calibrated both sides."""
    before = calibrate.measure()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    factor = calibrate.REFERENCE_S / statistics.mean([before, calibrate.measure()])
    return result, wall * factor, factor


def validate(wl, items, outputs: Outputs) -> list:
    """First-pass results, after counting in ``outputs`` every operation
    whose result breaks the workload's output rules."""
    results = []
    for idx, first in enumerate(outputs.first):
        error = None if first is None else wl.check(items[idx], first[0])
        if error is not None:
            outputs.fail(f"{items[idx]!r}: {error}", 1 + outputs.repeats[idx])
        results.append(None if first is None else first[0])
    return results


def digest(wl, outputs: Outputs) -> str | None:
    """SHA-256 of the first pass's output bytes, if every operation ran."""
    if None in outputs.first:
        return None
    return wl.digest([line for _, line in outputs.first])


def result_line(outputs: Outputs, metrics: dict, units: dict) -> str:
    for message in outputs.messages:
        print(f"failed: {message}", file=sys.stderr)
    return json.dumps({
        "correct": not outputs.failed,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def end_to_end(wl, seconds: float) -> tuple[dict, str]:
    setup_s, raw_setup_s, extras, fingerprints = [], [], {}, set()
    for _ in range(wl.setup_repeats):
        timings, scaled, factor = timed_call(wl.setup, NullTracer())
        setup_s.append(scaled)
        raw_setup_s.append(scaled / factor)
        fingerprints.add(wl.fingerprint())
        for key, value in timings.items():
            extras.setdefault(key, []).append(value * factor)
    items = wl.items()
    outputs = Outputs(len(items))
    run = run_passes(wl, items, seconds, whole_passes=False, outputs=outputs)
    first = validate(wl, items, outputs)
    if len(fingerprints) != 1:
        outputs.fail("set-up wrote different bytes on repeated runs")
    finished, properties = {}, {}
    if not outputs.failed:
        finished = wl.finish(first, NullTracer())
    # Read before the summaries below allocate per-operation lists.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not outputs.failed:
        properties = wl.properties(first)

    lat_ms = sorted(run.scaled_ms())
    raw_ms = sorted(ns / 1e6 for ns in run.latency_ns)
    timed = len(lat_ms)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": timed / run.scaled_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": quantile(lat_ms, 0.95),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "op": wl.op_unit,
        "samples": {"setup": len(setup_s), "ops": timed,
                    "beyond_p95": timed - math.ceil(0.95 * timed),
                    "beyond_p99": timed - math.ceil(0.99 * timed),
                    "calibrations": len(run.kernel_s)},
        "op_p99_ms": quantile(lat_ms, 0.99),
        "error_rate": outputs.failed / outputs.attempted,
        "timings_s": {key: {"median": statistics.median(v), "samples": len(v)}
                      for key, v in extras.items()},
        "unscaled": {"setup_s": statistics.median(raw_setup_s),
                     "ops_per_s": timed / run.elapsed_s,
                     "op_p50_ms": statistics.median(raw_ms),
                     "op_p95_ms": quantile(raw_ms, 0.95),
                     "kernel_s_median": statistics.median(run.kernel_s)},
        "finish": finished,
        "properties": properties,
        "sha256": digest(wl, outputs),
    }
    return report, result_line(outputs, metrics, END_TO_END)


def traced(wl, seconds: float) -> tuple[dict, str]:
    tracer = Tracer()
    with instrument(tracer):
        _, _, factor = timed_call(wl.setup, tracer)
    setup_self = tracer.self_seconds(factor)
    tracer.reset()

    # Untraced and traced passes alternate, so that drift over the run
    # (allocator growth, other load on the machine) hits both alike.
    items = wl.items()
    outputs = Outputs(len(items))
    plain, run = Passes(), Passes()
    deadline = time.perf_counter() + seconds
    while not plain.pass_ops or time.perf_counter() < deadline:
        run_passes(wl, items, 0, True, outputs, out=plain)
        with instrument(tracer):
            run_passes(wl, items, 0, True, outputs, tracer=tracer, out=run)
    ops_self, counts = tracer.self_seconds(run.factors), dict(tracer.counts)
    tracer.reset()

    first = validate(wl, items, outputs)
    finish_self = {}
    if not outputs.failed:
        with instrument(tracer):
            _, _, factor = timed_call(wl.finish, first, tracer)
        finish_self = tracer.self_seconds(factor)

    passes = len(run.pass_ops)
    traced_s, plain_s = run.pass_seconds(), plain.pass_seconds()

    def per_pass(name):
        return ops_self.get(name, 0.0) / passes

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    graphs = "graph.graphs"
    op_total = sum(ops_self.values())
    layer_s = sum(v for k, v in ops_self.items()
                  if not k.startswith(("bench.", "trace.")))
    metrics = {
        "corpus.load_s": setup_self.get("corpus.load", 0.0),
        "corpus.candidates_s": per_pass("corpus.candidates"),
        "corpus.candidate_cache_hit_ratio":
            1.0 - ratio("corpus.extract_candidates_calls",
                        "corpus.candidates_for_calls")
            if counts.get("corpus.candidates_for_calls") else 0.0,
        "similarity.build_s": setup_self.get("similarity.build", 0.0),
        "similarity.neighbors_s": per_pass("similarity.neighbors"),
        "similarity.pairs_scored": ratio("similarity.cosine_calls",
                                         "similarity.neighbors_calls"),
        "similarity.useful_ratio": ratio("similarity.neighbors_returned",
                                         "similarity.cosine_calls"),
        "similarity.mean_neighbors": ratio("similarity.neighbors_returned",
                                           "similarity.neighbors_calls"),
        "similarity.zero_neighbor_share": ratio("similarity.zero_neighbor_calls",
                                                "similarity.neighbors_calls"),
        "graph.document_s": per_pass("graph.document"),
        "graph.expand_s": per_pass("graph.expand"),
        "graph.bridge_s": per_pass("graph.bridge"),
        "graph.nodes_present": ratio("graph.nodes_present", graphs),
        "graph.nodes_absent": ratio("graph.nodes_absent", graphs),
        "graph.absent_quota_share": ratio("graph.nodes_absent", graphs)
            / wl.cfg.absent_quota,
        "graph.edges_document": ratio("graph.edges_document", graphs),
        "graph.edges_domain": ratio("graph.edges_domain", graphs),
        "ranking.pagerank_s": per_pass("ranking.pagerank"),
        "ranking.rank_s": per_pass("ranking.rank"),
        "evaluation.evaluate_s": finish_self.get("evaluation.evaluate", 0.0),
        "index.build_s": setup_self.get("index.build", 0.0),
        "index.save_s": setup_self.get("index.save", 0.0),
        "index.load_s": setup_self.get("index.load", 0.0),
        "index.search_s": per_pass("index.search"),
        "index.file_bytes": 0,
        "index.postings_scanned": 0.0,
        "trace.overhead_ratio": statistics.mean(traced_s) / statistics.mean(plain_s),
        "trace.attributed_ratio": layer_s / op_total,
        "trace.glue_s": per_pass("bench.op"),
    }
    metrics.update(wl.layer_counts())
    report = {
        "op": wl.op_unit,
        "samples": {"items_per_pass": len(items), "untraced_passes": len(plain_s),
                    "traced_passes": passes},
        "pass_s": {"untraced": statistics.mean(plain_s),
                   "traced": statistics.mean(traced_s)},
        "self_s_per_pass": {k: v / passes for k, v in sorted(ops_self.items())},
        "self_share_of_ops": {k: v / op_total for k, v in sorted(ops_self.items())},
        "counts": counts,
        "error_rate": outputs.failed / outputs.attempted,
        "sha256": digest(wl, outputs),
    }
    return report, result_line(outputs, metrics, PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
        from workloads import WORKLOADS
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / f"perfbench-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        wl.generate()
        measure = traced if args.trace else end_to_end
        report, line = measure(wl, args.seconds)
    except Exception:  # no result line: the run could not measure anything
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "size": wl.n,
              "trace": args.trace, **report}
    print(json.dumps({"report": report}, sort_keys=True))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
