#!/usr/bin/env python3
"""Served-sample benchmark of the King-Saia sampling service.

The unit of work is one served uniform sample: a request admitted by
``repro.service``, resolved by Choose-Random-Peer (``repro.core``) over
a substrate (``repro.dht``, ``repro.sim``) and answered with a peer.

    python3 perfbench/run.py --workload chord-static --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off: it
serves each of the workload's request streams (each on a deployment of
its own, with inputs seeded from ``--seed``) and then replays them until
``--seconds`` have passed, checks the outputs and that every replay
reproduces its stream's deterministic counters, and prints throughput
and set-up time over the drives.  ``--trace 1`` runs one untraced and
two traced drives of the first stream and prints the per-layer metrics.
The last line of standard output is one JSON object; the exit code is 0
only when every output check passed.  ``--workload all`` runs each
workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("ideal-static", "chord-static", "kademlia-static", "chord-churn")

#: (name, unit, better) of every end-to-end metric, tracing off.
END_TO_END = (
    ("samples_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("msgs_per_sample", "msgs", "lower"),
    ("sim_latency_p50", "sim_time", "lower"),
    ("sim_latency_p95", "sim_time", "lower"),
    ("success_rate", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Stop starting drives once this much of a run has been measured, so a
#: run ends well inside three minutes even on a slow machine.
MEASURE_CAP_S = 140.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, seed: int, seconds: float):
    """Untraced drives until ``seconds`` have passed.

    Each of the workload's request streams is served once, then the
    streams are replayed in turn -- at least one replay -- and every
    replay must reproduce its stream's first drive exactly.
    """
    from workloads import drive

    streams = workload.streams
    drives = []
    start = time.perf_counter()
    while True:
        drives.append(drive(workload, len(drives) % streams, seed))
        elapsed = time.perf_counter() - start
        if len(drives) <= streams:
            continue
        if elapsed >= seconds or elapsed * (len(drives) + 1) / len(drives) > MEASURE_CAP_S:
            return drives


def _end_to_end(drives, streams: int) -> tuple[dict, list[str]]:
    """Metrics of one run.

    Throughput is over all request streams, each timed at the median of
    its drives: streams differ in work (each runs on its own rings), so
    a median over all drives would mostly time whichever stream was
    replayed.  Set-up time is the median over all drives.  The
    deterministic metrics come from the first drive of each stream,
    which its replays matched exactly: latencies pool the streams, and
    messages per sample is the median over streams, because Estimate-n
    outcomes are heavy-tailed and one stream's rings can cost twice as
    many messages per sample as the typical stream's.
    """
    from stats import percentile, tail_percentile

    firsts = drives[:streams]
    walls: dict[int, list[float]] = {}
    for d in drives:
        walls.setdefault(d.seed, []).append(d.wall_s)
    completed = sum(d.completed for d in firsts)
    latencies = [x for d in firsts for x in d.latencies]
    failures = []
    try:
        p95 = tail_percentile(latencies, 0.95)
    except ValueError as exc:
        failures.append(f"sim_latency_p95: {exc}")
        p95 = percentile(latencies, 0.95)
    metrics = {
        "samples_per_s": completed / sum(statistics.median(walls[d.seed]) for d in firsts),
        "setup_s": statistics.median(d.setup_s for d in drives),
        "msgs_per_sample": statistics.median(
            d.counts["meter.messages"] / d.completed for d in firsts
        ),
        "sim_latency_p50": percentile(latencies, 0.5),
        "sim_latency_p95": p95,
        "success_rate": completed / sum(d.offered for d in firsts),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return metrics, failures


def _run_untraced(workload, args) -> tuple[dict, list, list[str]]:
    from checks import (
        determinism_failures,
        rank_uniformity_failures,
        survivor_uniformity_failures,
    )

    drives = _measure(workload, args.seed, args.seconds)
    firsts = drives[: workload.streams]
    metrics, failures = _end_to_end(drives, workload.streams)
    for d in firsts:
        failures += d.failures
    failures += determinism_failures(drives)
    if firsts[0].rank_bins is not None:
        failures += rank_uniformity_failures(firsts[0].rank_bins, workload.n)
    if firsts[0].survivors is not None:
        failures += survivor_uniformity_failures([d.survivors for d in firsts])
    units = {name: unit for name, unit, _ in END_TO_END}
    print(f"workload {workload.name}: seed {args.seed}, {len(drives)} drives of "
          f"{workload.requests} requests over {workload.streams} request streams")
    for name, value in metrics.items():
        print(f"  {name:<18} {value:14.6g} {units[name]}")
    errors = sum(d.failed + d.rejected for d in firsts) / sum(d.offered for d in firsts)
    print(f"  {'error_rate':<18} {errors:14.6g} ratio")
    print(f"  drive samples_per_s: {', '.join(f'{d.samples_per_s:.5g}' for d in drives)}")
    print(f"  drive setup_s: {', '.join(f'{d.setup_s:.4g}' for d in drives)}")
    for d in firsts:
        print(f"  stream {d.seed}: (request_id, peer_id) digest {d.digest}, "
              f"simulated utilization {d.utilization:.3f}")
    return metrics, drives, failures


def _run_traced(workload, args) -> tuple[dict, list, list[str]]:
    from checks import determinism_failures
    from layers import PER_LAYER, hooks, per_layer_metrics, tail_q
    from tracing import SpanRecorder
    from workloads import drive

    untraced = drive(workload, 0, args.seed)
    traced = [drive(workload, 0, args.seed, hooks(), SpanRecorder()) for _ in range(2)]
    drives = [untraced, *traced]
    failures = untraced.failures + determinism_failures(drives)
    if traced[0].recorder.counts != traced[1].recorder.counts:
        failures.append("determinism: traced drives disagree on boundary counts")
    rows = [per_layer_metrics(workload, d, untraced.wall_s) for d in traced]
    metrics = {m.name: statistics.median(row[m.name] for row in rows) for m in PER_LAYER}
    for row in rows:
        # Self times partition the root span, which is the traced wall
        # less the root wrapper's own entry and exit.
        share = row["trace.attributed_share"]
        if not 0.99 <= share <= 1.0:
            failures.append(f"trace: self times sum to {share:.4f} of the traced wall")
    units = {m.name: m.unit for m in PER_LAYER}
    print(f"workload {workload.name}: seed {args.seed} traced, 1 untraced + 2 traced drives")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:14.6g} {units[name]}")
    dispatches = int(metrics["service.dispatches"])
    print(f"  (service.dispatch_ms_p95 is the p{100 * tail_q(dispatches, 0.95):.3g} "
          f"of {dispatches} dispatches)")
    return metrics, drives, failures


def _run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the package source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER
    from stats import check_metric_name
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, drives, failures = _run_traced(workload, args)
        units = {m.name: m.unit for m in PER_LAYER}
    else:
        metrics, drives, failures = _run_untraced(workload, args)
        units = {name: unit for name, unit, _ in END_TO_END}
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("checks: " + ("ok" if not failures else f"{len(failures)} failed"))
    result = {
        "correct": not failures,
        "attempted": sum(d.offered for d in drives),
        "failed": sum(d.failed + d.rejected for d in drives),
        "metrics": {
            check_metric_name(name): {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def _run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        for line in lines[:-1]:
            print(line)
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = None
        if proc.returncode != 0:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
