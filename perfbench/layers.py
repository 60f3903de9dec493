"""Per-layer metrics from a traced drive, and the hooks that trace it.

The layers are the package's modules.  Each hook wraps one public entry
point; the span name's prefix is its layer:

- ``drive`` (the ``Simulator.run`` loop that serves the load) and
  ``service.*``: admission, micro-batching and dispatch bookkeeping;
- ``core.*``: Estimate-n and the ``BatchSampler`` trials and walks;
- ``dht.*``: ``h``/``next`` of the ideal, Chord and Kademlia adapters,
  the Chord lockstep snapshot, and the node methods that answer RPCs;
- ``transport.*``: the ``RpcTransport`` message fabric, without the
  handler it delivers to;
- ``maint.*``: Chord stabilization and Kademlia bucket refresh rounds.

:data:`PER_LAYER` lists every per-layer metric with its unit and the
end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import repro.core.engine as engine
from repro.core.engine import BatchSampler
from repro.dht.api import CostMeter
from repro.dht.chord.network import ChordDHT, ChordNetwork
from repro.dht.chord.node import ChordNode
from repro.dht.ideal import IdealDHT, LogCost
from repro.dht.kademlia.network import KademliaDHT, KademliaNetwork
from repro.dht.kademlia.node import KademliaNode
from repro.service import BatchDispatch, SamplingService
from repro.sim.kernel import Simulator
from repro.sim.network import RpcTransport

from stats import MIN_BEYOND, percentile, samples_beyond
from tracing import Hook, SpanRecorder
from workloads import DriveOutcome, Workload

__all__ = [
    "HANDLERS",
    "LAYER_OF",
    "PER_LAYER",
    "LayerMetric",
    "hooks",
    "per_layer_metrics",
    "tail_q",
]

#: Root span of a drive; everything the load costs happens under it.
ROOT = "drive"

#: Transport methods reported one by one (per sample); the rest of the
#: traffic is in ``transport.rpcs_per_sample``.
METHODS = (
    "lookup_step",
    "get_successor",
    "get_predecessor",
    "get_successor_list",
    "notify",
    "ping",
    "find_node",
    "find_clockwise",
)


#: Node methods the transports invoke on a target (the RPC handlers).
HANDLERS = {
    ChordNode: (
        "ping",
        "get_successor",
        "get_successor_list",
        "get_predecessor",
        "notify",
        "lookup_step",
        "set_predecessor",
        "offer_successor",
        "forward_lookup",
    ),
    KademliaNode: ("ping", "find_node", "find_clockwise"),
}

LAYERS = ("service", "core", "dht", "transport", "maint")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str  # the end-to-end metric it should move, and where
    better: str = "lower"


_E2E_ALL = "all four workloads"
PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("service.self_us_per_sample", "us",
                "samples_per_s on ideal-static; sim_latency_* nowhere (wall only)"),
    LayerMetric("service.mean_batch", "count",
                f"samples_per_s on ideal-static; msgs_per_sample and sim_latency_* on {_E2E_ALL}",
                "higher"),
    LayerMetric("service.dispatches", "count", "sample count behind dispatch_ms_*"),
    LayerMetric("service.dispatch_ms_p50", "ms", f"samples_per_s on {_E2E_ALL}"),
    LayerMetric("service.dispatch_ms_p95", "ms", f"samples_per_s on {_E2E_ALL}"),
    LayerMetric("service.queue_wait_sim_p50", "sim_time", f"sim_latency_* on {_E2E_ALL}"),
    LayerMetric("service.rejected", "count", f"success_rate on {_E2E_ALL}"),
    LayerMetric("service.failed", "count", "success_rate on chord-churn"),
    LayerMetric("service.dispatch_failures", "count",
                "success_rate and sim_latency_* on chord-churn"),
    LayerMetric("core.self_us_per_sample", "us", "samples_per_s on ideal-static"),
    LayerMetric("core.trials_per_sample", "count",
                f"msgs_per_sample and sim_latency_* on {_E2E_ALL}"),
    LayerMetric("core.rounds_per_batch", "count", f"msgs_per_sample on {_E2E_ALL}"),
    LayerMetric("core.trial_efficiency", "ratio",
                f"msgs_per_sample and sim_latency_* on {_E2E_ALL}", "higher"),
    LayerMetric("core.stale_trials", "count", "msgs_per_sample on chord-churn"),
    LayerMetric("core.estimate_ms", "ms", f"setup_s on {_E2E_ALL}"),
    LayerMetric("dht.h_us_per_sample", "us",
                "samples_per_s on chord-static, kademlia-static, chord-churn"),
    LayerMetric("dht.next_us_per_sample", "us",
                "samples_per_s on chord-static and kademlia-static; not ideal-static"),
    LayerMetric("dht.handler_us_per_sample", "us",
                "samples_per_s on the three overlay workloads; zero on ideal-static"),
    LayerMetric("dht.h_per_sample", "count", f"msgs_per_sample on {_E2E_ALL}"),
    LayerMetric("dht.next_per_sample", "count", f"msgs_per_sample on {_E2E_ALL}"),
    LayerMetric("dht.msgs_per_h", "msgs", f"msgs_per_sample on {_E2E_ALL}"),
    LayerMetric("dht.lockstep_share", "ratio", "samples_per_s on chord-static and chord-churn",
                "higher"),
    LayerMetric("dht.snapshot_builds", "count", "samples_per_s on chord-churn"),
    LayerMetric("dht.snapshot_patches", "count", "samples_per_s on chord-churn"),
    LayerMetric("dht.build_s", "s", f"setup_s on {_E2E_ALL}"),
    LayerMetric("transport.rpc_us_per_sample", "us",
                "samples_per_s on the three overlay workloads; zero on ideal-static"),
    LayerMetric("transport.rpcs_per_sample", "count",
                "samples_per_s on the three overlay workloads; zero on ideal-static"),
    *(
        LayerMetric(f"transport.msgs_per_sample.{m}", "msgs",
                    "msgs_per_sample and samples_per_s on the overlay workloads")
        for m in METHODS
    ),
    LayerMetric("transport.timeouts", "count", "sim_latency_* on chord-churn"),
    LayerMetric("transport.retries", "count", "sim_latency_* on chord-churn"),
    LayerMetric("sim.events_per_sample", "count", f"samples_per_s on {_E2E_ALL}"),
    LayerMetric("maint.us_per_sample", "us", "samples_per_s on chord-churn only"),
    LayerMetric("maint.rounds", "count", "samples_per_s on chord-churn only"),
    LayerMetric("maint.msgs_per_round", "msgs", "samples_per_s on chord-churn only"),
    LayerMetric("churn.events", "count", "samples_per_s and success_rate on chord-churn"),
    *(
        LayerMetric(f"layer.{layer}.self_share", "ratio",
                    "none: the layer's self time / traced drive wall")
        for layer in LAYERS
    ),
    LayerMetric("trace.overhead", "ratio", "none: traced wall / untraced wall"),
    LayerMetric("trace.attributed_share", "ratio",
                "none: layer self times summed / traced drive wall", "higher"),
)

#: Span name -> layer, for the self-time split.
LAYER_OF = {
    ROOT: "service",
    "service.submit": "service",
    "service.execute": "service",
    "core.sample": "core",
    "core.refresh": "core",
    "core.estimate": "core",
    "dht.h": "dht",
    "dht.h_many": "dht",
    "dht.next": "dht",
    "dht.snapshot": "dht",
    "dht.peer_at": "dht",
    "dht.handler": "dht",
    "transport.rpc": "transport",
    "transport.oneway": "transport",
    "maint.round": "maint",
}


def _observe_sample(rec: SpanRecorder, _args, _kwargs, result) -> None:
    rec.count("core.calls")
    rec.count("core.trials", result.trials)
    rec.count("core.rounds", result.rounds)


def _observe_charge_h(rec: SpanRecorder, args, kwargs, _result) -> None:
    messages = kwargs["messages"] if "messages" in kwargs else args[1]
    rec.count("meter.h_msgs", messages)


def _observe_charge_bulk(rec: SpanRecorder, _args, kwargs, _result) -> None:
    if kwargs.get("next_calls", 0):
        # A mixed bulk charge (the engine's flat-array kernel): its h
        # share is h_calls times the substrate's unit h cost.
        rec.count("meter.bulk_mixed_h_calls", kwargs.get("h_calls", 0))
    else:
        rec.count("meter.h_msgs", kwargs.get("messages", 0))


def _transport_messages(args) -> int:
    return args[0].transport.messages_sent


def hooks() -> list[Hook]:
    """Every traced boundary (see the module docstring for the layers)."""
    hs = [
        Hook(Simulator, "run", ROOT),
        Hook(SamplingService, "submit", "service.submit"),
        Hook(BatchDispatch, "execute", "service.execute", keep=True),
        Hook(BatchSampler, "sample_many_attributed", "core.sample", observe=_observe_sample),
        Hook(BatchSampler, "refresh", "core.refresh"),
        Hook(engine, "estimate_n", "core.estimate", keep=True),
        Hook(ChordNetwork, "snapshot", "dht.snapshot"),
        Hook(IdealDHT, "successor_of_index", "dht.peer_at"),
        Hook(RpcTransport, "rpc_from", "transport.rpc"),
        Hook(RpcTransport, "oneway_from", "transport.oneway"),
        Hook(ChordNetwork, "stabilize_round", "maint.round", gauge=_transport_messages),
        Hook(KademliaNetwork, "refresh_round", "maint.round", gauge=_transport_messages),
        Hook(CostMeter, "charge_h", "meter", observe=_observe_charge_h, span=False),
        Hook(CostMeter, "charge_bulk", "meter", observe=_observe_charge_bulk, span=False),
    ]
    for cls in (IdealDHT, ChordDHT, KademliaDHT):
        hs.append(Hook(cls, "h", "dht.h"))
        hs.append(Hook(cls, "next", "dht.next"))
        hs.append(Hook(cls, "h_many", "dht.h_many"))
    for cls in (ChordDHT, KademliaDHT):
        hs.append(Hook(cls, "resolve_many", "dht.h_many"))
    for cls, methods in HANDLERS.items():
        hs.extend(Hook(cls, m, "dht.handler") for m in methods)
    return hs


def layer_self_seconds(rec: SpanRecorder, root: str = ROOT) -> dict[str, float]:
    """Self seconds per layer over the spans under ``root``."""
    out: dict[str, float] = {}
    for name, seconds in rec.self_times(root).items():
        layer = LAYER_OF[name]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def per_layer_metrics(
    workload: Workload, drive: DriveOutcome, untraced_wall: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced drive."""
    rec = drive.recorder
    samples = drive.completed
    counts = drive.counts
    self_s = rec.self_times(ROOT)
    per_sample_us = 1e6 / samples

    def self_us(*names):
        return sum(self_s.get(n, 0.0) for n in names) * per_sample_us

    dispatch_ms = [s.duration * 1e3 for s in rec.spans if s.name == "service.execute"]
    estimate_ms = [
        s.duration * 1e3 for s in rec.spans if s.name == "core.estimate" and s.parent is None
    ]
    trials = rec.counts.get("core.trials", 0)
    calls = rec.counts.get("core.calls", 0)
    h_calls = counts.get("meter.h_calls", 0)
    h_msgs = rec.counts.get("meter.h_msgs", 0)
    if workload.substrate == "ideal":
        # The flat-array kernel charges h and next in one bulk call; the
        # ideal substrate prices every h at its cost model's unit.
        h_msgs += LogCost(workload.n).h_messages * rec.counts.get("meter.bulk_mixed_h_calls", 0)
    lookups = sum(counts.get(f"dht.lookups.{k}", 0) for k in ("lockstep", "delegated", "percall"))
    rounds = rec.calls("maint.round", ROOT)
    layers = layer_self_seconds(rec)
    out = {
        "service.self_us_per_sample": self_us(ROOT, "service.submit", "service.execute"),
        "service.mean_batch": samples / max(1, counts.get("service.batches", 0)),
        "service.dispatches": len(dispatch_ms),
        "service.dispatch_ms_p50": percentile(dispatch_ms, 0.5),
        "service.dispatch_ms_p95": percentile(dispatch_ms, tail_q(len(dispatch_ms), 0.95)),
        "service.queue_wait_sim_p50": percentile(drive.queue_waits, 0.5),
        "service.rejected": counts["service.rejected"],
        "service.failed": counts["service.failed"],
        "service.dispatch_failures": counts["service.dispatch_failures"],
        "core.self_us_per_sample": self_us("core.sample", "core.refresh", "core.estimate"),
        "core.trials_per_sample": trials / samples,
        "core.rounds_per_batch": rec.counts.get("core.rounds", 0) / max(1, calls),
        "core.trial_efficiency": (samples / trials) / (sum(drive.lam_n) / len(drive.lam_n)),
        "core.stale_trials": counts.get("core.stale_trials", 0),
        "core.estimate_ms": statistics.median(estimate_ms) if estimate_ms else 0.0,
        "dht.h_us_per_sample": self_us("dht.h", "dht.h_many", "dht.snapshot"),
        "dht.next_us_per_sample": self_us("dht.next"),
        "dht.handler_us_per_sample": self_us("dht.handler"),
        "dht.h_per_sample": h_calls / samples,
        "dht.next_per_sample": counts.get("meter.next_calls", 0) / samples,
        "dht.msgs_per_h": h_msgs / h_calls if h_calls else 0.0,
        "dht.lockstep_share": counts.get("dht.lookups.lockstep", 0) / lookups if lookups else 0.0,
        "dht.snapshot_builds": counts.get("dht.snapshot_builds", 0),
        "dht.snapshot_patches": counts.get("dht.snapshot_patches", 0),
        "dht.build_s": drive.build_s,
        "transport.rpc_us_per_sample": rec.inclusive(
            ["transport.rpc", "transport.oneway"], ROOT
        ) * per_sample_us,
        "transport.rpcs_per_sample": counts.get("transport.rpc.calls", 0) / samples,
        **{
            f"transport.msgs_per_sample.{m}": counts.get(f"transport.msgs.{m}", 0) / samples
            for m in METHODS
        },
        "transport.timeouts": counts.get("transport.rpc.timeouts", 0),
        "transport.retries": counts.get("transport.rpc.retries", 0),
        "sim.events_per_sample": counts.get("sim.events", 0) / samples,
        "maint.us_per_sample": rec.inclusive(["maint.round"], ROOT) * per_sample_us,
        "maint.rounds": rounds,
        "maint.msgs_per_round": (
            rec.counts.get(f"maint.round@{ROOT}", 0) / rounds if rounds else 0.0
        ),
        "churn.events": sum(v for k, v in counts.items() if k.startswith("churn.")),
        "trace.overhead": drive.wall_s / untraced_wall,
        "trace.attributed_share": sum(layers.values()) / drive.wall_s,
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = layers.get(layer, 0.0) / drive.wall_s
    return out


def tail_q(count: int, q: float) -> float:
    """``q``, lowered to the highest percentile with ten samples beyond it.

    Dispatch counts are a property of the workload (a Chord drive makes
    a dozen dispatches), so a short drive's p95 is reported at the
    highest admissible percentile instead, but never below the median;
    ``service.dispatches`` gives the count it rests on.
    """
    if samples_beyond(count, q) >= MIN_BEYOND:
        return q
    return max(0.5, (count - MIN_BEYOND) / count)
