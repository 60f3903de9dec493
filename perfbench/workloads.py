"""The benchmark's four workloads and one drive of each.

Every workload is an open-loop Poisson stream of single-sample requests
on the simulated clock, run as one batch job on the wall clock.  A run
serves several request streams, each on a deployment of its own: the
shard rings and the samplers' trial coins of stream ``i`` come from
deployment seed ``i``, a committed list shared by every run.  The run's
seed makes the inputs, from named streams of one registry per request
stream: the request arrival times and, on ``chord-churn``, the timing
and kind of every membership change.

A ring's Estimate-n outcome moves its messages per sample by 4-26%, and
a stream's coins move it by several percent more, so a single deployment
would set the figures: several per run keep any one from dominating
them.  A change that draws rings or coins in another order meets a
new set of deployments, and moves the median over a run's streams by a
few percent (the README gives the measured shift).

A drive builds everything afresh (the set-up time), serves the load,
and reduces the finished system to plain data: latencies, the digest of
the ordered ``(request_id, peer_id)`` stream, the program's own
counters (the determinism fingerprint) and what the output checks need.
Nothing else outlives it, so drives do not accumulate memory.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.dht.chord.network import ChordNetwork
from repro.dht.ideal import IdealDHT
from repro.dht.kademlia.network import KademliaNetwork
from repro.scenarios import preset
from repro.service import (
    RequestStatus,
    SamplingService,
    build_load,
    build_substrates,
)
from repro.sim.churn import ChurnProcess
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

from tracing import Hook, Instrumentation, SpanRecorder

__all__ = ["WORKLOADS", "DriveOutcome", "Workload", "drive", "stream_seed"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``requests`` are offered per drive.

    A run serves ``streams`` distinct request streams, each on its own
    deployment (see the module docstring); the deterministic metrics
    combine them, so more streams average over more rings.

    Static workloads split requests evenly over the shards (round-robin
    routing) and make ``requests`` a multiple of ``shards * max_batch``
    with a ``max_wait`` far beyond the batch fill time, so every batch
    flushes on size.  Then a change to simulated service time cannot
    alter batch sizes, and through them the trials drawn per sample.
    ``build`` holds keyword arguments of ``build_substrates`` and
    ``service`` those of ``SamplingService``.  ``churn`` names the
    scenario preset whose dynamics ``chord-churn`` runs; there ``build``
    and ``service`` override fields of the preset.
    """

    name: str
    why: str
    requests: int
    streams: int
    substrate: str  # ideal | chord | kademlia
    n: int
    rate: float
    shards: int = 2
    build: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    churn: str | None = None


def _flush_on_size(max_batch: int) -> dict:
    return {"max_batch": max_batch, "max_wait": 1e4}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ideal-static",
            why=(
                "IdealDHT n=1e5, batches of 32 flush on size: the core kernel and "
                "service bookkeeping do all the work, no transport"
            ),
            requests=5120,
            streams=4,
            substrate="ideal",
            n=100_000,
            rate=0.4,
            service=_flush_on_size(32),
        ),
        Workload(
            name="chord-static",
            why=(
                "Chord n=1e4: next walks over RpcTransport dominate, h runs on the "
                "lockstep snapshot; where dht and transport changes show"
            ),
            requests=96,
            streams=8,
            substrate="chord",
            n=10_000,
            rate=0.2,
            build={"chord_m": 20},
            service=_flush_on_size(16),
        ),
        Workload(
            name="kademlia-static",
            why=(
                "Kademlia n=4096, k=20, alpha=3: the only workload that runs "
                "XOR routing (find_clockwise walks, nsmallest frontiers)"
            ),
            requests=64,
            streams=6,
            substrate="kademlia",
            n=4096,
            rate=0.25,
            build={"kad_k": 20, "kad_alpha": 3},
            service=_flush_on_size(16),
        ),
        Workload(
            name="chord-churn",
            why=(
                "moderate churn preset, Chord n=500: stabilization rounds beside "
                "sampling, snapshot patches; maintenance-bound, so sampling-only "
                "gains barely move it"
            ),
            requests=48,
            streams=12,
            substrate="chord",
            n=500,
            rate=0.3,
            build={"chord_m": 16, "stabilize_interval": 4.0},
            # Health-aware routing splits requests unevenly under churn, so
            # each stream can end on partial batches.  An age bound near the
            # batch fill time (8 / 0.15 per shard) keeps those stragglers
            # from forming a latency plateau that p95 lands on or misses.
            service={"max_batch": 8, "max_wait": 60.0},
            churn="moderate",
        ),
    )
}


def stream_seed(seed: int, stream: int) -> int:
    """The input seed of a run's ``stream``-th request stream."""
    return random.Random(f"perfbench:{seed}:{stream}").getrandbits(32)


@dataclass
class DriveOutcome:
    """What one drive leaves behind, as plain data."""

    seed: int  # the request stream's input seed
    setup_s: float
    build_s: float
    wall_s: float
    offered: int
    completed: int
    failed: int
    rejected: int
    latencies: list[float]  # total sim latency of each completed request
    queue_waits: list[float]
    digest: str  # ordered (request_id, peer_id) stream
    #: The program's counters over the drive; replays must match exactly.
    counts: dict[str, float]
    #: Sampler parameters per shard: lambda * true n (trial efficiency base).
    lam_n: list[float]
    #: Simulated busy time of the shards over shards x simulated run time.
    utilization: float
    #: Output-check failures found while reducing the drive.
    failures: list[str]
    #: 64-bin peer-rank histogram (ideal substrate only).
    rank_bins: list[int] | None = None
    #: Per shard, (draws, owned arc) of each peer alive throughout, in id
    #: order (churn only).
    survivors: list[list[tuple[int, int]]] | None = None
    #: The traced drive's spans and boundary counts.
    recorder: SpanRecorder | None = None

    @property
    def samples_per_s(self) -> float:
        return self.completed / self.wall_s


@dataclass
class _Served:
    """A finished drive before reduction."""

    service: SamplingService
    substrates: list
    networks: list
    counts: dict  # the program's counters over the served run
    setup_s: float
    build_s: float
    wall_s: float
    churn: dict | None = None  # recovery verdicts and survivors


def _counters(service: SamplingService, networks) -> dict[str, float]:
    """The program's own counters: meters, transports, kernel, snapshots."""
    out: Counter = Counter()
    for shard in service.shards:
        sampler = shard.dispatch.sampler
        dht = sampler.dht
        cost = dht.cost
        out["meter.h_calls"] += cost.h_calls
        out["meter.next_calls"] += cost.next_calls
        out["meter.messages"] += cost.messages
        out["meter.latency"] += cost.latency
        out["core.stale_trials"] += sampler.stale_trials
        out["service.batches"] += shard.batches_served
        stats = getattr(dht, "batch_stats", None)
        if stats is not None:
            for key, value in stats.as_dict().items():
                out[f"dht.lookups.{key}"] += value
    for net in networks:
        transport = net.transport
        for key in ("rpc.calls", "rpc.timeouts", "rpc.retries", "messages"):
            out[f"transport.{key}"] += transport.metrics.counter(key).value
        for method, count in transport.messages_by_method().items():
            out[f"transport.msgs.{method}"] += count
        out["dht.snapshot_builds"] += getattr(net, "snapshot_builds", 0)
        out["dht.snapshot_patches"] += getattr(net, "snapshot_patches", 0)
    out["sim.events"] += service.sim.events_executed
    return dict(out)


def _delta(after: dict, before: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _digest(responses) -> str:
    h = hashlib.sha256()
    for r in responses:
        peer = r.peer.peer_id if r.peer is not None else -1
        h.update(f"{r.request_id}:{peer}\n".encode())
    return h.hexdigest()[:16]


def _members(dht, networks, index: int) -> set[int]:
    if isinstance(dht, IdealDHT):
        return {p.peer_id for p in dht.peers}
    return set(networks[index].nodes)


def _survivors(draws: Counter, population: set[int], net) -> list[tuple[int, int]]:
    """(draws, owned arc) of each peer of ``net`` present from start to end.

    A peer's arc is the id-space interval it owns on the final ring, from
    its predecessor (exclusive) to itself.
    """
    ring = sorted(net.nodes)
    size = 1 << net.m
    return [
        (draws[p], (p - ring[k - 1]) % size)
        for k, p in enumerate(ring)
        if p in population
    ]


def _rank_bins(service: SamplingService, substrates) -> list[int]:
    """Completed draws per 64 equal-count bins of peer rank on each ring."""
    ranks = [
        {p.peer_id: i for i, p in enumerate(dht.peers)} for dht in substrates
    ]
    bins = [0] * 64
    for r in service.responses:
        if r.status is RequestStatus.OK:
            n = len(ranks[r.shard_id])
            bins[ranks[r.shard_id][r.peer.peer_id] * 64 // n] += 1
    return bins


def drive(workload: Workload, stream: int, seed: int, hooks=(), recorder=None) -> DriveOutcome:
    """Build, serve and reduce one drive of request stream ``stream`` of a run.

    The stream runs on deployment ``stream`` with inputs from
    ``stream_seed(seed, stream)``.

    A ``recorder`` turns on tracing, through ``hooks``, for this drive only.
    """
    gc.collect()  # every drive starts from the same clean heap
    serve = _serve_static if workload.churn is None else _serve_churn
    inputs = stream_seed(seed, stream)
    if recorder is None:
        served = serve(workload, stream, inputs)
    else:
        with Instrumentation(hooks, recorder):
            served = serve(workload, stream, inputs)
    return _reduce(workload, inputs, served, recorder)


def _serve_static(workload: Workload, deployment: int, seed: int) -> _Served:
    networks: list = []

    def capture(_rec, _args, _kwargs, net):
        networks.append(net)

    capture_hooks = [
        Hook(cls, "build", "build", observe=capture, span=False)
        for cls in (ChordNetwork, KademliaNetwork)
    ]
    with Instrumentation(capture_hooks, SpanRecorder()):
        start = time.perf_counter()
        substrates = build_substrates(
            workload.n,
            workload.shards,
            substrate=workload.substrate,
            seed=deployment,
            **workload.build,
        )
    build_s = time.perf_counter() - start
    service = SamplingService(substrates, seed=deployment, **workload.service)
    load = build_load(service, rate=workload.rate, total=workload.requests, seed=seed)
    setup_s = time.perf_counter() - start
    ready = _counters(service, networks)
    load.start()
    start = time.perf_counter()
    service.run()
    wall_s = time.perf_counter() - start
    counts = _delta(_counters(service, networks), ready)
    return _Served(service, substrates, networks, counts, setup_s, build_s, wall_s)


#: Simulated time per drive slice: periodic maintenance keeps the event
#: queue non-empty forever, so the drive stops on a condition, checked
#: often enough that maintenance stops soon after the last response.
_SLICE = 1.0


def _serve_churn(workload: Workload, deployment: int, seed: int) -> _Served:
    """The churn preset's dynamics, from the public parts ``run_scenario`` uses.

    Driving them here separates set-up from the served run on the wall
    clock, and takes the drive's counters when the load is served,
    before the bounded recovery stabilization that follows.
    """
    spec = preset(
        workload.churn,
        n=workload.n,
        shards=workload.shards,
        rate=workload.rate,
        requests=workload.requests,
        **workload.build,
        **workload.service,
    )
    system = RngRegistry(deployment)
    inputs = RngRegistry(seed)
    start = time.perf_counter()
    sim = Simulator()
    networks = [
        ChordNetwork.build(
            spec.n,
            m=spec.chord_m,
            rng=random.Random(system.fresh(f"shard{i}.ring").getrandbits(64)),
            sim=sim,
        )
        for i in range(spec.shards)
    ]
    build_s = time.perf_counter() - start
    substrates = [net.dht() for net in networks]
    service = SamplingService(
        substrates,
        sim=sim,
        rngs=system,
        policy=spec.policy,
        dispatch=spec.dispatch,
        max_batch=spec.max_batch,
        max_wait=spec.max_wait,
        max_queue=spec.max_queue,
        max_retries=spec.max_retries,
        retry_backoff=spec.retry_backoff,
    )
    churns = [
        ChurnProcess(
            net,
            sim,
            rate=spec.churn_rate,
            rng=inputs,
            stream=f"shard{i}.churn",
            target_size=spec.n,
            min_size=spec.min_size,
            crash_fraction=spec.crash_fraction,
        )
        for i, net in enumerate(networks)
    ]
    load = build_load(service, rate=spec.rate, total=spec.requests, seed=seed)
    setup_s = time.perf_counter() - start
    ready = _counters(service, networks)
    population = [set(net.nodes) for net in networks]

    start = time.perf_counter()
    maintenance = [net.start_periodic_maintenance(spec.stabilize_interval) for net in networks]
    load.start()
    for churn in churns:
        churn.start()
    while not (load.done and service.pending == 0) and sim.now < spec.max_sim_time:
        sim.run_for(_SLICE)
    for churn in churns:
        churn.stop()
    for task in maintenance:
        task.cancel()
    sim.run()
    wall_s = time.perf_counter() - start
    counts = _delta(_counters(service, networks), ready)
    for churn in churns:
        for kind, value in churn.event_counts().items():
            counts[f"churn.{kind}"] = counts.get(f"churn.{kind}", 0) + value

    # With churn halted, bounded stabilization must restore every ring.
    recovered = []
    recovery_rounds = 0
    for net in networks:
        rounds = spec.recovery_rounds
        while rounds > 0 and not net.ring_is_correct():
            net.run_stabilization(min(5, rounds))
            recovery_rounds += min(5, rounds)
            rounds -= 5
        recovered.append(net.ring_is_correct())
    draws = [Counter() for _ in networks]
    for r in service.completed:
        draws[r.shard_id][r.peer.peer_id] += 1
    survivors = [_survivors(draws[i], population[i], net) for i, net in enumerate(networks)]
    counts["maint.recovery_rounds"] = recovery_rounds
    churn_state = {"recovered": recovered, "survivors": survivors}
    return _Served(service, substrates, networks, counts, setup_s, build_s, wall_s, churn_state)


def _reduce(workload: Workload, seed: int, served: _Served, recorder) -> DriveOutcome:
    service, networks = served.service, served.networks
    summary = service.summary()
    responses = service.responses
    completed = [r for r in responses if r.status is RequestStatus.OK]
    failures: list[str] = []
    offered = workload.requests
    if len(responses) != offered or (
        summary["completed"] + summary["failed"] + summary["rejected"] != offered
    ):
        failures.append(
            f"conservation: {summary['completed']} completed + {summary['failed']} failed "
            f"+ {summary['rejected']} rejected != {offered} offered"
        )
    counts = served.counts
    for key in ("completed", "failed", "rejected", "dispatch_failures"):
        counts[f"service.{key}"] = summary[key]
    rank_bins = survivors = None
    if served.churn is None:
        for index, dht in enumerate(served.substrates):
            members = _members(dht, networks, index)
            strays = sum(
                1 for r in completed if r.shard_id == index and r.peer.peer_id not in members
            )
            if strays:
                failures.append(f"membership: {strays} draws of shard {index} are not live peers")
        if workload.substrate == "ideal":
            rank_bins = _rank_bins(service, served.substrates)
    else:
        recovered = served.churn["recovered"]
        if not all(recovered):
            failures.append(f"churn: rings recovered after churn stopped: {recovered}")
        survivors = served.churn["survivors"]
    lam_n = [shard.dispatch.sampler.params.lam * workload.n for shard in service.shards]
    return DriveOutcome(
        seed=seed,
        setup_s=served.setup_s,
        build_s=served.build_s,
        wall_s=served.wall_s,
        offered=offered,
        completed=len(completed),
        failed=summary["failed"],
        rejected=summary["rejected"],
        latencies=[r.total_latency for r in completed],
        queue_waits=[r.queue_latency for r in completed],
        digest=_digest(responses),
        counts=counts,
        lam_n=lam_n,
        utilization=sum(r.service_latency / r.batch_size for r in completed)
        / (len(service.shards) * service.sim.now),
        failures=failures,
        rank_bins=rank_bins,
        survivors=survivors,
        recorder=recorder,
    )
