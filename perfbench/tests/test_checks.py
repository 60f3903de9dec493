import dataclasses

import random

from checks import (
    SURVIVOR_CELLS,
    determinism_failures,
    rank_uniformity_failures,
    survivor_uniformity_failures,
)
from workloads import DriveOutcome


def _drive(seed=1, digest="abc", messages=10.0):
    return DriveOutcome(
        seed=seed, setup_s=0.1, build_s=0.05, wall_s=1.0, offered=3, completed=3,
        failed=0, rejected=0, latencies=[1.0, 2.0, 3.0], queue_waits=[0.0, 0.5, 1.0],
        digest=digest, counts={"meter.messages": messages}, lam_n=[1.0],
        utilization=0.5, failures=[],
    )


def test_replays_must_match_their_first_drive():
    a, b = _drive(), _drive(seed=2, messages=99.0)
    assert determinism_failures([a, b, _drive(), dataclasses.replace(b, wall_s=2.0)]) == []
    bad = determinism_failures([a, b, _drive(messages=11.0)])
    assert len(bad) == 1 and "meter.messages" in bad[0]
    assert determinism_failures([a, _drive(digest="abd")])


def test_rank_uniformity_accepts_flat_and_rejects_skew():
    n = 100_000  # not a multiple of 64: bins differ by one peer
    widths = [-(-(b + 1) * n // 64) - -(-b * n // 64) for b in range(64)]
    assert sum(widths) == n
    assert rank_uniformity_failures([w // 10 for w in widths], n) == []
    skewed = [w // 10 for w in widths]
    skewed[0] += 400
    assert rank_uniformity_failures(skewed, n)


def _survivors(rng, count, draws, weight=lambda rank, arc: 1.0):
    """(draws, arc) of ``count`` survivors under a sampler weighting each by ``weight``."""
    arcs = [1 + int(rng.expovariate(1 / 4000)) for _ in range(count)]  # random ring gaps
    weights = [weight(rank, arc) for rank, arc in enumerate(arcs)]
    counts = [0] * count
    for peer in rng.choices(range(count), weights, k=draws):
        counts[peer] += 1
    return list(zip(counts, arcs))


def _run(rng, weight):
    # The chord-churn shape: 12 streams, 2 shards, about 496 survivors per
    # ring and 24 draws of them per stream and shard, so each survivor is
    # drawn about once per run at most.  Shard 1's sampler is weighted by
    # ``weight``.
    return [
        [_survivors(rng, 490 + s, 24), _survivors(rng, 490 + s, 24, weight)]
        for s in range(12)
    ]


def test_survivor_uniformity_accepts_a_uniform_sampler():
    rng = random.Random(5)
    assert survivor_uniformity_failures(_run(rng, lambda rank, arc: 1.0)) == []


def test_survivor_uniformity_rejects_a_sampler_blind_to_half_the_ring():
    rng = random.Random(6)
    (failure,) = survivor_uniformity_failures(_run(rng, lambda rank, arc: float(rank < 245)))
    assert "shard 1" in failure and "ring position" in failure


def test_survivor_uniformity_rejects_arc_weighted_draws():
    """The naive sampler: the successor of a random point, weighted by arc."""
    rng = random.Random(7)
    (failure,) = survivor_uniformity_failures(_run(rng, lambda rank, arc: float(arc)))
    assert "shard 1" in failure and "owned arc" in failure


def test_survivor_uniformity_fails_when_untestable():
    few = [[[(1, 1)] * 100, [(1, 1)] * SURVIVOR_CELLS]]  # one expected draw per cell
    (failure,) = survivor_uniformity_failures(few)
    assert "shard 1" in failure and "fewer than" in failure
    assert survivor_uniformity_failures([[[(5, 1)] * 100, []]])
