"""E5 -- latency and message scaling (Theorem 7).

Paper claim: one sample costs ``O(t_h + log n)`` latency and
``O(m_h + log n)`` messages in expectation.  We sweep ``n`` on the ideal
oracle (synthetic ``t_h = m_h = log2 n``) and on simulated Chord
(measured hop counts), reporting per-sample means.  Columns divided by
``log2 n`` must stay near-constant across a wide size range.

The paper's figures walk Figure 1 as published (``faithful_walk=True``);
the "with cutoff" column re-runs the same seeds with the default
doomed-walk cutoff, which samples the same peers but stops walks that
can only exhaust.
"""

from __future__ import annotations

import math
import random

from repro import ChordNetwork, IdealDHT, RandomPeerSampler
from repro.bench.harness import Table

IDEAL_SIZES = [256, 1024, 4096, 16384]
CHORD_SIZES = [64, 128, 256]
SAMPLES = 120


def _ideal_stats(n: int, faithful_walk: bool):
    dht = IdealDHT.random(n, random.Random(n))
    sampler = RandomPeerSampler(
        dht, n_hat=float(n), rng=random.Random(n + 1), faithful_walk=faithful_walk
    )
    return [sampler.sample_with_stats() for _ in range(SAMPLES)]


def _chord_messages(n: int, faithful_walk: bool) -> float:
    net = ChordNetwork.build(n, m=20, rng=random.Random(n))
    dht = net.dht()
    sampler = RandomPeerSampler(
        dht, n_hat=float(n), rng=random.Random(n + 1), faithful_walk=faithful_walk
    )
    stats = [sampler.sample_with_stats() for _ in range(40)]
    return sum(s.cost.messages for s in stats) / len(stats)


def ideal_rows():
    rows = []
    for n in IDEAL_SIZES:
        stats = _ideal_stats(n, faithful_walk=True)
        msgs = sum(s.cost.messages for s in stats) / SAMPLES
        latency = sum(s.cost.latency for s in stats) / SAMPLES
        trials = sum(s.trials for s in stats) / SAMPLES
        cut = sum(s.cost.messages for s in _ideal_stats(n, faithful_walk=False)) / SAMPLES
        rows.append((n, trials, msgs, latency, msgs / math.log2(n), cut))
    return rows


def chord_rows():
    rows = []
    for n in CHORD_SIZES:
        msgs = _chord_messages(n, faithful_walk=True)
        rows.append((n, msgs, msgs / math.log2(n), _chord_messages(n, faithful_walk=False)))
    return rows


def test_e5_ideal_scaling(benchmark, show):
    rows = ideal_rows()
    table = Table(
        "E5a: per-sample cost on the ideal DHT (t_h = m_h = log2 n)",
        [
            "n",
            "mean trials",
            "mean messages",
            "mean latency",
            "messages / log2 n",
            "messages with cutoff",
        ],
    )
    for row in rows:
        table.add_row(*row)
    table.note("paper (Thm 7): O(m_h + log n) messages; normalized column ~flat")
    table.note("with cutoff: same seeds, doomed walks stopped early (same peers)")
    show(table)

    normalized = [r[4] for r in rows]
    assert all(r[5] < r[2] for r in rows)
    # Across a 64x size sweep the normalized cost varies by < 2.5x while
    # raw n varies 64x: that is logarithmic scaling.
    assert max(normalized) / min(normalized) < 2.5

    dht = IdealDHT.random(4096, random.Random(3))
    sampler = RandomPeerSampler(dht, n_hat=4096.0, rng=random.Random(4), faithful_walk=True)
    benchmark(sampler.sample)


def test_e5_chord_scaling(benchmark, show):
    rows = chord_rows()
    table = Table(
        "E5b: per-sample cost on simulated Chord (measured hops)",
        ["n", "mean messages", "messages / log2 n", "messages with cutoff"],
    )
    for row in rows:
        table.add_row(*row)
    table.note("same O(log n) shape with Chord's real iterative lookups")
    table.note("with cutoff: same seeds, doomed walks stopped early (same peers)")
    show(table)
    normalized = [r[2] for r in rows]
    assert all(r[3] < r[1] for r in rows)
    assert max(normalized) / min(normalized) < 3.0

    net = ChordNetwork.build(128, m=20, rng=random.Random(8))
    dht = net.dht()
    sampler = RandomPeerSampler(dht, n_hat=128.0, rng=random.Random(9), faithful_walk=True)
    benchmark(sampler.sample)
