"""E6 -- trial counts and the lambda-slack ablation (Theorem 7).

Paper claim: the number of rejection-sampling trials is geometric with
success probability ``n * lambda >= gamma1/(7 gamma2) = Omega(1)``, so
``E[trials] = O(1)`` (independent of ``n``).  Ablation (DESIGN.md): the
``7`` in ``lambda = 1/(7 n')`` trades per-trial success probability
against walk length and the exactness margin -- smaller slack means
fewer retries, but pushing it to ~1 breaks Theorem 6's supplementation
slack and uniformity with it.

Trials are counted on Figure 1 as published (``faithful_walk=True``).
The doomed-walk cutoff leaves them unchanged (it samples the same
peers); E6a's last column shows the messages per sample it saves.
"""

from __future__ import annotations

import random
import statistics

from repro import IdealDHT, RandomPeerSampler, compute_assignment
from repro.bench.harness import Table

SIZES = [256, 1024, 4096, 16384]
SLACKS = [2.0, 4.0, 7.0, 14.0]
SAMPLES = 150


def _run(n: int, faithful_walk: bool):
    dht = IdealDHT.random(n, random.Random(n))
    sampler = RandomPeerSampler(
        dht, n_hat=float(n), rng=random.Random(n + 5), faithful_walk=faithful_walk
    )
    return sampler, [sampler.sample_with_stats() for _ in range(SAMPLES)]


def trial_rows():
    rows = []
    for n in SIZES:
        sampler, stats = _run(n, faithful_walk=True)
        trials = [s.trials for s in stats]
        success = n * sampler.params.lam
        msgs = statistics.mean(s.cost.messages for s in stats)
        cut = statistics.mean(s.cost.messages for s in _run(n, faithful_walk=False)[1])
        rows.append(
            (n, success, 1.0 / success, statistics.mean(trials), max(trials), msgs, cut)
        )
    return rows


def slack_rows():
    n = 2048
    dht = IdealDHT.random(n, random.Random(42))
    rows = []
    for slack in SLACKS:
        sampler = RandomPeerSampler(
            dht, n_hat=float(n), lambda_slack=slack, rng=random.Random(43), faithful_walk=True
        )
        report = compute_assignment(
            dht.circle, sampler.params.lam, sampler.params.walk_budget
        )
        trials = [sampler.sample_with_stats().trials for _ in range(100)]
        rows.append(
            (
                slack,
                n * sampler.params.lam,
                statistics.mean(trials),
                report.max_abs_error,
                report.is_exactly_uniform(1e-12),
            )
        )
    return rows


def test_e6_trials_geometric(benchmark, show):
    rows = trial_rows()
    table = Table(
        "E6a: rejection trials are O(1), independent of n",
        [
            "n",
            "success prob n*lam",
            "1/(n*lam)",
            "mean trials",
            "max trials",
            "msgs/sample",
            "msgs/sample with cutoff",
        ],
    )
    for row in rows:
        table.add_row(*row)
    table.note("paper (Thm 7): E[trials] <= 1/(n lambda) = O(1)")
    table.note("with cutoff: same seeds, doomed walks stopped early (same peers)")
    show(table)
    for n, success, bound, mean_trials, _, msgs, cut in rows:
        assert mean_trials <= 1.5 * bound
        assert cut < msgs
    # Flat across n: largest and smallest mean within 2x.
    means = [r[3] for r in rows]
    assert max(means) / min(means) < 2.0

    dht = IdealDHT.random(1024, random.Random(6))
    sampler = RandomPeerSampler(dht, n_hat=1024.0, rng=random.Random(7), faithful_walk=True)
    benchmark(lambda: sampler.sample_with_stats().trials)


def test_e6_lambda_slack_ablation(benchmark, show):
    rows = slack_rows()
    table = Table(
        "E6b: ablation of the slack constant in lambda = 1/(slack * n')",
        ["slack", "success prob", "mean trials", "max assign error", "exactly uniform"],
    )
    for row in rows:
        table.add_row(*row)
    table.note("smaller slack = fewer retries; uniformity holds while slack > 1")
    show(table)
    # Fewer trials with smaller slack...
    assert rows[0][2] < rows[-1][2]
    # ...and the paper's operating point stays exactly uniform.
    assert all(uniform for *_, uniform in rows)

    n = 2048
    dht = IdealDHT.random(n, random.Random(44))
    sampler = RandomPeerSampler(dht, n_hat=float(n), lambda_slack=2.0,
                                rng=random.Random(45), faithful_walk=True)
    benchmark(sampler.sample)
