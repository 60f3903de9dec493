"""Output checks: uniformity and replay determinism.

Conservation (completed + failed + rejected == offered), live
membership of every sampled peer and ring recovery after churn are
checked while a drive is reduced (:mod:`workloads`); the checks here
need more than one drive or a statistical floor.  Each returns a list
of failure messages, empty when the check passes.
"""

from __future__ import annotations

from scipy.stats import chisquare

__all__ = [
    "CHURN_ALPHA",
    "MIN_EXPECTED",
    "RANK_ALPHA",
    "SURVIVOR_CELLS",
    "determinism_failures",
    "rank_uniformity_failures",
    "survivor_uniformity_failures",
]

#: False-alarm rate of the ideal-static chi-square over 64 rank bins.
RANK_ALPHA = 1e-4

#: Family-wise false-alarm rate of the churn survivor-uniformity check,
#: split over shards (Bonferroni).
CHURN_ALPHA = 1e-3

#: Cells of consecutive survivors in the churn uniformity check, and the
#: fewest draws a cell must expect for the chi-square to hold.
SURVIVOR_CELLS = 16
MIN_EXPECTED = 5


def rank_uniformity_failures(bins: list[int], n: int) -> list[str]:
    """Chi-square of draws per 64 equal-count peer-rank bins of an n-peer ring.

    Bin ``b`` holds ranks ``r`` with ``r * 64 // n == b``; when 64 does
    not divide ``n`` bins differ by one peer, so the expectation is
    proportional to each bin's width.
    """
    k = len(bins)
    widths = [-(-(b + 1) * n // k) - -(-b * n // k) for b in range(k)]
    total = sum(bins)
    expected = [total * w / n for w in widths]
    p = float(chisquare(bins, expected).pvalue)
    if p < RANK_ALPHA:
        return [f"uniformity: chi-square over {k} rank bins p={p:.3g} < {RANK_ALPHA:g}"]
    return []


def survivor_uniformity_failures(streams: list[list[list[tuple[int, int]]]]) -> list[str]:
    """Chi-square of churn survivors' draws over equal-count cells.

    ``streams[s][i]`` holds, for stream ``s`` and shard ``i``, the
    ``(draws, arc)`` of each peer alive from the first to the last
    membership change, in id order; ``arc`` is the id-space interval the
    peer owns.  A sampler uniform over the live population at every
    instant draws each survivor with the same probability, so any cell
    of survivors draws in proportion to its size.  A run draws each
    survivor about once at most, too few to test peer by peer, so the
    survivors are cut into :data:`SURVIVOR_CELLS` equal-count cells in
    two orders: by ring position, which catches a sampler that misses a
    region of the ring, and by owned arc, which catches the bias of a
    sampler that favours peers with long arcs.  Cells are pooled over
    the run's streams, shard by shard, and each of the ``2 * shards``
    tests must pass at ``CHURN_ALPHA / (2 * shards)`` (Bonferroni).  A
    shard whose cells expect fewer than :data:`MIN_EXPECTED` draws is
    untestable and fails.
    """
    shards = len(streams[0])
    floor = CHURN_ALPHA / (2 * shards)
    failures = []
    for shard in range(shards):
        for order, key in (("ring position", None), ("owned arc", _by_arc)):
            observed = [0] * SURVIVOR_CELLS
            expected = [0.0] * SURVIVOR_CELLS
            for stream in streams:
                peers = stream[shard]
                draws = [d for d, _arc in (sorted(peers, key=key) if key else peers)]
                n, total = len(draws), sum(draws)
                for c in range(SURVIVOR_CELLS if n >= SURVIVOR_CELLS else 0):
                    lo, hi = c * n // SURVIVOR_CELLS, (c + 1) * n // SURVIVOR_CELLS
                    observed[c] += sum(draws[lo:hi])
                    expected[c] += total * (hi - lo) / n
            if min(expected) < MIN_EXPECTED:
                failures.append(
                    f"churn: shard {shard} survivor cells expect {min(expected):.3g} draws, "
                    f"fewer than {MIN_EXPECTED}"
                )
                break
            p = float(chisquare(observed, expected).pvalue)
            if p < floor:
                failures.append(
                    f"churn: shard {shard} survivor uniformity by {order} "
                    f"p={p:.3g} below {floor:g}"
                )
    return failures


def _by_arc(peer: tuple[int, int]) -> int:
    return peer[1]


def fingerprint(drive) -> tuple:
    """Everything a replay of the same seed must reproduce exactly."""
    return (
        drive.digest,
        drive.completed,
        drive.failed,
        drive.rejected,
        tuple(drive.latencies),
        tuple(sorted(drive.counts.items())),
    )


def determinism_failures(drives) -> list[str]:
    """Drives of one seed must agree on every deterministic output."""
    first: dict[int, tuple] = {}
    failures = []
    for index, drive in enumerate(drives):
        fp = fingerprint(drive)
        reference = first.setdefault(drive.seed, fp)
        if fp != reference:
            diff = sorted(
                k
                for k in set(dict(fp[5])) | set(dict(reference[5]))
                if dict(fp[5]).get(k) != dict(reference[5]).get(k)
            )
            failures.append(
                f"determinism: drive {index} (seed {drive.seed}) differs from its first "
                f"drive; digest {drive.digest} vs {reference[0]}, counters {diff[:6]}"
            )
    return failures
