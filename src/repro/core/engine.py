"""Batch sampling engine: vectorized Choose-Random-Peer.

The scalar :class:`~repro.core.sampler.RandomPeerSampler` pays Python
method-call, dataclass-allocation and metering overhead *per trial*,
which dominates wall-clock long before the algorithm's own
O(1)-trials / O(log n)-latency guarantees do.  :class:`BatchSampler`
runs the identical algorithm over a whole vector of trials at once:

- all trial points are drawn up front and resolved to their ``h``
  successors in one pass over the substrate's flat point array
  (``numpy.searchsorted`` when available and worthwhile, else a
  pure-Python ``bisect`` loop);
- small-hit classification is a single vectorized comparison;
- the clockwise walks run in lockstep over raw floats and sorted
  indices -- no :class:`~repro.dht.api.PeerRef` or
  :class:`~repro.core.sampler.TrialResult` allocation inside the loop --
  with results materialized once at the end;
- failed trials are rejection-retried in batched rounds sized by the
  observed per-trial success rate;
- the cost meter is charged once per round via
  :meth:`~repro.dht.api.CostMeter.charge_bulk` with totals identical to
  what the per-call path would have accumulated.

Every float operation matches the scalar path's expression tree
exactly, so for the same trial points the engine and
:meth:`RandomPeerSampler.trial` produce *identical* outcomes (asserted
by the seeded equivalence tests).  On substrates that do not satisfy
:class:`~repro.dht.api.BulkDHT` (e.g. the live Chord simulator) the
engine degrades to the shared per-call trial helper, preserving
semantics at per-call speed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Sequence

from dataclasses import dataclass

from ..compat import load_numpy

from ..dht.api import (
    DHT,
    NUMPY_MIN_BATCH,
    BulkDHT,
    CostSnapshot,
    PeerRef,
    PeerUnreachableError,
)
from .errors import SamplingError
from .estimate import DEFAULT_C1, estimate_n
from .sampler import (
    GAMMA1,
    LAMBDA_SLACK,
    SamplerParams,
    TrialOutcome,
    TrialResult,
    _trial_from_first,
)

__all__ = ["BatchSampler", "BatchSampleResult"]

# Optional acceleration; the pure-Python path is always available and
# REPRO_PURE_PYTHON forces it (see repro.compat).
_np = load_numpy()

#: Largest double strictly below 1.0 -- the clamp value
#: :func:`~repro.core.intervals.clockwise_distance` uses to keep wrap
#: distances inside ``[0, 1)``.
_ONE_BELOW = math.nextafter(1.0, 0.0)

#: Cap on trial points drawn per rejection round (bounds peak memory).
_MAX_ROUND = 1 << 18

# Outcome codes used inside the classification kernels (cheap ints in
# the hot loop; mapped to TrialOutcome only at materialization time).
_SMALL, _WALK, _EXHAUSTED = 0, 1, 2


@dataclass(frozen=True, slots=True)
class BatchSampleResult:
    """One metered :meth:`BatchSampler.sample_many` execution.

    ``peers`` are the ``k`` successful draws *in draw order*, so a caller
    that coalesced ``k`` single-sample requests may attribute
    ``peers[j]`` to request ``j``: the draws are i.i.d. uniform, making
    any fixed assignment of results to requests exchangeable.  ``cost``
    is the substrate meter delta attributable to this call, which is
    what serving layers convert into simulated service time.
    """

    peers: tuple[PeerRef, ...]
    trials: int
    rounds: int
    cost: CostSnapshot


class BatchSampler:
    """Bulk uniform peer sampling over any :class:`~repro.dht.api.DHT`.

    Construction mirrors :class:`~repro.core.sampler.RandomPeerSampler`;
    alternatively pass a resolved ``params`` to share a scalar sampler's
    parameters (this is what :meth:`RandomPeerSampler.sample_many` does
    when delegating).  A passed ``params`` carries its own walk mode; a
    ``faithful_walk`` that contradicts it is rejected.
    """

    def __init__(
        self,
        dht: DHT,
        n_hat: float | None = None,
        *,
        params: SamplerParams | None = None,
        gamma1: float = GAMMA1,
        lambda_slack: float = LAMBDA_SLACK,
        c1: float = DEFAULT_C1,
        rng: random.Random | None = None,
        max_trials: int = 10_000,
        tracer=None,
        faithful_walk: bool | None = None,
    ):
        self._dht = dht
        self._rng = rng if rng is not None else random.Random()
        #: Optional span sink (:class:`repro.obs.tracer.Tracer`); the
        #: engine reports per-round trial/success/cost attribution while
        #: the tracer has an active batch context, and touches nothing
        #: (no snapshots, no allocation) when it does not.
        self._tracer = tracer
        self._gamma1 = gamma1
        self._lambda_slack = lambda_slack
        self._c1 = c1
        if params is None:
            if n_hat is None:
                n_hat = estimate_n(dht, c1=c1).n_hat
            params = SamplerParams.from_estimate(
                n_hat, gamma1=gamma1, lambda_slack=lambda_slack, faithful_walk=bool(faithful_walk)
            )
        elif faithful_walk is not None and faithful_walk != params.faithful_walk:
            raise ValueError(
                f"faithful_walk={faithful_walk!r} contradicts params.faithful_walk="
                f"{params.faithful_walk!r}"
            )
        self.params = params
        if max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        self._max_trials = max_trials
        self._bulk = isinstance(dht, BulkDHT)
        #: Trials lost to transient peer unreachability (routing holes,
        #: crashed walk hops) on the per-call fallback path.  Each such
        #: trial is treated exactly like an EXHAUSTED outcome -- retried
        #: with fresh randomness by the rejection loop -- so churn shows
        #: up as extra trials, never as a leaked substrate exception.
        self.stale_trials = 0
        #: Trials the doomed-walk cutoff ended before the walk budget
        #: (always 0 with ``params.faithful_walk``).
        self.cut_walks = 0

    @property
    def dht(self) -> DHT:
        """The substrate this engine samples over (read-only)."""
        return self._dht

    def warm(self) -> bool:
        """Pre-build the substrate's batch-routing caches, if it has any.

        Delegates to the substrate's ``warm_lockstep`` hook (the Chord
        adapter rebuilds its ring snapshot); a no-op returning False on
        substrates without one.  Serving shards call this right after a
        churn-recovery :meth:`refresh` so the next dispatch does not pay
        cache (re)construction on the request path.
        """
        warm = getattr(self._dht, "warm_lockstep", None)
        return bool(warm()) if warm is not None else False

    def refresh(self, n_hat: float | None = None) -> SamplerParams:
        """Re-derive parameters from a fresh size estimate (see
        :meth:`RandomPeerSampler.refresh <repro.core.sampler.RandomPeerSampler.refresh>`;
        serving shards call this when re-admitting after churn failures)."""
        if n_hat is None:
            n_hat = estimate_n(self._dht, c1=self._c1).n_hat
        self.params = SamplerParams.from_estimate(
            n_hat,
            gamma1=self._gamma1,
            lambda_slack=self._lambda_slack,
            faithful_walk=self.params.faithful_walk,
        )
        return self.params

    # -- vectorized classification kernels --------------------------------

    def _classify_charged(self, points: Sequence[float]):
        """Run Figure 1 on every point against the flat point array.

        Returns ``(codes, out_idx, hops)`` parallel sequences: the
        outcome code, the assigned peer's sorted index (``-1`` if none)
        and the walk length of each trial.  Charges the substrate's
        meter once for the whole batch.
        """
        pts = self._dht.points_array()
        use_numpy = _np is not None and len(points) >= NUMPY_MIN_BATCH
        kernel = _kernel_numpy if use_numpy else _kernel_python
        codes, out_idx, hops, total_hops, cut = kernel(pts, len(pts), self.params, points)
        self.cut_walks += cut
        hm, hl, nm, nl = self._dht.bulk_op_costs()
        k = len(points)
        self._dht.cost.charge_bulk(
            h_calls=k,
            next_calls=total_hops,
            messages=k * hm + total_hops * nm,
            latency=k * hl + total_hops * nl,
        )
        return codes, out_idx, hops

    # -- public API --------------------------------------------------------

    def trial_many(self, points: Sequence[float]) -> list[TrialResult]:
        """Run Figure 1 once per point (no retries), batch-classified.

        Result ``j`` equals ``RandomPeerSampler.trial(points[j])`` for a
        sampler sharing this engine's parameters -- same peer, same
        :class:`~repro.core.sampler.TrialOutcome`, same walk length.
        """
        points = list(points)
        if not self._bulk:
            return self._trials_fallback(points)
        codes, out_idx, hops = self._classify_charged(points)
        succ = self._dht.successor_of_index
        results = []
        for s, code, idx, h in zip(points, codes, out_idx, hops):
            if code == _SMALL:
                results.append(
                    TrialResult(s=s, outcome=TrialOutcome.SMALL_HIT, peer=succ(int(idx)), walk_hops=0)
                )
            elif code == _WALK:
                results.append(
                    TrialResult(s=s, outcome=TrialOutcome.WALK_HIT, peer=succ(int(idx)), walk_hops=int(h))
                )
            else:
                results.append(
                    TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=int(h))
                )
        return results

    def _trials_fallback(self, points: Sequence[float]) -> list[TrialResult]:
        """Batched-resolution path for substrates without a flat point array.

        The expensive half of each trial is resolving ``h(s)`` -- an
        O(log n) routed lookup on a live overlay.  Substrates that offer
        a failure-tolerant batched resolver (``resolve_many``; the Chord
        adapter's is backed by the lockstep snapshot engine) get the
        whole round's points in one call; the clockwise walks then run
        per trial through ``next`` as before.  Substrates without one
        resolve point by point, which is cost-identical to ``h_many`` on
        per-call substrates.

        Either way each trial runs under a
        :class:`~repro.dht.api.PeerUnreachableError` guard: on a live
        overlay a peer can crash mid-walk, and the correct response is to
        discard that trial (it consumed randomness, it produced nothing)
        and let the rejection loop redraw -- not to abort the whole
        batch.
        """
        dht = self._dht
        params = self.params
        resolve_many = getattr(dht, "resolve_many", None)
        firsts: list[PeerRef | None]
        if resolve_many is not None and len(points) > 1:
            firsts = resolve_many(points)
        else:
            firsts = []
            for s in points:
                try:
                    firsts.append(dht.h(s))
                except PeerUnreachableError:
                    firsts.append(None)
        results = []
        for s, first in zip(points, firsts):
            if first is None:
                self.stale_trials += 1
                results.append(
                    TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=0)
                )
                continue
            try:
                result = _trial_from_first(dht, params, s, first)
            except PeerUnreachableError:
                self.stale_trials += 1
                result = TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=0)
            else:
                if result.peer is None and result.walk_hops < params.walk_budget:
                    self.cut_walks += 1
            results.append(result)
        return results

    def _round_successes(self, points: list[float]) -> list[PeerRef]:
        """Successful trials of one round, as peers in draw order."""
        if not self._bulk:
            return [r.peer for r in self._trials_fallback(points) if r.peer is not None]
        codes, out_idx, _hops = self._classify_charged(points)
        succ = self._dht.successor_of_index
        return [succ(int(i)) for c, i in zip(codes, out_idx) if c != _EXHAUSTED]

    def sample_many(self, k: int) -> list[PeerRef]:
        """Draw ``k`` independent uniform samples (with replacement).

        Trials are drawn in rounds sized ``need / p`` where ``p`` is the
        success-rate estimate (seeded from ``n_hat * lambda``, then
        updated from observation), so the expected number of rounds is
        O(1).  The total trial budget is ``max_trials * k``; exceeding
        it raises :class:`~repro.core.errors.SamplingError`, mirroring
        the scalar sampler's per-sample cap.
        """
        return list(self.sample_many_attributed(k).peers)

    def sample_many_attributed(self, k: int) -> BatchSampleResult:
        """Like :meth:`sample_many`, plus per-call attribution metadata.

        Returns a :class:`BatchSampleResult` whose ``peers`` are the
        draws in order (result ``j`` belongs to coalesced request ``j``),
        ``trials``/``rounds`` count the rejection work performed, and
        ``cost`` is this call's substrate meter delta.  The serving layer
        (:mod:`repro.service`) uses this hook to stamp per-request
        latency without re-deriving batch internals.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        before = self._dht.cost.snapshot()
        out: list[PeerRef] = []
        budget = self._max_trials * k
        used = 0
        rounds = 0
        p_est = min(max(self.params.n_hat * self.params.lam, 1e-4), 1.0)
        rand = self._rng.random
        # Round spans are recorded only while a sampled batch is being
        # dispatched; the check is hoisted because the whole call runs
        # inside one dispatch (one batch context), so activity cannot
        # change mid-loop.
        tracer = self._tracer
        tracing = tracer is not None and tracer.active
        while len(out) < k:
            if used >= budget:
                raise SamplingError(
                    f"only {len(out)} of {k} samples after {used} trials "
                    f"(n_hat={self.params.n_hat:.3g}); the size estimate is likely stale"
                )
            need = k - len(out)
            round_size = min(
                budget - used,
                _MAX_ROUND,
                max(need, int(need / p_est * 1.15) + 8),
            )
            points = [1.0 - rand() for _ in range(round_size)]
            used += round_size
            rounds += 1
            if tracing:
                round_before = self._dht.cost.snapshot()
                cut_before = self.cut_walks
            successes = self._round_successes(points)
            if tracing:
                tracer.on_round(
                    rounds - 1,
                    round_size,
                    len(successes),
                    self._dht.cost.snapshot() - round_before,
                    cut=self.cut_walks - cut_before,
                )
            p_est = min(max((len(successes) + 1) / (round_size + 2), 1e-4), 1.0)
            out.extend(successes[:need])
        return BatchSampleResult(
            peers=tuple(out),
            trials=used,
            rounds=rounds,
            cost=self._dht.cost.snapshot() - before,
        )

    def sample_distinct(self, k: int, max_draws: int | None = None) -> list[PeerRef]:
        """Draw ``k`` *distinct* peers, uniform over k-subsets.

        Batched analogue of the scalar rejection loop: each round draws
        the outstanding deficit through :meth:`sample_many` and dedupes
        by ``peer_id`` in draw order, which is exactly sequential simple
        random sampling.  The ``max_draws`` contract (default
        ``50 k + 50`` successful draws before
        :class:`~repro.core.errors.SamplingError`) is unchanged.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        cap = max_draws if max_draws is not None else 50 * k + 50
        chosen: dict[int, PeerRef] = {}
        draws = 0
        while len(chosen) < k:
            if draws >= cap:
                raise SamplingError(
                    f"only {len(chosen)} distinct peers after {draws} draws; "
                    f"is k={k} larger than the network?"
                )
            round_size = min(cap - draws, k - len(chosen))
            batch = self.sample_many(round_size)
            draws += len(batch)
            for peer in batch:
                chosen.setdefault(peer.peer_id, peer)
        return list(chosen.values())


# -- classification kernels (module-level: no self lookups in hot loops) --


def _lap_hops(t: float, lam: float, cutoffs: tuple[float, ...]) -> int:
    """Walk length of a non-small trial on a one-peer ring.

    Every hop is a self-successor lap adding ``1 - lam > 0`` to T (the
    scalar path's ``step = 1.0``), so T never drops: the trial exhausts,
    after the full budget or when the cutoff fires.
    """
    hops = 0
    while hops < len(cutoffs) and t <= cutoffs[hops]:
        t += 1.0 - lam
        hops += 1
    return hops


def _kernel_numpy(pts, n, params, points):
    """Lockstep-vectorized Figure 1 over all trials at once.

    Every elementwise expression mirrors the scalar path's float
    arithmetic (same operand order, same wrap clamp), so outcomes are
    bit-identical to :meth:`RandomPeerSampler.trial`.  Trials leave the
    lockstep arrays as they hit or are cut, so a hop costs in proportion
    to the walks still running.
    """
    lam = params.lam
    budget = params.walk_budget
    cutoffs = params.cutoffs
    ss = _np.asarray(points, dtype=_np.float64)
    ok = (ss > 0.0) & (ss <= 1.0)  # negated form would let NaN slip through
    if not ok.all():
        bad = ss[~ok][0]
        raise ValueError(f"point {bad!r} is outside the unit circle (0, 1]")
    pts = _np.asarray(pts, dtype=_np.float64)
    idx = _np.searchsorted(pts, ss, side="left")
    idx[idx == n] = 0
    first = pts[idx]
    arc = _np.where(first >= ss, first - ss, (1.0 - ss) + first)
    _np.minimum(arc, _ONE_BELOW, out=arc)  # the wrap clamp of clockwise_distance
    small = arc < lam
    codes = _np.where(small, _SMALL, _EXHAUSTED).astype(_np.int8)
    out_idx = _np.where(small, idx, -1)
    hops = _np.zeros(ss.shape, dtype=_np.int64)
    live = _np.flatnonzero(~small)  # trial positions still walking
    t = arc[live] - lam
    if n == 1:
        taken = [_lap_hops(x, lam, cutoffs) for x in t.tolist()]
        hops[live] = taken
        return codes, out_idx, hops, int(hops.sum()), sum(h < budget for h in taken)
    cur_idx = idx[live]
    cur_pt = first[live]
    keep = t <= cutoffs[0]
    cut = live.size - int(_np.count_nonzero(keep))  # doomed before any hop
    for hop in range(1, budget + 1):
        if not keep.all():
            live, t, cur_idx, cur_pt = live[keep], t[keep], cur_idx[keep], cur_pt[keep]
        if live.size == 0:
            break
        nxt_idx = cur_idx + 1
        nxt_idx[nxt_idx == n] = 0
        nxt_pt = pts[nxt_idx]
        step = _np.where(nxt_pt >= cur_pt, nxt_pt - cur_pt, (1.0 - cur_pt) + nxt_pt)
        _np.minimum(step, _ONE_BELOW, out=step)
        t += step - lam
        cur_idx, cur_pt = nxt_idx, nxt_pt
        hit = t <= 0.0
        if hit.any():
            done = live[hit]
            out_idx[done] = cur_idx[hit]
            hops[done] = hop
            codes[done] = _WALK
        keep = ~hit
        if hop < budget:
            doomed = t > cutoffs[hop]
            if doomed.any():
                hops[live[doomed]] = hop
                cut += int(_np.count_nonzero(doomed))
                keep &= ~doomed
    else:
        hops[live[keep]] = budget  # leftovers exhausted their walk budget
    return codes, out_idx, hops, int(hops.sum()), cut


def _kernel_python(pts, n, params, points):
    """Pure-Python fast path: raw floats and indices, zero allocations
    per hop.  Identical arithmetic to the scalar trial."""
    lam = params.lam
    budget = params.walk_budget
    cutoffs = params.cutoffs
    codes: list[int] = []
    out_idx: list[int] = []
    hops_list: list[int] = []
    total_hops = 0
    cut = 0
    for s in points:
        if not 0.0 < s <= 1.0:
            raise ValueError(f"point {s!r} is outside the unit circle (0, 1]")
        i = bisect_left(pts, s)
        if i == n:
            i = 0
        cur = pts[i]
        arc = cur - s if cur >= s else (1.0 - s) + cur
        if arc >= 1.0:
            arc = _ONE_BELOW
        if arc < lam:
            codes.append(_SMALL)
            out_idx.append(i)
            hops_list.append(0)
            continue
        t = arc - lam
        code = _EXHAUSTED
        assigned = -1
        taken = 0
        if n == 1:
            taken = _lap_hops(t, lam, cutoffs)
        else:
            while taken < budget and t <= cutoffs[taken]:
                ni = i + 1
                if ni == n:
                    ni = 0
                npt = pts[ni]
                step = npt - cur if npt >= cur else (1.0 - cur) + npt
                if step >= 1.0:
                    step = _ONE_BELOW
                t += step - lam
                taken += 1
                if t <= 0.0:
                    code = _WALK
                    assigned = ni
                    break
                i = ni
                cur = npt
        if code == _EXHAUSTED and taken < budget:
            cut += 1
        codes.append(code)
        out_idx.append(assigned)
        hops_list.append(taken)
        total_hops += taken
    return codes, out_idx, hops_list, total_hops, cut
