"""The doomed-walk cutoff changes walk lengths, never outcomes.

A walk hop subtracts at most ``lam`` from T, so a trial whose T exceeds
``lam`` times its remaining hops can only exhaust; the sampler ends it
early unless ``faithful_walk`` is set.  These tests hold the cut walk
to the paper-faithful reference :func:`~repro.core.assignment.trial_on_circle`
on random circles, on points placed at every slab boundary of the exact
assignment (where float rounding decides the outcome), and end to end
through the sampling service on every backend.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdealDHT, SortedCircle
from repro.core.adaptive import AdaptiveSampler
from repro.core.assignment import trial_on_circle
from repro.core.engine import BatchSampler
from repro.core.intervals import normalize
from repro.core.sampler import (
    RandomPeerSampler,
    SamplerParams,
    TrialOutcome,
    _trial_from_first,
)
from repro.dht.api import NUMPY_MIN_BATCH
from repro.obs.tracer import Tracer
from repro.service import SamplingService, build_load, build_substrates
from repro.service.request import SampleRequest
from repro.sim.rng import RngRegistry


def _params(lam: float, budget: int, faithful_walk: bool) -> SamplerParams:
    return SamplerParams(
        n_hat=1.0, n_prime=1.0, lam=lam, walk_budget=budget, faithful_walk=faithful_walk
    )


def _check_against_reference(circle: SortedCircle, lam: float, budget: int, points) -> list:
    """Assert cut == reference on every point; return the cut trials.

    The scalar cut trial must match ``trial_on_circle`` in outcome and
    peer and walk no further than the faithful trial; both engine
    kernels (the numpy lockstep on the whole batch when available, the
    pure-Python kernel point by point) must match the scalar cut trial
    exactly, walk length included.
    """
    dht = IdealDHT(circle)
    cut = _params(lam, budget, faithful_walk=False)
    faithful = _params(lam, budget, faithful_walk=True)
    engine = BatchSampler(dht, params=cut)
    padded = points * -(-NUMPY_MIN_BATCH // len(points))  # numpy-sized when available
    batch = engine.trial_many(padded)
    trials = []
    for s, from_batch in zip(points, batch):
        first = dht.h(s)
        trial = _trial_from_first(dht, cut, s, first)
        full = _trial_from_first(dht, faithful, s, first)
        outcome, idx = trial_on_circle(circle, cut, s)
        assert trial.outcome is outcome is full.outcome
        assert (trial.peer and trial.peer.peer_id) == idx
        assert trial.walk_hops <= full.walk_hops
        if outcome is not TrialOutcome.EXHAUSTED:
            assert trial.walk_hops == full.walk_hops
        assert from_batch == trial
        assert engine.trial_many([s]) == [trial]
        trials.append(trial)
    return trials


unit_points = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
# Repeated peer points make zero-length steps, where T falls by exactly
# lam per hop and the cutoff threshold is tightest.
ring_points = st.one_of(unit_points, st.sampled_from([0.25, 0.5, 1.0]))


class TestCutMatchesReference:
    @given(
        ring=st.lists(ring_points, min_size=1, max_size=40),
        lam=st.floats(min_value=1e-4, max_value=0.5),
        budget=st.integers(min_value=1, max_value=80),
        points=st.lists(unit_points, min_size=1, max_size=16),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_circles(self, ring, lam, budget, points):
        _check_against_reference(SortedCircle(ring), lam, budget, points)

    @staticmethod
    def _boundary_trials(circle: SortedCircle, params: SamplerParams) -> set:
        """Check points at every threshold ``theta_k`` of the exact assignment.

        ``A = d(s, l(p_i)) <= theta_k = (k + 1) lam - D_k`` decides
        whether the walk from the arc behind ``p_i`` stops by hop ``k``,
        so ``s = l(p_i) - theta_k`` and its neighbours one ulp either
        side are where rounding picks the outcome; the middle of each
        long arc adds trials the cutoff ends at once.  Returns the
        ``(outcome, walk_hops)`` pairs seen.
        """
        lam, budget = params.lam, params.walk_budget
        arcs = circle.arcs()
        n = len(circle)
        points = set()
        for i in range(n):
            if arcs[i] > lam:
                points.add(normalize(circle[i] - arcs[i] / 2))
            d_k = 0.0
            for k in range(1, budget + 1):
                d_k += arcs[(i + k) % n]
                theta = (k + 1) * lam - d_k
                if not lam <= theta < arcs[i]:
                    continue
                s = normalize(circle[i] - theta)
                for x in (math.nextafter(s, 0.0), s, math.nextafter(s, 2.0)):
                    if 0.0 < x <= 1.0:
                        points.add(x)
        trials = _check_against_reference(circle, lam, budget, sorted(points))
        hops = {(t.outcome, t.walk_hops) for t in trials}
        assert any(o is TrialOutcome.EXHAUSTED and h < budget for o, h in hops)
        assert any(o is TrialOutcome.WALK_HIT for o, _ in hops)
        return hops

    def test_slab_boundaries_random_ring(self):
        circle = SortedCircle.random(512, random.Random(7))
        self._boundary_trials(circle, SamplerParams.from_estimate(512.0))

    @pytest.mark.parametrize("n_hat", [2.0, 8.0, 16.0, 32.0])
    def test_slab_boundaries_stacked_ring(self, n_hat):
        """Duplicate peers stacked after one point make every step exactly
        0, so from ``theta_budget`` T falls by exactly ``fl(T - lam)`` per
        hop and stays within ulps of the cutoff threshold: the case the
        float margin exists for (without it, some of these estimates cut
        a walk that hits on its last hop)."""
        params = SamplerParams.from_estimate(n_hat)
        budget = params.walk_budget
        hops = self._boundary_trials(
            SortedCircle([0.9] + [0.5] * (budget + 2)), params
        )
        # Either side of theta_budget: a hit on the budget's last hop
        # and a miss the cutoff lets walk the whole budget.
        assert (TrialOutcome.WALK_HIT, budget) in hops
        assert (TrialOutcome.EXHAUSTED, budget) in hops


class TestWalkModeSurvivesRefresh:
    """Re-estimation must keep the walk mode, or churn would silently
    turn a faithful sampler into a cut one."""

    @staticmethod
    def _exhausted_hops(sampler, dht) -> list[int]:
        rng = random.Random(5)
        hops = []
        for _ in range(300):
            s = 1.0 - rng.random()
            trial = _trial_from_first(dht, sampler.params, s, dht.h(s))
            if trial.outcome is TrialOutcome.EXHAUSTED:
                hops.append(trial.walk_hops)
        return hops

    @pytest.mark.parametrize("kind", ["scalar", "batch", "adaptive"])
    def test_faithful_sampler_still_walks_full_budget(self, kind):
        dht = IdealDHT.random(128, random.Random(3))
        if kind == "scalar":
            sampler = RandomPeerSampler(dht, n_hat=128.0, faithful_walk=True)
            sampler.refresh(n_hat=300.0)
        elif kind == "batch":
            sampler = BatchSampler(dht, n_hat=128.0, faithful_walk=True)
            sampler.refresh(n_hat=300.0)
        else:
            adaptive = AdaptiveSampler(dht, rng=random.Random(4), faithful_walk=True)
            adaptive.refresh()
            assert adaptive.refreshes == 2
            sampler = adaptive._inner
        params = sampler.params
        assert params.faithful_walk
        hops = self._exhausted_hops(sampler, dht)
        assert hops and all(h == params.walk_budget for h in hops)

    def test_cut_sampler_stays_cut(self):
        dht = IdealDHT.random(128, random.Random(3))
        sampler = RandomPeerSampler(dht, n_hat=128.0)
        sampler.refresh(n_hat=300.0)
        assert not sampler.params.faithful_walk
        hops = self._exhausted_hops(sampler, dht)
        assert min(hops) < sampler.params.walk_budget


class TestCutAccounting:
    def test_cut_walks_counted_and_traced(self):
        dht = IdealDHT.random(256, random.Random(11))
        tracer = Tracer("all")
        engine = BatchSampler(dht, n_hat=256.0, rng=random.Random(12), tracer=tracer)
        tracer.begin_request(0, 0.0)
        ctx = tracer.begin_batch([SampleRequest(request_id=0, arrival_time=0.0)], 0, 0.0)
        result = engine.sample_many_attributed(8)
        assert engine.cut_walks > 0
        rounds = [sp for sp in tracer.batches[ctx.trace_id].spans if sp.kind == "round"]
        assert len(rounds) == result.rounds
        assert sum(sp.attrs["cut"] for sp in rounds) == engine.cut_walks

    def test_faithful_engine_cuts_nothing(self):
        dht = IdealDHT.random(256, random.Random(11))
        engine = BatchSampler(dht, n_hat=256.0, rng=random.Random(12), faithful_walk=True)
        engine.sample_many(8)
        assert engine.cut_walks == 0

    def test_engine_rejects_walk_mode_contradicting_params(self):
        dht = IdealDHT.random(64, random.Random(1))
        params = SamplerParams.from_estimate(64.0)
        with pytest.raises(ValueError, match="faithful_walk"):
            BatchSampler(dht, params=params, faithful_walk=True)
        faithful = SamplerParams.from_estimate(64.0, faithful_walk=True)
        assert BatchSampler(dht, params=faithful, faithful_walk=True).params is faithful
        assert BatchSampler(dht, params=faithful).params is faithful


def _serve(substrate: str, n: int, faithful_walk: bool):
    """A same-seed service run whose batches all flush on size.

    Round-robin routing, a request count that fills every batch and an
    age bound no batch reaches make batch composition independent of
    service time, so the trial points each request sees are too.
    """
    rngs = RngRegistry(3)
    subs = build_substrates(n, 2, substrate=substrate, rngs=rngs, chord_m=16)
    service = SamplingService(
        subs,
        rngs=rngs,
        policy="round-robin",
        max_batch=8,
        max_wait=1e6,
        faithful_walk=faithful_walk,
    )
    build_load(service, rate=0.5, total=32, seed=3).start()
    service.run()
    pairs = sorted((r.request_id, r.peer.peer_id) for r in service.completed)
    return pairs, sum(d.cost.messages for d in subs)


@pytest.mark.parametrize(("substrate", "n"), [("ideal", 500), ("chord", 64), ("kademlia", 64)])
def test_service_serves_same_peers_with_fewer_messages(substrate, n):
    cut_pairs, cut_messages = _serve(substrate, n, faithful_walk=False)
    full_pairs, full_messages = _serve(substrate, n, faithful_walk=True)
    assert len(cut_pairs) == 32
    assert cut_pairs == full_pairs
    assert cut_messages < full_messages

