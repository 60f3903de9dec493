"""Tests for the closed-form spacing/cost theory against simulation."""

from __future__ import annotations

import math
import random

import pytest

from repro import IdealDHT, RandomPeerSampler, SortedCircle
from repro.analysis.theory import (
    expected_max_arc,
    expected_messages_per_sample,
    expected_min_arc,
    expected_naive_bias,
    expected_trials,
    harmonic,
)
from repro.core.sampler import SamplerParams


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(4) == pytest.approx(25.0 / 12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            harmonic(0)

    def test_asymptotic_branch_continuous(self):
        """The exact sum and the expansion agree where they hand over."""
        exact = math.fsum(1.0 / k for k in range(1, 20_001))
        assert harmonic(20_000) == pytest.approx(exact, rel=1e-10)

    def test_grows_like_log(self):
        assert harmonic(100_000) == pytest.approx(math.log(100_000) + 0.5772, abs=0.01)


class TestSpacingMoments:
    """E[min]=1/n^2 and E[max]=H_n/n are *exact*; simulation must agree."""

    @pytest.mark.parametrize("n", [64, 256])
    def test_min_arc_mean_matches_exact_formula(self, n):
        rng = random.Random(n)
        rings = 400
        mean_min = (
            sum(min(SortedCircle.random(n, rng).arcs()) for _ in range(rings)) / rings
        )
        assert mean_min == pytest.approx(expected_min_arc(n), rel=0.2)

    @pytest.mark.parametrize("n", [64, 256])
    def test_max_arc_mean_matches_exact_formula(self, n):
        rng = random.Random(n + 1)
        rings = 400
        mean_max = (
            sum(max(SortedCircle.random(n, rng).arcs()) for _ in range(rings)) / rings
        )
        assert mean_max == pytest.approx(expected_max_arc(n), rel=0.1)

    def test_naive_bias_scale(self):
        assert expected_naive_bias(1000) == pytest.approx(1000 * harmonic(1000))

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_min_arc(0)
        with pytest.raises(ValueError):
            expected_max_arc(0)


class TestCostFormulas:
    def test_expected_trials_closed_form(self):
        params = SamplerParams.from_estimate(1000.0)
        # 1/(n * lam) with n = n_hat: 7 * n'/n = 7/gamma1.
        assert expected_trials(1000, params) == pytest.approx(7.0 / (2.0 / 7.0))

    def test_expected_trials_matches_simulation(self):
        n = 512
        dht = IdealDHT.random(n, random.Random(3))
        sampler = RandomPeerSampler(dht, n_hat=float(n), rng=random.Random(4))
        predicted = expected_trials(n, sampler.params)
        observed = sum(
            sampler.sample_with_stats().trials for _ in range(400)
        ) / 400
        assert observed == pytest.approx(predicted, rel=0.2)

    def test_expected_messages_upper_estimates_simulation(self):
        n = 512
        dht = IdealDHT.random(n, random.Random(5))
        sampler = RandomPeerSampler(
            dht, n_hat=float(n), rng=random.Random(6), faithful_walk=True
        )
        predicted = expected_messages_per_sample(n, sampler.params)
        observed = sum(
            sampler.sample_with_stats().cost.messages for _ in range(300)
        ) / 300
        assert observed <= 1.2 * predicted
        assert observed >= 0.2 * predicted  # same order, not wildly loose

    def test_validation(self):
        params = SamplerParams.from_estimate(10.0)
        with pytest.raises(ValueError):
            expected_trials(0, params)
