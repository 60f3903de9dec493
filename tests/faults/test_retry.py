"""Tests for the first-class retry/backoff policy."""

from __future__ import annotations

import random

import pytest

from repro.faults.retry import RetryPolicy


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.attempts == 3
        assert policy.retries == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -1.0},
            {"max_delay": -0.5},
            {"factor": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_canned_policies(self):
        assert RetryPolicy.none().attempts == 1
        fixed = RetryPolicy.fixed(4, 0.25)
        assert (fixed.attempts, fixed.base_delay, fixed.factor) == (4, 0.25, 1.0)
        exp = RetryPolicy.exponential(5, 0.5, jitter=0.2)
        assert (exp.attempts, exp.factor, exp.jitter) == (5, 2.0, 0.2)

    def test_record_round_trip(self):
        policy = RetryPolicy(attempts=2, base_delay=0.5, jitter=0.1)
        assert RetryPolicy(**policy.to_record()) == policy


class TestDiscipline:
    def test_should_retry_is_attempt_budget(self):
        policy = RetryPolicy(attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(attempts=9, base_delay=1.0, factor=2.0, max_delay=5.0)
        assert [policy.delay(f) for f in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_flat_policy_matches_legacy_backoff(self):
        # The legacy service loop waited a constant retry_backoff; the
        # equivalent policy is factor=1 with that base delay.
        policy = RetryPolicy(attempts=4, base_delay=0.75, factor=1.0)
        assert [policy.delay(f) for f in (1, 2, 3)] == [0.75, 0.75, 0.75]

    def test_failure_index_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_jitter_free_policy_never_consumes_rng(self):
        rng = random.Random(1)
        before = rng.getstate()
        RetryPolicy(attempts=3, base_delay=1.0).delay(2, rng)
        assert rng.getstate() == before

    def test_zero_delay_never_consumes_rng_even_with_jitter(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert RetryPolicy(attempts=3, base_delay=0.0, jitter=0.5).delay(1, rng) == 0.0
        assert rng.getstate() == before

    def test_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(attempts=3, base_delay=2.0, factor=1.0, jitter=0.25)
        delays = [policy.delay(1, random.Random(s)) for s in range(50)]
        assert all(1.5 <= d <= 2.5 for d in delays)
        assert len(set(delays)) > 1  # jitter actually spreads
        again = [policy.delay(1, random.Random(s)) for s in range(50)]
        assert delays == again  # seeded, bit-identical

    def test_jittered_policy_demands_an_rng(self):
        with pytest.raises(ValueError, match="seeded rng"):
            RetryPolicy(attempts=2, base_delay=1.0, jitter=0.5).delay(1, None)

