"""First-class retry/backoff policy for the transport/DHT boundary.

A :class:`RetryPolicy` pins the whole retry discipline of one caller as
a frozen, JSON-able record: how many total attempts, how long to back
off after each failure (exponential with a cap), and how much seeded
jitter to spread synchronized retriers apart.  Every consumer -- the
DHT adapters' lookup retries, the service layer's shard workers, the
fault lab's message-level probes -- takes this one type, so "how often
and how long to wait" is configuration.  Each consumer keeps its own
retry loop, because what a retry repairs in between differs (a Chord
stabilization round, a Kademlia stale-contact sweep, an entry
failover); every loop asks the policy the same two questions:
:meth:`should_retry` and :meth:`delay`.

Determinism contract: :meth:`delay` consumes its RNG **only** when the
policy actually has jitter (``jitter > 0`` and a positive delay), so
jitter-free policies -- every default -- perturb no seeded stream, and
jittered ones draw from an explicitly passed stream.  Backoff time is
charged to the transport like any other cost (the caller waited), so
retries stay inside the Theorem 7 accounting and two runs of the same
seed produce bit-identical charges.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``attempts`` is the *total* number of tries (1 = no retries).  After
    failure ``f`` (1-based) the caller backs off
    ``min(base_delay * factor**(f-1), max_delay)`` time units, stretched
    by a uniform ``+/- jitter`` fraction when jitter is configured.
    """

    attempts: int = 3
    base_delay: float = 0.0
    factor: float = 2.0
    max_delay: float = 64.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # -- canned policies ---------------------------------------------------

    @classmethod
    def none(cls) -> "RetryPolicy":
        """One attempt, no retries, no backoff."""
        return cls(attempts=1, base_delay=0.0)

    @classmethod
    def fixed(cls, attempts: int, delay: float) -> "RetryPolicy":
        """Constant backoff: every retry waits exactly ``delay``."""
        return cls(attempts=attempts, base_delay=delay, factor=1.0)

    @classmethod
    def exponential(
        cls,
        attempts: int,
        base_delay: float,
        factor: float = 2.0,
        max_delay: float = 64.0,
        jitter: float = 0.0,
    ) -> "RetryPolicy":
        return cls(
            attempts=attempts,
            base_delay=base_delay,
            factor=factor,
            max_delay=max_delay,
            jitter=jitter,
        )

    # -- the discipline ----------------------------------------------------

    @property
    def retries(self) -> int:
        """Retries after the first attempt (``attempts - 1``)."""
        return self.attempts - 1

    def should_retry(self, failures: int) -> bool:
        """May another attempt follow after ``failures`` failures so far?"""
        return failures < self.attempts

    def delay(self, failure: int, rng: random.Random | None = None) -> float:
        """Backoff before the retry that follows failure ``failure`` (1-based).

        Consumes ``rng`` only when the policy has jitter *and* the
        undithered delay is positive -- jitter-free policies never
        perturb a seeded stream.  A jittered policy without an RNG is a
        caller bug (unseeded jitter would break replayability).
        """
        if failure < 1:
            raise ValueError("failure index is 1-based")
        d = min(self.base_delay * self.factor ** (failure - 1), self.max_delay)
        if self.jitter > 0.0 and d > 0.0:
            if rng is None:
                raise ValueError("a jittered policy needs a seeded rng")
            d *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return d

    def to_record(self) -> dict:
        return dataclasses.asdict(self)

