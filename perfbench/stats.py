"""Order statistics and metric-name rules shared by the benchmark.

Timings are reported as medians and as the highest percentile that has
at least ten samples beyond it (a p95 therefore needs 200 samples), so a
tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "MIN_BEYOND",
    "check_metric_name",
    "percentile",
    "samples_beyond",
    "tail_percentile",
]

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    A name starts with a letter or digit and is at most 64 characters
    from ``[A-Za-z0-9_.-]``.
    """
    if not isinstance(name, str) or _NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= ``q`` of the mass."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q!r}")
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    return float(xs[max(1, math.ceil(q * len(xs))) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(values, q: float) -> float:
    """:func:`percentile`, refusing a tail with fewer than :data:`MIN_BEYOND` samples past it."""
    values = list(values)
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{100 * q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return percentile(values, q)
