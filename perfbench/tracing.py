"""In-memory span recording around the package's public entry points.

The traced run wraps public functions of each layer (a class attribute
or a module-level name) for the duration of one drive and restores them
afterwards; nothing under ``src/`` changes.  Each wrapped call is a
span: name, start, end and the span that caused it (its parent on a
single-threaded call stack).  Self time is a span's duration minus the
durations of its direct children, so the self times of every span under
one root add up to that root's duration.

Boundaries crossed millions of times per run (``RpcTransport.rpc_from``)
are only aggregated per ``(root, name, parent)`` -- count, inclusive
time, self time -- which bounds memory; boundaries marked ``keep`` are
also stored one record per call, for percentiles.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["Hook", "Instrumentation", "Span", "SpanRecorder"]


@dataclass(frozen=True, slots=True)
class Span:
    """One stored span (``keep`` boundaries only)."""

    name: str
    start: float
    end: float
    parent: str | None
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """A call-stack span recorder with per-(root, name, parent) aggregates.

    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        # frame: [name, parent name, root name, start, child time]
        self._stack: list[list] = []
        #: (root, name, parent) -> [count, inclusive seconds, self seconds]
        self.aggregates: dict[tuple[str, str, str | None], list] = {}
        self.spans: list[Span] = []
        #: Free-form counts observed at boundaries (trials, messages, ...).
        self.counts: dict[str, float] = {}

    def enter(self, name: str) -> None:
        stack = self._stack
        if stack:
            top = stack[-1]
            stack.append([name, top[0], top[2], self._clock(), 0.0])
        else:
            stack.append([name, None, name, self._clock(), 0.0])

    def exit(self, keep: bool = False) -> None:
        end = self._clock()
        name, parent, root, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        key = (root, name, parent)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if keep:
            self.spans.append(Span(name, start, end, parent, duration - child))

    def root(self, name: str) -> str:
        """The root a span named ``name`` entered now would belong to."""
        return self._stack[0][0] if self._stack else name

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- views ---------------------------------------------------------------

    def self_times(self, root: str) -> dict[str, float]:
        """Self seconds per span name, over spans under roots named ``root``."""
        out: dict[str, float] = {}
        for (r, name, _parent), (_n, _incl, self_t) in self.aggregates.items():
            if r == root:
                out[name] = out.get(name, 0.0) + self_t
        return out

    def calls(self, name: str, root: str | None = None) -> int:
        """Number of spans named ``name`` (under ``root`` if given)."""
        return sum(
            agg[0]
            for (r, n, _p), agg in self.aggregates.items()
            if n == name and (root is None or r == root)
        )

    def inclusive(self, names, root: str | None = None) -> float:
        """Inclusive seconds of spans named in ``names``.

        A span nested directly in another span of the same set is
        skipped, so re-entrant boundaries are not counted twice.
        (Deeper re-entry through an intermediate span is not expected at
        the boundaries this benchmark wraps.)
        """
        names = set(names)
        return sum(
            agg[1]
            for (r, n, p), agg in self.aggregates.items()
            if n in names and (root is None or r == root) and p not in names
        )


@dataclass(frozen=True)
class Hook:
    """One boundary to wrap: ``owner.attr`` becomes span ``name``.

    ``observe(recorder, args, kwargs, result)`` runs after a successful
    call, for boundary counts.  ``gauge(args)`` is read before and after
    the call and the change is counted under ``name@root``.  ``span=False``
    makes the wrapper count only (for cheap hot-path meters that need no
    timing).
    """

    owner: object
    attr: str
    name: str
    keep: bool = False
    observe: Callable | None = None
    gauge: Callable | None = None
    span: bool = True


class Instrumentation:
    """Context manager installing :class:`Hook` wrappers, restoring on exit.

    Every wrapped call is recorded in ``recorder``.
    """

    def __init__(self, hooks, recorder: SpanRecorder):
        self.hooks = list(hooks)
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for hook in self.hooks:
                raw = inspect.getattr_static(hook.owner, hook.attr)
                self._saved.append((hook.owner, hook.attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(hook, raw.__func__))
                else:
                    wrapped = self._wrap(hook, raw)
                setattr(hook.owner, hook.attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        rec = self.recorder
        name, keep, observe, gauge = hook.name, hook.keep, hook.observe, hook.gauge

        if not hook.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(rec, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if gauge is None:
                rec.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.exit(keep)
            else:
                key = f"{name}@{rec.root(name)}"
                before = gauge(args)
                rec.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.exit(keep)
                    rec.count(key, gauge(args) - before)
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        return traced
