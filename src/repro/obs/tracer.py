"""Span collection with head sampling and a zero-overhead null default.

Two implementations share one surface:

- :class:`NullTracer` (the module-level :data:`NULL_TRACER`) is the
  default everywhere.  Every hook is a no-op; its ``enabled`` and
  ``active`` class attributes are ``False`` so instrumented code guards
  on one attribute read and the disabled cost of tracing is a branch --
  the bit-identical / <=2%-overhead guarantee ``bench_obs`` enforces.
- :class:`Tracer` records spans for head-sampled requests.  The
  sampling decision is made once, at request admission, by a
  :class:`SamplingPolicy`; a request that loses the coin never
  allocates anything again.

Layer contract
--------------

The service layer drives the request lifecycle
(:meth:`Tracer.begin_request` / :meth:`record_admission` /
:meth:`finish_requests`), the shard worker brackets each dispatch in a
batch context (:meth:`begin_batch` / :meth:`end_batch` /
:meth:`fail_batch`, plus :meth:`record_backoff` for retry cooldowns),
and the engine and transport only ever *append into the active batch
context* (:meth:`on_round`, :meth:`on_rpc`, :meth:`on_lookup`), guarded
by :attr:`active` -- true exactly while a sampled batch is dispatching.
The transport therefore needs no knowledge of requests or sampling, and
the sim layer keeps its no-upward-imports rule: ``RpcTransport`` ships
its own null sink and this class merely satisfies the same duck type.

Determinism: nothing here consumes an RNG.  ``all`` traces everything,
``1-in-k`` is a modular counter over admission order, and
``slowest:N`` keeps the N slowest completed requests by deterministic
comparison (duration, then trace id).  Traced and untraced runs of the
same seed are bit-identical in every output except the trace itself.
"""

from __future__ import annotations

from .spans import CLOCK_LATENCY, CLOCK_SIM, Span

__all__ = [
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "SamplingPolicy",
    "SampleAll",
    "SampleOneInK",
    "SlowestReservoir",
    "parse_policy",
]


class NullTracer:
    """The do-nothing tracer: every hook a no-op, every guard False."""

    enabled = False
    active = False

    # -- request lifecycle (service layer) --
    def begin_request(self, request_id: int, now: float) -> None:
        return None

    def record_admission(self, request_id, shard_id, admitted, now, **attrs) -> None:
        return None

    def finish_requests(self, responses, ctx=None) -> None:
        return None

    # -- batch lifecycle (shard worker) --
    def begin_batch(self, requests, shard_id, now):
        return None

    def end_batch(self, ctx, now, execution, service_time, overhead, routing) -> None:
        return None

    def fail_batch(self, ctx, now, error: str = "") -> None:
        return None

    def record_backoff(self, request_ids, start, cooldown, attempt) -> None:
        return None

    # -- in-dispatch hooks (engine / transport sink surface) --
    def on_round(self, index, trials, successes, cost=None, cut=None) -> None:
        return None

    def on_rpc(self, source, target, method, kind, start, end, outcome) -> None:
        return None

    def on_lookup(self, backend, hops, messages, latency, ok) -> None:
        return None

    # -- telemetry hub --
    def attach_registry(self, name, registry) -> None:
        return None


#: The shared default instance (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


# -- head-sampling policies ---------------------------------------------


class SamplingPolicy:
    """Decides, at admission, whether a request is traced.

    ``capacity`` bounds how many *finished* request traces are retained
    (None = unbounded); :class:`Tracer` applies it on completion with
    deterministic slowest-first retention.
    """

    capacity: int | None = None

    def admit(self, request_id: int) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class SampleAll(SamplingPolicy):
    """Trace every request (the debugging default for short runs)."""

    def admit(self, request_id: int) -> bool:
        return True

    def describe(self) -> str:
        return "all"


class SampleOneInK(SamplingPolicy):
    """Trace every k-th admitted request (modular counter, no RNG)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._seen = 0

    def admit(self, request_id: int) -> bool:
        chosen = self._seen % self.k == 0
        self._seen += 1
        return chosen

    def describe(self) -> str:
        return f"1-in-{self.k}"


class SlowestReservoir(SamplingPolicy):
    """Trace every request but retain only the N slowest finished ones.

    Recording cost is that of ``all``; *memory* is bounded: whenever
    more than ``capacity`` finished request traces are held, the
    fastest is evicted (ties broken by trace id, so retention is
    deterministic).  This is the policy for hunting tail latency: the
    p99 offenders are exactly what survives.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity

    def admit(self, request_id: int) -> bool:
        return True

    def describe(self) -> str:
        return f"slowest:{self.capacity}"


def parse_policy(text: str) -> SamplingPolicy:
    """Parse a policy spec: ``all``, ``1-in-<k>`` or ``slowest:<n>``."""
    text = text.strip().lower()
    if text == "all":
        return SampleAll()
    if text.startswith("1-in-"):
        return SampleOneInK(int(text[len("1-in-"):]))
    if text.startswith("slowest:"):
        return SlowestReservoir(int(text[len("slowest:"):]))
    raise ValueError(
        f"unknown sampling policy {text!r}; use 'all', '1-in-<k>' or 'slowest:<n>'"
    )


# -- trace storage ------------------------------------------------------


class _Trace:
    """One trace: a root span plus its children, with bookkeeping."""

    __slots__ = ("trace_id", "kind", "spans", "root", "request_id")

    def __init__(self, trace_id: int, kind: str, request_id: int | None = None):
        self.trace_id = trace_id
        self.kind = kind  # "request" | "batch"
        self.spans: list[Span] = []
        self.root: Span | None = None
        self.request_id = request_id


class _BatchCtx:
    """The active-dispatch context handed back by :meth:`Tracer.begin_batch`."""

    __slots__ = ("trace", "shard_id", "member_ids", "started")

    def __init__(self, trace: _Trace, shard_id: int, member_ids: list[int], started: float):
        self.trace = trace
        self.shard_id = shard_id
        self.member_ids = member_ids  # sampled request ids in this batch
        self.started = started

    @property
    def trace_id(self) -> int:
        return self.trace.trace_id


class Tracer:
    """Records spans for head-sampled requests (see module docstring)."""

    enabled = True

    def __init__(self, policy: SamplingPolicy | str = "all"):
        self.policy = parse_policy(policy) if isinstance(policy, str) else policy
        self._next_trace = 0
        self._next_span = 0
        #: Open request traces by trace id.
        self._open: dict[int, _Trace] = {}
        #: request_id -> open trace id (how workers find a request's trace).
        self._by_request: dict[int, int] = {}
        #: Finished request traces retained under the policy's capacity.
        self.finished: list[_Trace] = []
        #: Batch-dispatch traces (referenced by request service spans).
        self.batches: dict[int, _Trace] = {}
        #: The in-flight batch context; non-None makes :attr:`active` true.
        self._ctx: _BatchCtx | None = None
        #: Metric registries attached for exposition (name -> registry).
        self.registries: dict = {}
        #: Requests the policy declined (for sampling-rate accounting).
        self.unsampled = 0

    # -- internal helpers ------------------------------------------------

    def _new_trace(self, kind: str, request_id: int | None = None) -> _Trace:
        trace = _Trace(self._next_trace, kind, request_id)
        self._next_trace += 1
        return trace

    def _span(
        self,
        trace: _Trace,
        name: str,
        kind: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        clock: str = CLOCK_SIM,
        **attrs,
    ) -> Span:
        span = Span(
            span_id=self._next_span,
            trace_id=trace.trace_id,
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=start,
            end=end,
            clock=clock,
            attrs=attrs,
        )
        self._next_span += 1
        trace.spans.append(span)
        return span

    def trace_of(self, request_id: int) -> int | None:
        """The open trace id for a request, or None if unsampled/finished."""
        return self._by_request.get(request_id)

    # -- request lifecycle (service layer) -------------------------------

    def begin_request(self, request_id: int, now: float) -> int | None:
        """Head-sample one arriving request; returns its trace id or None."""
        if not self.policy.admit(request_id):
            self.unsampled += 1
            return None
        trace = self._new_trace("request", request_id)
        trace.root = self._span(
            trace, "request", "request", now, now, request_id=request_id
        )
        self._open[trace.trace_id] = trace
        self._by_request[request_id] = trace.trace_id
        return trace.trace_id

    def record_admission(
        self, request_id: int, shard_id: int, admitted: bool, now: float, **attrs
    ) -> None:
        trace = self._open_trace(request_id)
        if trace is None:
            return
        self._span(
            trace,
            "admission",
            "admission",
            now,
            now,
            parent_id=trace.root.span_id,
            shard=shard_id,
            admitted=admitted,
            **attrs,
        )
        if not admitted:
            self._finish(trace, now, "rejected", shard_id=shard_id)

    def _open_trace(self, request_id: int) -> _Trace | None:
        trace_id = self._by_request.get(request_id)
        return self._open.get(trace_id) if trace_id is not None else None

    def finish_requests(self, responses, ctx: _BatchCtx | None = None) -> None:
        """Close the traces of a completed (or failed) batch's requests.

        Each sampled request gets its ``queue.wait`` span (arrival to
        dispatch) and -- for served requests -- a ``service`` span
        (dispatch to completion) pointing at the shared batch trace.
        """
        batch_id = ctx.trace_id if ctx is not None else None
        for r in responses:
            trace = self._open_trace(r.request_id)
            if trace is None:
                continue
            root = trace.root
            arrival = r.completion_time - r.service_latency - r.queue_latency
            dispatched = arrival + r.queue_latency
            self._span(
                trace,
                "queue.wait",
                "queue",
                arrival,
                dispatched,
                parent_id=root.span_id,
                shard=r.shard_id,
            )
            status = r.status.name.lower()
            if status == "ok":
                self._span(
                    trace,
                    "service",
                    "service",
                    dispatched,
                    r.completion_time,
                    parent_id=root.span_id,
                    shard=r.shard_id,
                    batch=batch_id,
                    batch_size=r.batch_size,
                    peer=r.peer.peer_id if r.peer is not None else None,
                )
            self._finish(trace, r.completion_time, status, shard_id=r.shard_id)

    def _finish(self, trace: _Trace, now: float, status: str, **attrs) -> None:
        root = trace.root
        root.end = now
        root.attrs["status"] = status
        root.attrs.update(attrs)
        del self._open[trace.trace_id]
        del self._by_request[trace.request_id]
        self.finished.append(trace)
        cap = self.policy.capacity
        if cap is not None and len(self.finished) > cap:
            # Deterministic slowest-first retention: evict the fastest
            # finished trace (ties by trace id, oldest first).
            fastest = min(
                self.finished, key=lambda t: (t.root.duration, -t.trace_id)
            )
            self.finished.remove(fastest)

    # -- batch lifecycle (shard worker) ----------------------------------

    def begin_batch(self, requests, shard_id: int, now: float) -> _BatchCtx | None:
        """Open a batch context if any member request is sampled.

        While the context is open, :attr:`active` is true and the
        engine/transport hooks append into the batch trace.  A batch
        with no sampled members returns None: tracing then costs the
        per-hop guards nothing beyond the attribute read.
        """
        member_ids = [
            r.request_id for r in requests if r.request_id in self._by_request
        ]
        if not member_ids:
            return None
        trace = self._new_trace("batch")
        trace.root = self._span(
            trace,
            "batch.dispatch",
            "batch",
            now,
            now,
            shard=shard_id,
            size=len(requests),
            sampled=len(member_ids),
        )
        self.batches[trace.trace_id] = trace
        ctx = _BatchCtx(trace, shard_id, member_ids, now)
        self._ctx = ctx
        return ctx

    def end_batch(
        self,
        ctx: _BatchCtx,
        now: float,
        execution,
        service_time: float,
        overhead: float,
        routing: float,
    ) -> None:
        """Close a successful dispatch: decompose its service time.

        ``overhead + routing == service_time`` exactly (the
        :class:`~repro.service.dispatch.ServiceTimeModel` identity), so
        the two child spans partition the batch's sim-clock service
        window and the critical-path analyzer reconstructs request
        latency without residuals.
        """
        trace = ctx.trace
        root = trace.root
        root.end = now + service_time
        cost = execution.cost
        root.attrs.update(
            trials=execution.trials,
            dispatches=execution.dispatches,
            h_calls=cost.h_calls,
            next_calls=cost.next_calls,
            messages=cost.messages,
            latency=cost.latency,
            service_time=service_time,
        )
        self._span(
            trace,
            "dispatch.overhead",
            "overhead",
            now,
            now + overhead,
            parent_id=root.span_id,
        )
        self._span(
            trace,
            "routing",
            "routing",
            now + overhead,
            now + overhead + routing,
            parent_id=root.span_id,
            latency=cost.latency,
        )
        self._ctx = None

    def fail_batch(self, ctx: _BatchCtx, now: float, error: str = "") -> None:
        """Close a dispatch that died (DispatchError): keep its hop spans."""
        trace = ctx.trace
        trace.root.end = now
        trace.root.attrs["error"] = error or "dispatch-failed"
        self._ctx = None

    def record_backoff(
        self, request_ids, start: float, cooldown: float, attempt: int
    ) -> None:
        """A retry cooldown every queued request of the batch sits through."""
        for request_id in request_ids:
            trace = self._open_trace(request_id)
            if trace is None:
                continue
            self._span(
                trace,
                "retry.backoff",
                "backoff",
                start,
                start + cooldown,
                parent_id=trace.root.span_id,
                attempt=attempt,
            )

    # -- in-dispatch hooks (engine / transport sink surface) --------------

    @property
    def active(self) -> bool:
        """True exactly while a sampled batch is dispatching."""
        return self._ctx is not None

    def on_round(
        self, index: int, trials: int, successes: int, cost=None, cut: int | None = None
    ) -> None:
        """One engine rejection round (round 0 is the initial classify).

        ``cut`` counts the round's trials the doomed-walk cutoff ended
        before the walk budget.
        """
        ctx = self._ctx
        if ctx is None:
            return
        trace = ctx.trace
        attrs = {"trials": trials, "successes": successes}
        if cost is not None:
            attrs["messages"] = cost.messages
            attrs["latency"] = cost.latency
        if cut is not None:
            attrs["cut"] = cut
        start = ctx.started
        self._span(
            trace,
            f"round[{index}]",
            "round",
            start,
            start,
            parent_id=trace.root.span_id,
            index=index,
            **attrs,
        )

    def on_rpc(
        self,
        source: int | None,
        target: int,
        method: str,
        kind: str,
        start: float,
        end: float,
        outcome: str,
    ) -> None:
        """One transport delivery (latency clock; ``outcome`` attributes
        drops/timeouts/partitions from the fault surface)."""
        ctx = self._ctx
        if ctx is None:
            return
        trace = ctx.trace
        self._span(
            trace,
            f"rpc.{method}",
            "rpc",
            start,
            end,
            parent_id=trace.root.span_id,
            clock=CLOCK_LATENCY,
            source=source,
            target=target,
            method=method,
            rpc_kind=kind,
            outcome=outcome,
        )

    def on_lookup(
        self, backend: str, hops: int, messages: int, latency: float, ok: bool
    ) -> None:
        """One whole DHT lookup (h/successor resolution), hop-attributed.

        Recorded by the substrate adapters around each lookup -- live
        ones bracketing the transport's per-hop rpc spans, lockstep ones
        synthesized from the batch engine's
        :class:`~repro.dht.chord.batch.LookupTrace` replay (which never
        touches the transport).  ``hops`` counts routing RPCs.
        """
        ctx = self._ctx
        if ctx is None:
            return
        trace = ctx.trace
        self._span(
            trace,
            f"lookup.{backend}",
            "lookup",
            0.0,
            latency,
            parent_id=trace.root.span_id,
            clock=CLOCK_LATENCY,
            backend=backend,
            hops=hops,
            messages=messages,
            latency=latency,
            ok=ok,
        )

    # -- telemetry hub / views --------------------------------------------

    def attach_registry(self, name: str, registry) -> None:
        """Register a :class:`~repro.sim.metrics.MetricsRegistry` for
        exposition (the runner attaches the service's and every shard
        transport's)."""
        self.registries[name] = registry

    def traces(self) -> list[_Trace]:
        """All retained traces: finished requests, batches, then open ones."""
        return [*self.finished, *self.batches.values(), *self._open.values()]

    def spans(self) -> list[Span]:
        """Every retained span, grouped by trace."""
        return [span for trace in self.traces() for span in trace.spans]

    def batch_trace(self, trace_id: int) -> _Trace | None:
        return self.batches.get(trace_id)

    def summary(self) -> dict:
        """Counts for reports: traces kept, spans, sampling rate."""
        finished = len(self.finished)
        total = finished + self.unsampled + len(self._open)
        return {
            "policy": self.policy.describe(),
            "requests_seen": total,
            "requests_traced": finished,
            "requests_unsampled": self.unsampled,
            "batches": len(self.batches),
            "spans": len(self.spans()),
        }
