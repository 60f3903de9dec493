"""Genuinely concurrent Kademlia lookups for the async message-level transport.

The sync :meth:`KademliaNode.iterative_find_node` documents its own
simplification: the transport is synchronous, so ``alpha`` shapes the
candidate frontier but the probes of a round still run one after
another.  On :class:`~repro.sim.async_net.AsyncRpcTransport` that
simplification disappears: :class:`_ParallelFindNode` keeps ``alpha``
probes *in flight simultaneously*, folds each arrival into the
shortlist the moment its reply lands (out of order is fine -- replies
are independent scheduled events), immediately re-aims a freed slot at
the new best unqueried candidate, and cancels stragglers outright when
the frontier converges while they are still on the wire (their late
replies are dropped and counted by the transport).

With ``alpha == 1`` and no failures the probe sequence degenerates to
exactly the sync loop's -- the property the cross-transport equivalence
test pins.

:func:`find_successor_async` does not restate the aligned-block
certification: :meth:`KademliaNode.certify_successor` is its one
definition (truncated-census escalation, the small-network census
answer, the radius-0 case, the aligned-limit hop, the learned-owner
ping with exclude-and-reprobe), written as a generator that yields its
find-node probes and its owner ping.  :meth:`KademliaNode.find_successor`
drives it inline; the callback driver here runs each probe through
:class:`_ParallelFindNode` and the ping as an async call.  The probe
loop itself stays twofold, because alpha-concurrent probing with
straggler cancellation is a different algorithm from the sync round
loop, not a rescheduling of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...sim.async_net import Future
from .node import FindNodeProbe, LookupOutcome, _Shortlist, lookup_budget

if TYPE_CHECKING:
    from .node import KademliaNode

__all__ = ["find_node_async", "find_successor_async"]


class _ParallelFindNode:
    """One in-progress alpha-concurrent iterative lookup (see module doc)."""

    __slots__ = (
        "node", "ep", "target", "excluded", "thorough",
        "budget", "sl", "in_flight", "rpcs", "failures", "future",
    )

    def __init__(
        self,
        node: "KademliaNode",
        target_id: int,
        excluded: frozenset,
        max_rpcs: int | None,
        thorough: bool,
    ):
        self.node = node
        self.ep = node._transport
        self.target = target_id
        self.excluded = excluded
        self.thorough = thorough
        self.budget = (
            max_rpcs if max_rpcs is not None else lookup_budget(node.m, node.k)
        )
        self.sl = _Shortlist(target=target_id)
        #: contact id -> AsyncCall, the probes currently on the wire.
        self.in_flight: dict[int, Any] = {}
        self.rpcs = 0
        self.failures = 0
        self.future = Future()

    def start(self) -> Future:
        node = self.node
        self.sl.known.add(node.node_id)
        self.sl.queried.add(node.node_id)  # we answer for ourselves, free
        self.sl.add(
            i
            for i in node.closest_known(self.target, node.k)
            if i not in self.excluded
        )
        self._pump()
        self._maybe_finish()  # a contact-less node converges immediately
        return self.future

    def _pump(self) -> None:
        """Aim every free slot at the best uncovered frontier candidate."""
        node = self.node
        while len(self.in_flight) < node.alpha and self.rpcs < self.budget:
            pending = [
                c
                for c in node._pending(self.sl, self.thorough)
                if c not in self.in_flight
            ]
            if not pending:
                return
            contact = pending[0]
            self.rpcs += 1
            self.in_flight[contact] = self.ep.call(
                contact,
                "find_node",
                self.target,
                node.node_id,
                on_reply=lambda found, c=contact: self._on_reply(c, found),
                on_timeout=lambda _exc, c=contact: self._on_timeout(c),
            )

    def _on_reply(self, contact: int, found) -> None:
        del self.in_flight[contact]
        self.sl.queried.add(contact)
        self.node.observe(contact)
        self.sl.add(i for i in found if i not in self.excluded)
        self._pump()
        self._maybe_finish()

    def _on_timeout(self, contact: int) -> None:
        del self.in_flight[contact]
        self.failures += 1
        self.sl.failed.add(contact)
        self.node.forget(contact)
        self._pump()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.future.done:
            return
        pending = self.node._pending(self.sl, self.thorough)
        if pending:
            # Converging: either probes are out, or _pump can still aim
            # one (it just did).  Only a dead end -- budget gone, wire
            # empty, frontier unanswered -- falls through to finish.
            if self.in_flight or self.rpcs < self.budget:
                return
        elif self.in_flight:
            # Frontier fully answered while probes to since-displaced
            # candidates are still on the wire: stragglers, cancel them.
            for call in self.in_flight.values():
                call.cancel()
            self.in_flight.clear()
        node = self.node
        self.future.resolve(
            LookupOutcome(
                ids=tuple(self.sl.best(node.k)),
                queried=frozenset(self.sl.queried - self.sl.failed),
                rpcs=self.rpcs,
                failures=self.failures,
                complete=(self.failures == 0 and not pending),
            )
        )


def find_node_async(
    node: "KademliaNode",
    target_id: int,
    excluded: frozenset = frozenset(),
    max_rpcs: int | None = None,
    thorough: bool = False,
) -> Future:
    """Alpha-concurrent :meth:`KademliaNode.iterative_find_node`.

    Resolves to the same :class:`LookupOutcome` shape; like the sync
    path, failures never fail the future -- ``complete`` carries the
    verdict and the successor layer escalates.
    """
    return _ParallelFindNode(node, target_id, excluded, max_rpcs, thorough).start()


def find_successor_async(
    node: "KademliaNode", target_id: int, max_probes: int | None = None
) -> Future:
    """Aligned-block successor resolution on the event clock.

    The callback driver of :meth:`KademliaNode.certify_successor`: each
    find-node probe runs alpha-concurrent (:func:`find_node_async`), the
    learned-owner ping is an async call whose timeout is thrown back
    into the certification.  Resolves to :class:`SuccessorResult`;
    fails with :class:`KademliaLookupError_` exactly where the sync
    driver raises.
    """
    steps = node.certify_successor(target_id, max_probes)
    ep = node._transport
    future = Future()

    def advance(reply=None, error: BaseException | None = None) -> None:
        try:
            request = steps.send(reply) if error is None else steps.throw(error)
        except StopIteration as done:
            future.resolve(done.value)
            return
        except Exception as exc:  # noqa: BLE001 -- drive() re-raises it
            future.fail(exc)
            return
        if isinstance(request, FindNodeProbe):
            find_node_async(
                node, request.target_id, excluded=request.excluded
            ).add_done_callback(lambda probe: advance(probe.result, probe.error))
        else:
            ep.call(
                request.target_id,
                request.method,
                *request.args,
                on_reply=advance,
                on_timeout=lambda exc: advance(error=exc),
            )

    advance()
    return future
