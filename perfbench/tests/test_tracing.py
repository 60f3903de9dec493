import random

import pytest

from repro.dht.api import PeerRef
from repro.dht.chord.network import ChordDHT, ChordNetwork
from repro.dht.chord.idspace import id_to_point
from repro.sim.network import RpcTimeout, RpcTransport

from tracing import Hook, Instrumentation, SpanRecorder


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeDHT:
    """``next`` falls back to ``h`` when the peer times out, like ChordDHT."""

    def __init__(self, clock, dead=()):
        self.clock = clock
        self.dead = set(dead)

    def h(self, x):
        self.clock.now += 5.0
        return x

    def next(self, peer):
        self.clock.now += 1.0
        try:
            if peer in self.dead:
                raise RpcTimeout(peer)
        except RpcTimeout:
            self.clock.now += 2.0  # the timeout itself, inside next
            return self.h(peer)
        return peer + 1


def _traced(clock, recorder):
    return Instrumentation(
        [Hook(FakeDHT, "h", "dht.h"), Hook(FakeDHT, "next", "dht.next")], recorder
    )


def test_self_time_subtracts_nested_h_on_timeout():
    clock = Clock()
    rec = SpanRecorder(clock)
    dht = FakeDHT(clock, dead={7})
    with _traced(clock, rec):
        rec.enter("drive")
        dht.next(3)  # 1.0, no re-entry
        dht.next(7)  # 1.0 + 2.0 self, then h: 5.0
        clock.now += 0.5
        rec.exit()
    agg = rec.aggregates  # (root, name, parent) -> [count, inclusive, self]
    assert agg[("drive", "dht.next", "drive")] == [2, 9.0, 4.0]
    assert agg[("drive", "dht.h", "dht.next")] == [1, 5.0, 5.0]
    assert agg[("drive", "drive", None)] == [1, 9.5, 0.5]
    # self times under one root add up to the root's duration
    assert sum(rec.self_times("drive").values()) == pytest.approx(9.5)
    assert rec.inclusive(["dht.next", "dht.h"], "drive") == 9.0


def test_aggregates_per_name_and_parent():
    clock = Clock()
    rec = SpanRecorder(clock)
    dht = FakeDHT(clock, dead={1})
    with _traced(clock, rec):
        for _ in range(3):
            dht.h(0)  # top-level: its own root
        rec.enter("drive")
        for peer in (0, 1, 1):
            dht.next(peer)
        dht.h(0)
        rec.exit()
    agg = rec.aggregates
    assert agg[("dht.h", "dht.h", None)] == [3, 15.0, 15.0]  # top level: own roots
    assert agg[("drive", "dht.h", "dht.next")] == [2, 10.0, 10.0]
    assert agg[("drive", "dht.h", "drive")] == [1, 5.0, 5.0]
    assert agg[("drive", "dht.next", "drive")][0] == 3
    assert rec.calls("dht.h") == 6
    assert rec.calls("dht.h", root="drive") == 3
    assert rec.spans == []  # nothing kept unless asked


def test_keep_stores_spans_and_restore_is_exact():
    clock = Clock()
    rec = SpanRecorder(clock)
    original_h = FakeDHT.__dict__["h"]
    with Instrumentation([Hook(FakeDHT, "h", "dht.h", keep=True)], rec):
        assert FakeDHT.__dict__["h"] is not original_h
        FakeDHT(clock).h(1)
    assert FakeDHT.__dict__["h"] is original_h
    (span,) = rec.spans
    assert (span.name, span.parent, span.duration, span.self_time) == ("dht.h", None, 5.0, 5.0)


def test_classmethods_stay_classmethods():
    calls = []
    with Instrumentation(
        [Hook(ChordNetwork, "build", "build", observe=lambda *a: calls.append(a[-1]))],
        SpanRecorder(),
    ):
        net = ChordNetwork.build(8, m=8, rng=random.Random(1))
    assert isinstance(net, ChordNetwork) and calls == [net]
    assert isinstance(ChordNetwork.__dict__["build"], classmethod)


def test_chord_next_reenters_h_when_the_peer_crashed():
    """The real adapter: next() on a crashed peer times out, then runs h()."""
    net = ChordNetwork.build(16, m=10, rng=random.Random(3))
    dht = ChordDHT(net)
    victim = sorted(net.nodes)[5]
    net.crash_node(victim)
    rec = SpanRecorder()
    hooks = [
        Hook(ChordDHT, "h", "dht.h"),
        Hook(ChordDHT, "next", "dht.next"),
        Hook(RpcTransport, "rpc_from", "transport.rpc"),
    ]
    with Instrumentation(hooks, rec):
        dht.next(PeerRef(peer_id=victim, point=id_to_point(victim, net.m)))
    agg = rec.aggregates
    assert agg[("dht.next", "dht.h", "dht.next")][0] == 1
    assert ("dht.next", "transport.rpc", "dht.next") in agg  # the timed-out get_successor
    _n, next_incl, next_self = agg[("dht.next", "dht.next", None)]
    children = sum(a[1] for (_r, _name, parent), a in agg.items() if parent == "dht.next")
    assert next_self == pytest.approx(next_incl - children)
    assert sum(rec.self_times("dht.next").values()) == pytest.approx(next_incl)
