"""Exactness of the Kademlia XOR top-k selections.

``KademliaNode.closest_known`` walks the k-buckets in XOR order from the
target instead of sorting the whole table, and ``_Shortlist.best`` sorts
``known - failed`` with a bound key.  Both must return exactly the list
``heapq.nsmallest`` over the same ids returns, in the same order, after
any sequence of table mutations -- the lookups' peers, messages and RNG
draws depend on it.  The bucket walk reads ``node.buckets`` while the
reference reads ``node._contact_set``, so the two must stay in step.
"""

from __future__ import annotations

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.kademlia import KademliaNetwork, bucket_index, bucket_range
from repro.dht.kademlia.node import _Shortlist

M = 10
IDS = st.integers(0, (1 << M) - 1)

_OPS = st.one_of(
    st.tuples(st.just("observe"), st.lists(IDS, min_size=1, max_size=40)),
    st.tuples(st.just("forget"), st.integers(0, 1 << 16)),
    st.tuples(st.just("forget_id"), IDS),
    st.tuples(
        st.just("load_bucket"),
        st.integers(0, M - 1),
        st.lists(st.integers(0, (1 << (M - 1)) - 1), max_size=24),
    ),
    st.tuples(st.just("purge_dead"), st.lists(st.integers(0, 1 << 16), max_size=8)),
)


def _apply(node, op) -> None:
    kind = op[0]
    contacts = sorted(node._contact_set)
    if kind == "observe":
        for contact in op[1]:
            node.observe(contact)
    elif kind == "forget":
        if contacts:
            node.forget(contacts[op[1] % len(contacts)])  # promotes from cache
    elif kind == "forget_id":
        node.forget(op[1])
    elif kind == "load_bucket":
        # Oracle wiring loads a bucket with ids from its own block only.
        i = op[1]
        base, end = bucket_range(node.node_id, i)
        members = list(dict.fromkeys(base + off % (end - base) for off in op[2]))
        node.load_bucket(i, members[: node.k])
    else:
        dead = {contacts[p % len(contacts)] for p in op[1]} if contacts else set()
        node.purge_dead(set(range(1 << M)) - dead)


def _check(node, targets) -> None:
    union = set().union(*node.buckets.values())
    assert node._contact_set == union
    for i, bucket in node.buckets.items():
        assert bucket and len(bucket) <= node.k
        assert all(bucket_index(node.node_id, c) == i for c in bucket)
    size = len(node._contact_set)
    for t in targets:
        for count in (0, 1, node.k, size + 1):
            expected = heapq.nsmallest(count, node._contact_set, key=t.__xor__)
            assert node.closest_known(t, count) == expected


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 3, 20]),
    node_id=IDS,
    ops=st.lists(st.tuples(_OPS, IDS, st.integers(0, 1 << 16)), max_size=30),
)
def test_closest_known_matches_nsmallest_under_any_mutations(k, node_id, ops):
    node = KademliaNetwork(m=M, k=k, rng=random.Random(0))._register(node_id)
    for op, target, pick in ops:
        _apply(node, op)
        contacts = sorted(node._contact_set)
        targets = [target, node_id]
        if contacts:
            targets.append(contacts[pick % len(contacts)])
        _check(node, targets)


@settings(max_examples=100, deadline=None)
@given(
    target=IDS,
    known=st.sets(IDS, max_size=60),
    failed_picks=st.lists(st.integers(0, 1 << 16), max_size=20),
    extra_failed=st.sets(IDS, max_size=5),
    count=st.sampled_from([0, 1, 3, 20, 100]),
)
def test_shortlist_best_matches_nsmallest(
    target, known, failed_picks, extra_failed, count
):
    ordered = sorted(known)
    failed = set(extra_failed)
    if ordered:
        failed.update(ordered[p % len(ordered)] for p in failed_picks)
    sl = _Shortlist(target=target, known=set(known), failed=failed)
    expected = heapq.nsmallest(
        count, (i for i in known if i not in failed), key=lambda i: target ^ i
    )
    assert sl.best(count) == expected
