"""Shared identifier-space arithmetic for discrete-id substrates.

Every message-level DHT in this repo hashes peers onto ``m``-bit
identifiers; the paper's continuous model lives on the unit circle
``(0, 1]``.  Identifier ``j`` maps to the point ``j / 2**m``, with
``j == 0`` landing on ``1.0`` (the same location, since the circle
identifies 0 and 1).  The mapping is substrate-independent -- Chord
arranges the identifiers clockwise on a ring, Kademlia measures them
with the XOR metric -- so it lives here and each substrate layers its
own routing geometry on top (:mod:`repro.dht.chord.idspace`,
:mod:`repro.dht.kademlia.idspace`).
"""

from __future__ import annotations

import math
from bisect import bisect_left

__all__ = ["clockwise_successor", "id_to_point", "point_to_target_id"]


def id_to_point(node_id: int, m: int) -> float:
    """Location of identifier ``node_id`` on the unit circle ``(0, 1]``."""
    size = 1 << m
    if not 0 <= node_id < size:
        raise ValueError(f"id {node_id} outside [0, 2^{m})")
    return 1.0 if node_id == 0 else node_id / size


def point_to_target_id(x: float, m: int) -> int:
    """The identifier whose clockwise successor is ``h(x)``.

    A node at identifier ``j`` has point ``j / 2**m``; the clockwise-
    closest peer to ``x`` is the first node with ``j >= x * 2**m``,
    i.e. ``find_successor(ceil(x * 2**m) mod 2**m)`` in Chord terms.
    Kademlia's adapter resolves the same target through XOR-routed
    block probes (see :mod:`repro.dht.kademlia.network`).
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"point {x!r} outside the unit circle (0, 1]")
    size = 1 << m
    return math.ceil(x * size) % size


def clockwise_successor(sorted_ids, target: int) -> int:
    """The first id at or after ``target`` in ``sorted_ids``, wrapping.

    The oracle owner of ``target`` on a ring whose live members are
    ``sorted_ids`` (ascending, non-empty).
    """
    return sorted_ids[bisect_left(sorted_ids, target) % len(sorted_ids)]
