"""Collective communication operations over a simulated network.

These implement, at the transfer level, the communication patterns whose
closed-form time complexities live in :mod:`repro.core.communication`:

* :func:`linear_gather` — everyone sends to one sink (serialises there).
* :func:`tree_reduce` — binary combining tree, ``ceil(log2 n)`` rounds.
* :func:`binomial_broadcast` — the torrent-like pattern Spark uses: every
  node that already holds the payload serves one new node per round, so
  holders double each round.
* :func:`two_wave_aggregate` — Spark's ``treeAggregate`` with
  ``ceil(sqrt(n))`` first-wave groups (Figure 2 of the paper).
* :func:`ring_allreduce` — bandwidth-optimal MPI-style all-reduce.
* :func:`all_to_all_shuffle` — the Hadoop/Spark repartitioning pattern.

Each function takes node *ready times* (when the payload became available
on each node), issues every dependency round as one ``network.batch`` of
``(source, destination, bits, not_before, tag)`` tuples, and returns
completion times.  The functions only encode the schedules; the network
resolves contention within a batch.  The port
:class:`~repro.simulate.network.Network` serves a batch FIFO in request
order (transfers serialise per NIC port); the flow-level
:class:`~repro.net.flows.FlowNetwork` shares it max-min fairly.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.core.errors import SimulationError
from repro.simulate.network import Network


def _validate_nodes(nodes: Sequence[int]) -> list[int]:
    node_list = list(nodes)
    if not node_list:
        raise SimulationError("a collective needs at least one node")
    if len(set(node_list)) != len(node_list):
        raise SimulationError(f"duplicate nodes in collective: {node_list}")
    return node_list


def linear_gather(
    network: Network,
    ready: Mapping[int, float],
    sink: int,
    bits: float,
    tag: str = "gather",
) -> float:
    """All sources send their payload to ``sink``; returns the finish time.

    One batch, sources in ready-time order (earliest data first).  The
    sink's downlink is the bottleneck: the port network serialises the
    transfers there, the flow network splits it as sources come and go.
    """
    sources = _validate_nodes(list(ready))
    finish = max(ready[sink], 0.0) if sink in ready else 0.0
    requests = [
        (source, sink, bits, ready[source], tag)
        for source in sorted(sources, key=lambda node: (ready[node], node))
        if source != sink
    ]
    for outcome in network.batch(requests):
        finish = max(finish, outcome.end)
    return finish


def tree_reduce(
    network: Network,
    ready: Mapping[int, float],
    bits: float,
    tag: str = "tree-reduce",
) -> tuple[int, float]:
    """Binary combining tree; returns ``(root, finish_time)``.

    Pairs at distance 1, 2, 4, ... combine, one batch per distance; the
    partial aggregate always flows to the lower-indexed member, so the
    first node ends up with the result after ``ceil(log2 n)`` rounds.
    """
    nodes = sorted(_validate_nodes(list(ready)))
    current_ready = {node: ready[node] for node in nodes}
    distance = 1
    while distance < len(nodes):
        pairs = [
            (nodes[index + distance], nodes[index])
            for index in range(0, len(nodes) - distance, 2 * distance)
        ]
        outcomes = network.batch(
            [(sender, receiver, bits, current_ready[sender], tag) for sender, receiver in pairs]
        )
        for (_sender, receiver), outcome in zip(pairs, outcomes):
            current_ready[receiver] = max(current_ready[receiver], outcome.end)
        distance *= 2
    root = nodes[0]
    return root, current_ready[root]


def binomial_broadcast(
    network: Network,
    root: int,
    root_ready: float,
    targets: Sequence[int],
    bits: float,
    tag: str = "broadcast",
) -> dict[int, float]:
    """Torrent-like broadcast: holders double each round.

    Returns the time each target (and the root) holds the full payload.
    This is the store-and-forward binomial tree — the schedule Spark's
    TorrentBroadcast approximates — and completes in ``ceil(log2 n)``
    rounds for ``n`` total participants, one batch per round.
    """
    if root_ready < 0:
        raise SimulationError(f"root_ready must be non-negative, got {root_ready}")
    target_list = _validate_nodes(list(targets))
    if root in target_list:
        raise SimulationError(f"root {root} must not appear among broadcast targets")
    holds_at = {root: root_ready}
    waiting = list(target_list)
    while waiting:
        # One round: every current holder serves one waiting node.  Holders
        # with earlier payload availability are matched first.
        holders = sorted(holds_at, key=lambda node: (holds_at[node], node))
        pairs = []
        for holder in holders:
            if not waiting:
                break
            pairs.append((holder, waiting.pop(0)))
        outcomes = network.batch(
            [(holder, receiver, bits, holds_at[holder], tag) for holder, receiver in pairs]
        )
        for (_holder, receiver), outcome in zip(pairs, outcomes):
            holds_at[receiver] = outcome.end
    return holds_at


def two_wave_aggregate(
    network: Network,
    ready: Mapping[int, float],
    driver: int,
    bits: float,
    tag: str = "two-wave",
) -> float:
    """Spark ``treeAggregate`` with two waves; returns the driver finish time.

    Workers are split into ``ceil(sqrt(n))`` groups.  Wave 1 (one batch):
    members of each group send to the group leader (groups proceed in
    parallel, each leader's downlink is its own group's bottleneck).
    Wave 2 (a second batch): leaders send the partial aggregates to the
    driver, whose downlink is the bottleneck.  Matches the paper's
    ``2 * (64W/B) * ceil(sqrt(n))`` shape.
    """
    workers = sorted(_validate_nodes(list(ready)))
    if driver in workers:
        raise SimulationError(f"driver {driver} must not appear among the workers")
    group_count = max(1, math.ceil(math.sqrt(len(workers))))
    groups = [workers[start::group_count] for start in range(group_count)]
    groups = [group for group in groups if group]

    wave_one: list[tuple[int, int]] = []  # (member, leader) in batch order
    for group in groups:
        leader = group[0]
        for member in sorted(group[1:], key=lambda node: (ready[node], node)):
            wave_one.append((member, leader))
    outcomes = network.batch(
        [(member, leader, bits, ready[member], tag) for member, leader in wave_one]
    )
    leader_ready = {group[0]: ready[group[0]] for group in groups}
    for (_member, leader), outcome in zip(wave_one, outcomes):
        leader_ready[leader] = max(leader_ready[leader], outcome.end)

    driver_finish = 0.0
    leaders = sorted(leader_ready, key=lambda node: (leader_ready[node], node))
    outcomes = network.batch(
        [(leader, driver, bits, leader_ready[leader], tag) for leader in leaders]
    )
    for outcome in outcomes:
        driver_finish = max(driver_finish, outcome.end)
    return driver_finish


def ring_allreduce(
    network: Network,
    ready: Mapping[int, float],
    bits: float,
    tag: str = "ring",
) -> dict[int, float]:
    """Ring all-reduce: reduce-scatter then all-gather, chunked payloads.

    Each of the ``2 * (n - 1)`` rounds (one batch each) moves one
    ``bits / n`` chunk from every node to its ring successor; a node
    forwards a chunk only after it has received (and combined) it in the
    previous round.  Returns the time each node holds the fully reduced
    payload.
    """
    nodes = sorted(_validate_nodes(list(ready)))
    count = len(nodes)
    current_ready = {node: ready[node] for node in nodes}
    if count == 1:
        return current_ready
    chunk = bits / count
    for _round in range(2 * (count - 1)):
        outcomes = network.batch(
            [
                (node, nodes[(index + 1) % count], chunk, current_ready[node], tag)
                for index, node in enumerate(nodes)
            ]
        )
        ends = {
            nodes[(index + 1) % count]: outcome.end for index, outcome in enumerate(outcomes)
        }
        for node, end in ends.items():
            current_ready[node] = max(current_ready[node], end)
    return current_ready


def all_to_all_shuffle(
    network: Network,
    ready: Mapping[int, float],
    total_bits: float,
    tag: str = "shuffle",
) -> dict[int, float]:
    """Shuffle ``total_bits`` evenly across all nodes; returns finish times.

    Every ordered pair exchanges ``total_bits / n^2``.  Rounds are perfect
    matchings (node ``i`` sends to ``i + offset``), one batch each, so
    disjoint pairs proceed in parallel and each port is used once per
    round.
    """
    if total_bits < 0:
        raise SimulationError(f"total_bits must be non-negative, got {total_bits}")
    nodes = sorted(_validate_nodes(list(ready)))
    count = len(nodes)
    current_ready = {node: ready[node] for node in nodes}
    if count == 1:
        return current_ready
    pair_bits = total_bits / (count * count)
    finish = dict(current_ready)
    for offset in range(1, count):
        outcomes = network.batch(
            [
                (node, nodes[(index + offset) % count], pair_bits, current_ready[node], tag)
                for index, node in enumerate(nodes)
            ]
        )
        for index, outcome in enumerate(outcomes):
            receiver = nodes[(index + offset) % count]
            finish[receiver] = max(finish[receiver], outcome.end)
    return finish
