"""Progressive-filling max-min fair-share flow solver.

The endpoint :class:`~repro.simulate.network.Network` serialises
transfers on NIC ports.  On a link *graph*, concurrent flows instead
*share* the links they traverse; the classic steady-state abstraction is
max-min fairness: rates are raised together until some link saturates,
flows through that bottleneck freeze at their fair share, and the
remaining flows keep filling the residual capacity (progressive
filling).  :func:`solve_flows` runs that allocation inside a
discrete-event loop — rates re-solve whenever a flow arrives, a flow
finishes, or a capacity reservation changes — so each flow ends up with
a piecewise-constant rate profile and an exact completion time.

Two modelling choices keep the solver composable with a BSP engine that
issues transfers round by round:

* **Finalised allocations.**  Once a batch of flows is solved, its rate
  profiles are committed to a :class:`ReservationLedger` as reserved
  capacity.  Later batches share only the *residual* — they can never
  retroactively slow a flow whose completion time has already been
  returned.  Within a batch, sharing is true max-min; across batches it
  is FIFO priority, which is exactly how the endpoint network resolves
  cross-phase port conflicts (earlier requests occupy the port first).
* **Latency once per flow.**  A flow's delivery time is its transmission
  finish plus the route's propagation delay — the payload pipelines
  through the path rather than paying store-and-forward latency per
  transfer as the serialised model does.

An optional analytic TCP cap (the csa00 / Mathis et al. square-root
model, ``rate <= MSS / (RTT * sqrt(2p/3))``) bounds each flow's rate by
what a loss rate ``p`` lets a TCP connection sustain over the route's
round-trip time.

Each event costs work in its active flows and their links only: the
solver keeps per-link counts of active flows as flows arrive and
finish, and reuses a link's residual capacity for as long as its
:meth:`ReservationLedger.window` holds.  It still performs the same
floating-point operations in the same order as a loop that rescans
everything at every event (``tests/flows_reference.py``), so payloads
stay byte-identical; see ``docs/network.md``.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.errors import SimulationError
from repro.simulate.network import TransferOutcome

#: Relative tolerance for "this flow's remaining bits are done" and for
#: bottleneck-share comparisons.  Purely a float-noise guard; all the
#: determinism comes from the fixed iteration orders below.
_REL_EPS = 1e-12


class _FlowFields(NamedTuple):
    route: tuple[int, ...]
    bits: float
    not_before: float
    latency_s: float
    rate_cap_bps: float
    tag: str


class Flow(_FlowFields):
    """One transfer request routed over the topology graph.

    ``route`` is a tuple of link indices; an empty route is a loop-back
    (or off-graph) flow that only its ``rate_cap_bps`` constrains.
    ``latency_s`` is the route's total propagation delay, added once to
    the transmission finish.
    """

    # A validated tuple: one Flow is built per transfer on the solver's
    # hot path, where a frozen dataclass's field-by-field __init__ cost
    # about four times as much.
    __slots__ = ()

    def __new__(
        cls,
        route: tuple[int, ...],
        bits: float,
        not_before: float = 0.0,
        latency_s: float = 0.0,
        rate_cap_bps: float = math.inf,
        tag: str = "",
    ) -> Flow:
        if bits < 0:
            raise SimulationError(f"bits must be non-negative, got {bits}")
        if not_before < 0:
            raise SimulationError(f"not_before must be non-negative, got {not_before}")
        if latency_s < 0:
            raise SimulationError(f"latency_s must be non-negative, got {latency_s}")
        if not rate_cap_bps > 0:
            raise SimulationError(f"rate_cap_bps must be positive, got {rate_cap_bps}")
        return super().__new__(cls, route, bits, not_before, latency_s, rate_cap_bps, tag)


class RateSegment(NamedTuple):
    """A constant-rate stretch of a flow's transmission."""

    start: float
    end: float
    rate_bps: float


class FlowAllocation(NamedTuple):
    """What the solver assigned to one flow."""

    flow: Flow
    start: float  # first instant the flow transmits at a positive rate
    end: float  # delivery time: transmission finish + route latency
    segments: tuple[RateSegment, ...]

    @property
    def outcome(self) -> TransferOutcome:
        return TransferOutcome(start=self.start, end=self.end)


class ReservationLedger:
    """Time-indexed reserved capacity per link.

    Committed batches appear here as ``(start, end, rate)`` segments;
    :func:`solve_flows` subtracts the overlapping reservations from link
    capacity at each event time and treats segment boundaries as solver
    events (capacity steps).
    """

    def __init__(self) -> None:
        self._segments: dict[int, list[RateSegment]] = {}

    def reserve(self, link: int, segment: RateSegment) -> None:
        if segment.end <= segment.start or segment.rate_bps <= 0:
            return
        self._segments.setdefault(link, []).append(segment)

    def commit(self, allocation: FlowAllocation) -> None:
        """Reserve a solved allocation's rate profile on every link of its route.

        Solver segments always have positive length and rate (the ones
        :meth:`reserve` would drop), so each link's list grows with one
        ``extend`` in the order per-segment ``reserve`` calls would give
        it: insertion order is what :meth:`window` sums in.
        """
        if allocation.segments:
            for link in allocation.flow.route:
                self._segments.setdefault(link, []).extend(allocation.segments)

    def window(self, link: int, time: float) -> tuple[float, float, float]:
        """``(reserved, since, until)`` for ``link`` at ``time``.

        ``reserved`` is the total rate of the segments covering ``time``,
        summed in insertion order; the same segments — hence the same
        sum, bit for bit — cover every instant of ``[since, until)``.
        ``until`` is the first reservation boundary after ``time``
        (``inf`` if there is none).
        """
        reserved = 0.0
        since = -math.inf
        until = math.inf
        for start, end, rate in self._segments.get(link, ()):
            if start > time:
                if start < until:
                    until = start
            elif time < end:
                reserved += rate
                if start > since:
                    since = start
                if end < until:
                    until = end
            elif end > since:
                since = end
        return reserved, since, until

    def prune(self, time: float) -> None:
        """Drop segments that end at or before ``time`` (past barriers)."""
        for link in list(self._segments):
            kept = [s for s in self._segments[link] if s.end > time]
            if kept:
                self._segments[link] = kept
            else:
                del self._segments[link]


def _water_fill(
    unfrozen: list[int],
    routes,
    caps,
    capacity: dict[int, float],
    crossing: dict[int, int],
    rates,
) -> None:
    """Progressive filling: write the max-min rate of every flow in ``unfrozen``.

    ``unfrozen`` lists flow ids in ascending order, ``routes[f]`` and
    ``caps[f]`` give a flow's links and rate cap, ``capacity`` maps every
    link of those routes to its residual (>= 0) and ``crossing`` to the
    number of ``unfrozen`` flows that cross it.  Neither dict is
    modified.  Frozen flows debit their links in flow-id order, so every
    residual sees the same float operations in the same order on every
    call.
    """
    owned = False
    while unfrozen:
        shares = {link: capacity[link] / flows for link, flows in crossing.items()}
        share = min(shares.values(), default=math.inf)
        cap_floor = min([caps[flow] for flow in unfrozen])
        rate = share if share <= cap_floor else cap_floor
        if not math.isfinite(rate):
            # Only cap-free, link-free flows remain: unbounded rate.
            for flow in unfrozen:
                rates[flow] = math.inf
            return
        threshold = rate * (1.0 + _REL_EPS)
        bottlenecks = {link for link, value in shares.items() if value <= threshold}
        frozen = [
            flow
            for flow in unfrozen
            if caps[flow] <= threshold or not bottlenecks.isdisjoint(routes[flow])
        ]
        if not frozen or len(frozen) == len(unfrozen):
            # Last level (or, on float noise, a level that freezes
            # nothing): every flow left gets the level's rate.
            for flow in unfrozen:
                cap = caps[flow]
                rates[flow] = cap if cap < rate else rate
            return
        if not owned:
            capacity, crossing, owned = dict(capacity), dict(crossing), True
        for flow in frozen:
            cap = caps[flow]
            flow_rate = rates[flow] = cap if cap < rate else rate
            for link in routes[flow]:
                left = capacity[link] - flow_rate
                capacity[link] = left if left > 0.0 else 0.0
                flows = crossing[link] - 1
                if flows:
                    crossing[link] = flows
                else:
                    del crossing[link]
        frozen_set = set(frozen)
        unfrozen = [flow for flow in unfrozen if flow not in frozen_set]


def max_min_rates(
    routes: Mapping[int, tuple[int, ...]],
    caps: Mapping[int, float],
    residual: Mapping[int, float],
) -> dict[int, float]:
    """One water-filling pass: instantaneous max-min rates.

    ``routes`` maps flow id -> link indices, ``caps`` flow id -> per-flow
    rate cap (may be ``inf``), ``residual`` link -> available capacity.
    Rates satisfy: no link carries more than its residual, no flow
    exceeds its cap, and no flow's rate can grow without shrinking an
    equal-or-slower flow (the max-min property).
    """
    crossing: dict[int, int] = {}
    for route in routes.values():
        for link in route:
            crossing[link] = crossing.get(link, 0) + 1
    capacity = {link: max(0.0, residual.get(link, 0.0)) for link in crossing}
    rates: dict[int, float] = {}
    _water_fill(sorted(routes), routes, caps, capacity, crossing, rates)
    return rates


def solve_flows(
    flows: Sequence[Flow],
    capacity: Mapping[int, float],
    ledger: ReservationLedger | None = None,
) -> list[FlowAllocation]:
    """Allocate rates to ``flows`` over links of ``capacity``.

    Runs progressive filling inside an event loop: at every event time
    (flow arrival, flow finish, reservation boundary) the instantaneous
    max-min rates of the active flows are re-solved against the residual
    capacity ``capacity - ledger`` and held constant until the next
    event.  Results are returned in request order.  The ledger is *not*
    modified — committing the returned allocations is the caller's
    choice (see :class:`FlowNetwork <repro.net.flows>`-style wrappers).

    Each event costs work in the active flows and their links only: an
    arrival cursor admits flows, per-link counts of active flows are
    kept as flows come and go, and each link's residual is reused for
    as long as its :meth:`ReservationLedger.window` holds.
    """
    count = len(flows)
    allocations: list[FlowAllocation | None] = [None] * count
    remaining = [flow.bits for flow in flows]
    done_below = [flow.bits * _REL_EPS for flow in flows]
    routes = [flow.route for flow in flows]
    caps = [flow.rate_cap_bps for flow in flows]
    segments: list[list[RateSegment]] = [[] for _ in range(count)]
    started: list[float | None] = [None] * count
    rates = [0.0] * count

    # Zero-bit flows deliver instantly: no transmission, no reservation.
    arrivals: list[int] = []
    for index, flow in enumerate(flows):
        if flow.bits == 0:
            allocations[index] = FlowAllocation(
                flow, flow.not_before, flow.not_before + flow.latency_s, ()
            )
        else:
            arrivals.append(index)
    arrivals.sort(key=lambda index: flows[index].not_before)
    releases = [flows[index].not_before for index in arrivals]

    active: list[int] = []  # ascending flow ids
    crossing: dict[int, int] = {}  # link -> active flows crossing it
    residual: dict[int, float] = {}  # link -> max(0, capacity - reserved)
    valid_until: dict[int, float] = {}  # link -> end of its residual's window
    cursor = 0
    time = releases[0] if releases else 0.0
    while cursor < len(arrivals) or active:
        while cursor < len(arrivals) and releases[cursor] <= time:
            index = arrivals[cursor]
            cursor += 1
            insort(active, index)
            for link in routes[index]:
                crossing[link] = crossing.get(link, 0) + 1
        next_arrival = releases[cursor] if cursor < len(arrivals) else math.inf
        if not active:
            time = next_arrival
            continue

        change = math.inf
        for link in crossing:
            until = valid_until.get(link, -math.inf)
            if until <= time:
                if ledger is None:
                    reserved, until = 0.0, math.inf
                else:
                    reserved, _since, until = ledger.window(link, time)
                left = capacity[link] - reserved
                residual[link] = left if left > 0.0 else 0.0
                valid_until[link] = until
            if until < change:
                change = until
        _water_fill(active, routes, caps, residual, crossing, rates)

        next_time = next_arrival if next_arrival < change else change
        moving: list[tuple[int, float, float]] = []  # (flow, rate, finish)
        for index in active:
            rate = rates[index]
            if rate > 0:
                finish = time if rate == math.inf else time + remaining[index] / rate
                if finish < next_time:
                    next_time = finish
                moving.append((index, rate, finish))
        if not moving and next_time == math.inf:
            raise SimulationError(
                "flow solver stalled: active flows have zero rate and no"
                " future capacity change or arrival"
            )

        span = next_time - time
        shared: dict[float, RateSegment] = {}  # rate -> this event's segment
        finished = False
        for index, rate, finish in moving:
            if started[index] is None:
                started[index] = time
            if finish <= time:
                # Infinite rate, or a residual transmission smaller than
                # one float ulp of the clock: neither can advance
                # ``time``, so deliver now (guarantees loop progress).
                left = 0.0
            else:
                if next_time > time:
                    segment = shared.get(rate)
                    if segment is None:
                        segment = shared[rate] = RateSegment(time, next_time, rate)
                    segments[index].append(segment)
                left = remaining[index] - rate * span
            remaining[index] = left
            if left <= done_below[index]:
                flow = flows[index]
                allocations[index] = FlowAllocation(
                    flow, started[index], next_time + flow.latency_s, tuple(segments[index])
                )
                finished = True
                for link in routes[index]:
                    flows_left = crossing[link] - 1
                    if flows_left:
                        crossing[link] = flows_left
                    else:
                        del crossing[link]
        if finished:
            active = [index for index in active if allocations[index] is None]
        time = next_time

    return allocations  # type: ignore[return-value]  # every flow delivered


def tcp_throughput_cap_bps(
    rtt_s: float, loss_rate: float, mss_bytes: int = 1460
) -> float:
    """The csa00 / Mathis square-root TCP throughput bound, in bit/s.

    ``rate = (MSS * 8) / (RTT * sqrt(2p/3))``.  With zero loss or zero
    round-trip time the model imposes no bound (returns ``inf``).
    """
    if loss_rate < 0 or loss_rate >= 1:
        raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
    if rtt_s < 0:
        raise SimulationError(f"rtt_s must be non-negative, got {rtt_s}")
    if mss_bytes < 1:
        raise SimulationError(f"mss_bytes must be >= 1, got {mss_bytes}")
    if loss_rate == 0 or rtt_s == 0:
        return math.inf
    return (mss_bytes * 8.0) / (rtt_s * math.sqrt(2.0 * loss_rate / 3.0))


@dataclass(frozen=True)
class TcpThroughputModel:
    """Per-flow analytic TCP cap applied by :class:`FlowNetwork`."""

    loss_rate: float
    mss_bytes: int = 1460

    def cap_bps(self, rtt_s: float) -> float:
        return tcp_throughput_cap_bps(rtt_s, self.loss_rate, self.mss_bytes)


class FlowRequest(NamedTuple):
    """One host-to-host transfer request: the tuple shape :meth:`FlowNetwork.batch` takes."""

    source: int
    destination: int
    bits: float
    not_before: float = 0.0
    tag: str = ""


class FlowNetwork:
    """A topology plus a reservation ledger: the engine-facing surface.

    :meth:`batch` solves one dependency round of transfers with true
    max-min sharing among them, commits the resulting rate profiles as
    reservations, and returns :class:`TransferOutcome` objects in
    request order — the same contract as the port network's ``batch``,
    so :class:`~repro.simulate.bsp.BSPEngine` runs over either.
    """

    def __init__(self, topology, tcp: TcpThroughputModel | None = None):
        self.topology = topology
        self.node_count = topology.host_count
        self.tcp = tcp
        self.ledger = ReservationLedger()
        self._capacity = topology.capacities
        # (source, destination) -> (route, route latency, TCP rate cap).
        self._paths: dict[tuple[int, int], tuple[tuple[int, ...], float, float]] = {}
        # Telemetry tallies, read by the network backend after a run.
        self.batches_solved = 0
        self.flows_solved = 0

    def reset(self) -> None:
        """Forget all reservations (new simulation epoch)."""
        self.ledger = ReservationLedger()

    def advance(self, time: float) -> None:
        """Drop reservations that ended at or before ``time``."""
        self.ledger.prune(time)

    def _path(self, source: int, destination: int) -> tuple[tuple[int, ...], float, float]:
        key = (source, destination)
        path = self._paths.get(key)
        if path is None:
            route = self.topology.route(source, destination)
            latency = self.topology.route_latency(source, destination)
            cap = math.inf if self.tcp is None else self.tcp.cap_bps(2.0 * latency)
            path = self._paths[key] = (route, latency, cap)
        return path

    def batch(self, requests: Sequence[FlowRequest]) -> list[TransferOutcome]:
        """Solve one round of concurrent transfers; returns outcomes in order."""
        outcomes: list[TransferOutcome] = [None] * len(requests)  # type: ignore[list-item]
        flows: list[Flow] = []
        flow_slots: list[int] = []
        for slot, (source, destination, bits, not_before, tag) in enumerate(requests):
            if bits < 0:
                raise SimulationError(f"bits must be non-negative, got {bits}")
            if not_before < 0:
                raise SimulationError(f"not_before must be non-negative, got {not_before}")
            if source == destination:
                outcomes[slot] = TransferOutcome(start=not_before, end=not_before)
                continue
            route, latency, cap = self._path(source, destination)
            flows.append(Flow(route, bits, not_before, latency, cap, tag))
            flow_slots.append(slot)
        self.batches_solved += 1
        self.flows_solved += len(flows)
        if flows:
            allocations = solve_flows(flows, self._capacity, self.ledger)
            for allocation, slot in zip(allocations, flow_slots):
                self.ledger.commit(allocation)
                outcomes[slot] = TransferOutcome(allocation.start, allocation.end)
        return outcomes
