"""A straightforward flow solver, kept as the oracle for :mod:`repro.net.flows`.

``RateSegment``, ``FlowAllocation``, ``ReservationLedger``,
``max_min_rates``, ``solve_flows`` and ``FlowNetwork`` below rescan the
pending flows, recount link crossings and re-sum every link's
reservations at each event.  The production solver keeps that state
incrementally, but must perform the same float operations in the same
order; ``tests/test_flows_oracle.py`` holds the two to bit-identical
results.  Keep this file frozen: it is the reference, not a second
implementation to maintain.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.errors import SimulationError
from repro.net.flows import Flow, FlowRequest, TcpThroughputModel
from repro.simulate.network import TransferOutcome

_REL_EPS = 1e-12


@dataclass(frozen=True)
class RateSegment:
    """A constant-rate stretch of a flow's transmission."""

    start: float
    end: float
    rate_bps: float


@dataclass(frozen=True)
class FlowAllocation:
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

    def reserved_at(self, link: int, time: float) -> float:
        """Total reserved rate on ``link`` at ``time`` (bit/s)."""
        return sum(
            segment.rate_bps
            for segment in self._segments.get(link, ())
            if segment.start <= time < segment.end
        )

    def next_change_after(self, links: Sequence[int], time: float) -> float | None:
        """Earliest reservation boundary strictly after ``time``."""
        best: float | None = None
        for link in links:
            for segment in self._segments.get(link, ()):
                for bound in (segment.start, segment.end):
                    if bound > time and (best is None or bound < best):
                        best = bound
        return best

    def prune(self, time: float) -> None:
        """Drop segments that end at or before ``time`` (past barriers)."""
        for link in list(self._segments):
            kept = [s for s in self._segments[link] if s.end > time]
            if kept:
                self._segments[link] = kept
            else:
                del self._segments[link]


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
    rates: dict[int, float] = {}
    capacity = {link: max(0.0, residual.get(link, 0.0)) for link in set().union(*routes.values(), set())}
    unfrozen = sorted(routes)
    while unfrozen:
        counts: dict[int, int] = {}
        for flow in unfrozen:
            for link in routes[flow]:
                counts[link] = counts.get(link, 0) + 1
        share = min(
            (capacity[link] / counts[link] for link in sorted(counts)), default=math.inf
        )
        cap_floor = min(caps[flow] for flow in unfrozen)
        rate = min(share, cap_floor)
        if not math.isfinite(rate):
            # Only cap-free, link-free flows remain: unbounded rate.
            for flow in unfrozen:
                rates[flow] = math.inf
            break
        threshold = rate * (1.0 + _REL_EPS)
        bottlenecks = {
            link for link in counts if capacity[link] / counts[link] <= threshold
        }
        frozen = [
            flow
            for flow in unfrozen
            if caps[flow] <= threshold or any(link in bottlenecks for link in routes[flow])
        ]
        if not frozen:  # pragma: no cover - float-noise safety valve
            frozen = list(unfrozen)
        for flow in frozen:
            rates[flow] = min(rate, caps[flow])
            for link in routes[flow]:
                capacity[link] = max(0.0, capacity[link] - rates[flow])
        unfrozen = [flow for flow in unfrozen if flow not in set(frozen)]
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
    """
    count = len(flows)
    allocations: list[FlowAllocation | None] = [None] * count
    remaining = [flow.bits for flow in flows]
    segments: list[list[RateSegment]] = [[] for _ in range(count)]
    started: list[float | None] = [None] * count
    pending = set(range(count))

    # Zero-bit flows deliver instantly: no transmission, no reservation.
    for index, flow in enumerate(flows):
        if flow.bits == 0:
            allocations[index] = FlowAllocation(
                flow=flow,
                start=flow.not_before,
                end=flow.not_before + flow.latency_s,
                segments=(),
            )
            pending.discard(index)

    if pending:
        time = min(flows[index].not_before for index in pending)
    while pending:
        active = [index for index in pending if flows[index].not_before <= time]
        future = [index for index in pending if flows[index].not_before > time]
        next_arrival = min((flows[index].not_before for index in future), default=None)
        if not active:
            time = next_arrival  # type: ignore[assignment]  # future is non-empty here
            continue
        links = sorted({link for index in active for link in flows[index].route})
        residual = {
            link: capacity[link] - (ledger.reserved_at(link, time) if ledger else 0.0)
            for link in links
        }
        rates = max_min_rates(
            {index: flows[index].route for index in active},
            {index: flows[index].rate_cap_bps for index in active},
            residual,
        )
        candidates: list[float] = []
        if next_arrival is not None:
            candidates.append(next_arrival)
        if ledger is not None:
            change = ledger.next_change_after(links, time)
            if change is not None:
                candidates.append(change)
        finishing: list[tuple[float, int]] = []
        for index in active:
            rate = rates[index]
            if rate > 0:
                finish = time if math.isinf(rate) else time + remaining[index] / rate
                finishing.append((finish, index))
                candidates.append(finish)
        if not candidates:
            raise SimulationError(
                "flow solver stalled: active flows have zero rate and no"
                " future capacity change or arrival"
            )
        next_time = min(candidates)
        for index in active:
            rate = rates[index]
            if rate <= 0:
                continue
            if started[index] is None:
                started[index] = time
            if math.isinf(rate) or time + remaining[index] / rate <= time:
                # Infinite rate, or a residual transmission smaller than
                # one float ulp of the clock: neither can advance
                # ``time``, so deliver now (guarantees loop progress).
                remaining[index] = 0.0
            else:
                if next_time > time:
                    segments[index].append(RateSegment(time, next_time, rate))
                remaining[index] -= rate * (next_time - time)
            if remaining[index] <= flows[index].bits * _REL_EPS:
                remaining[index] = 0.0
                flow = flows[index]
                start = started[index]
                assert start is not None
                allocations[index] = FlowAllocation(
                    flow=flow,
                    start=start,
                    end=next_time + flow.latency_s,
                    segments=tuple(segments[index]),
                )
                pending.discard(index)
        time = next_time

    return [allocation for allocation in allocations if allocation is not None]


class FlowNetwork:
    """A topology plus a reservation ledger: the engine-facing surface.

    :meth:`batch` solves one dependency round of transfers with true
    max-min sharing among them, commits the resulting rate profiles as
    reservations, and returns :class:`TransferOutcome` objects in
    request order — the same contract the endpoint network's
    ``transfer`` gives, lifted to batches.
    """

    def __init__(self, topology, tcp: TcpThroughputModel | None = None):
        self.topology = topology
        self.tcp = tcp
        self.ledger = ReservationLedger()
        self._capacity = topology.capacities
        # Telemetry tallies, read by the network backend after a run.
        self.batches_solved = 0
        self.flows_solved = 0

    def reset(self) -> None:
        """Forget all reservations (new simulation epoch)."""
        self.ledger = ReservationLedger()

    def advance(self, time: float) -> None:
        """Drop reservations that ended at or before ``time``."""
        self.ledger.prune(time)

    def batch(self, requests: Sequence[FlowRequest]) -> list[TransferOutcome]:
        """Solve one round of concurrent transfers; returns outcomes in order."""
        outcomes: list[TransferOutcome | None] = [None] * len(requests)
        flows: list[Flow] = []
        flow_slots: list[int] = []
        for slot, request in enumerate(requests):
            if request.bits < 0:
                raise SimulationError(f"bits must be non-negative, got {request.bits}")
            if request.not_before < 0:
                raise SimulationError(
                    f"not_before must be non-negative, got {request.not_before}"
                )
            if request.source == request.destination:
                outcomes[slot] = TransferOutcome(
                    start=request.not_before, end=request.not_before
                )
                continue
            route = self.topology.route(request.source, request.destination)
            latency = self.topology.route_latency(request.source, request.destination)
            cap = math.inf
            if self.tcp is not None:
                cap = self.tcp.cap_bps(2.0 * latency)
            flows.append(
                Flow(
                    route=route,
                    bits=request.bits,
                    not_before=request.not_before,
                    latency_s=latency,
                    rate_cap_bps=cap,
                    tag=request.tag,
                )
            )
            flow_slots.append(slot)
        self.batches_solved += 1
        self.flows_solved += len(flows)
        if flows:
            allocations = solve_flows(flows, self._capacity, self.ledger)
            for allocation, slot in zip(allocations, flow_slots):
                for link in allocation.flow.route:
                    for segment in allocation.segments:
                        self.ledger.reserve(link, segment)
                outcomes[slot] = allocation.outcome
        return [outcome for outcome in outcomes if outcome is not None]
