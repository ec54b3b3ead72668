"""Differential oracle: ``repro.net.flows`` against its reference solver.

``tests/flows_reference.py`` rescans every pending flow, link count and
reservation at each event; the production solver keeps that state
incrementally.  Both must perform the same float operations in the same
order, so every start, end, segment and committed reservation here must
be equal *bit for bit* — compared as ``float.hex`` strings, not with a
tolerance.

The generated cases aim at the places where incremental state can go
stale: zero-bit flows, ``inf`` and finite rate caps, staggered
releases, and pre-filled ledgers whose segments touch or share
boundaries drawn from the same small grid as the flows' release times,
so events land exactly on reservation boundaries.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import flows_reference as reference
from repro.core.errors import SimulationError
from repro.hardware.specs import LinkSpec
from repro.net.flows import (
    Flow,
    FlowNetwork,
    FlowRequest,
    RateSegment,
    ReservationLedger,
    TcpThroughputModel,
    max_min_rates,
    solve_flows,
)
from repro.net.topology import build_topology
from strategies import network_topology_sections

#: Instants shared by releases and reservation boundaries, so that
#: events coincide with boundaries exactly.
GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
CAPACITY = {0: 10.0, 1: 5.0, 2: 20.0, 3: 7.5}
HOST_LINK = LinkSpec(name="oracle", bandwidth_bps=100.0, latency_s=0.0)


def instants() -> st.SearchStrategy[float]:
    return st.one_of(st.sampled_from(GRID), st.floats(min_value=0.0, max_value=4.0))


def bit_counts() -> st.SearchStrategy[float]:
    # Round sizes finish on the grid at the round capacities above.
    return st.one_of(
        st.sampled_from([0.0, 2.5, 5.0, 10.0, 30.0]),
        st.floats(min_value=1e-3, max_value=100.0),
    )


def rate_caps() -> st.SearchStrategy[float]:
    return st.one_of(
        st.just(math.inf), st.sampled_from([2.5, 8.0]), st.floats(min_value=0.5, max_value=50.0)
    )


def flow_lists() -> st.SearchStrategy[list[Flow]]:
    flows = st.builds(
        Flow,
        route=st.lists(
            st.integers(min_value=0, max_value=3), max_size=3, unique=True
        ).map(tuple),
        bits=bit_counts(),
        not_before=instants(),
        latency_s=st.sampled_from([0.0, 0.125]),
        rate_cap_bps=rate_caps(),
    )
    return st.lists(flows, min_size=1, max_size=8)


def reservation_lists() -> st.SearchStrategy[list[tuple[int, float, float, float]]]:
    """``(link, start, end, rate)`` tuples; some are empty or zero-rate,
    which both ledgers must drop alike."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            instants(),
            instants(),
            st.one_of(st.sampled_from([0.0, 2.5, 5.0]), st.floats(min_value=0.1, max_value=12.0)),
        ),
        max_size=8,
    )


def hexed(value: float) -> str:
    return float(value).hex()


def allocation_bits(allocations) -> list:
    return [
        (
            allocation.flow,
            hexed(allocation.start),
            hexed(allocation.end),
            [(hexed(s.start), hexed(s.end), hexed(s.rate_bps)) for s in allocation.segments],
        )
        for allocation in allocations
    ]


def ledger_bits(ledger) -> dict:
    return {
        link: [(hexed(s.start), hexed(s.end), hexed(s.rate_bps)) for s in segments]
        for link, segments in ledger._segments.items()
    }


def outcome_of(solve) -> object:
    """The solver's bit pattern, or the fact that it refused the case."""
    try:
        return allocation_bits(solve())
    except SimulationError:
        return "stalled"


class TestSolveFlowsOracle:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(flows=flow_lists(), reservations=reservation_lists(), with_ledger=st.booleans())
    def test_allocations_match_reference_bit_for_bit(self, flows, reservations, with_ledger):
        ledger, expected_ledger = ReservationLedger(), reference.ReservationLedger()
        for link, start, end, rate in reservations:
            ledger.reserve(link, RateSegment(start, end, rate))
            expected_ledger.reserve(link, reference.RateSegment(start, end, rate))
        expected = outcome_of(
            lambda: reference.solve_flows(
                flows, CAPACITY, expected_ledger if with_ledger else None
            )
        )
        actual = outcome_of(lambda: solve_flows(flows, CAPACITY, ledger if with_ledger else None))
        assert actual == expected

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        routes=st.lists(
            st.lists(st.integers(min_value=0, max_value=4), max_size=3, unique=True).map(tuple),
            min_size=1,
            max_size=8,
        ),
        caps=st.lists(rate_caps(), min_size=8, max_size=8),
        residual=st.dictionaries(
            st.integers(min_value=0, max_value=4),
            st.one_of(st.sampled_from([0.0, 5.0, 10.0]), st.floats(min_value=-5.0, max_value=50.0)),
        ),
    )
    def test_max_min_rates_match_reference_bit_for_bit(self, routes, caps, residual):
        flow_routes = {flow: route for flow, route in enumerate(routes)}
        flow_caps = {flow: caps[flow] for flow in flow_routes}
        expected = reference.max_min_rates(flow_routes, flow_caps, residual)
        actual = max_min_rates(flow_routes, flow_caps, residual)
        assert {f: hexed(r) for f, r in actual.items()} == {
            f: hexed(r) for f, r in expected.items()
        }

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(flows=flow_lists(), reservations=reservation_lists())
    def test_window_holds_the_reserved_sum_until_the_next_boundary(self, flows, reservations):
        ledger, expected_ledger = ReservationLedger(), reference.ReservationLedger()
        for link, start, end, rate in reservations:
            ledger.reserve(link, RateSegment(start, end, rate))
            expected_ledger.reserve(link, reference.RateSegment(start, end, rate))
        for time in sorted({flow.not_before for flow in flows} | set(GRID)):
            for link in CAPACITY:
                reserved, since, until = ledger.window(link, time)
                assert since <= time < until
                assert hexed(reserved) == hexed(expected_ledger.reserved_at(link, time))
                change = expected_ledger.next_change_after([link], time)
                assert until == (math.inf if change is None else change)
                for probe in (since, (time + until) / 2 if until < math.inf else time + 1.0):
                    if since <= probe < until:
                        assert hexed(expected_ledger.reserved_at(link, probe)) == hexed(reserved)


@st.composite
def batch_sequences(draw):
    """A topology, an optional TCP cap and rounds of ``(requests, advance)``."""
    hosts = draw(st.integers(min_value=2, max_value=8))
    section = draw(network_topology_sections())
    topology = build_topology(
        section["kind"], hosts, HOST_LINK, {k: v for k, v in section.items() if k != "kind"}
    )
    tcp = draw(st.sampled_from([None, TcpThroughputModel(loss_rate=0.01)]))
    host = st.integers(min_value=0, max_value=hosts - 1)
    request = st.builds(
        FlowRequest,
        host,
        host,
        st.one_of(st.sampled_from([0.0, 25.0, 50.0, 100.0]), st.floats(min_value=1.0, max_value=400.0)),
        not_before=instants(),
    )
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(request, min_size=1, max_size=6),
                st.one_of(st.none(), instants()),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return topology, tcp, rounds


class TestFlowNetworkOracle:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(batch_sequences())
    def test_batch_sequences_match_reference_bit_for_bit(self, case):
        topology, tcp, rounds = case
        network = FlowNetwork(topology, tcp=tcp)
        expected_network = reference.FlowNetwork(topology, tcp=tcp)
        for requests, advance in rounds:
            if advance is not None:
                network.advance(advance)
                expected_network.advance(advance)
            expected = [
                (hexed(o.start), hexed(o.end)) for o in expected_network.batch(requests)
            ]
            actual = [(hexed(o.start), hexed(o.end)) for o in network.batch(requests)]
            assert actual == expected
            assert ledger_bits(network.ledger) == ledger_bits(expected_network.ledger)
