"""Tests for the simulated network with endpoint contention."""

import pytest

from repro.core.errors import SimulationError
from repro.hardware.specs import LinkSpec
from repro.simulate.network import Network
from repro.simulate.trace import Trace


def make_network(nodes=4, bandwidth=1e9, latency=0.0, full_duplex=True, trace=None):
    link = LinkSpec("test", bandwidth_bps=bandwidth, latency_s=latency, full_duplex=full_duplex)
    return Network(link, nodes, trace=trace)


class TestTransfer:
    def test_duration_is_bits_over_bandwidth(self):
        net = make_network()
        outcome = net.transfer(0, 1, 1e9)
        assert outcome.start == 0.0
        assert outcome.end == pytest.approx(1.0)

    def test_latency_added(self):
        net = make_network(latency=0.5)
        outcome = net.transfer(0, 1, 1e9)
        assert outcome.end == pytest.approx(1.5)

    def test_not_before_respected(self):
        net = make_network()
        outcome = net.transfer(0, 1, 1e9, not_before=10.0)
        assert outcome.start == 10.0
        assert outcome.end == pytest.approx(11.0)

    def test_loopback_is_free(self):
        net = make_network()
        outcome = net.transfer(2, 2, 1e12, not_before=3.0)
        assert outcome.start == 3.0
        assert outcome.end == 3.0

    def test_sender_uplink_serialises(self):
        net = make_network()
        first = net.transfer(0, 1, 1e9)
        second = net.transfer(0, 2, 1e9)
        assert second.start == pytest.approx(first.end)

    def test_receiver_downlink_serialises(self):
        net = make_network()
        first = net.transfer(1, 0, 1e9)
        second = net.transfer(2, 0, 1e9)
        assert second.start == pytest.approx(first.end)

    def test_disjoint_pairs_parallel(self):
        net = make_network()
        a = net.transfer(0, 1, 1e9)
        b = net.transfer(2, 3, 1e9)
        assert a.start == 0.0
        assert b.start == 0.0

    def test_full_duplex_send_and_receive_overlap(self):
        net = make_network()
        a = net.transfer(0, 1, 1e9)
        b = net.transfer(1, 0, 1e9)
        assert a.start == 0.0
        assert b.start == 0.0

    def test_half_duplex_send_blocks_receive(self):
        net = make_network(full_duplex=False)
        a = net.transfer(0, 1, 1e9)
        b = net.transfer(1, 0, 1e9)
        assert b.start == pytest.approx(a.end)

    def test_batch_serves_requests_in_order(self):
        requests = [(0, 1, 1e9, 0.0, "a"), (2, 1, 1e9, 0.5, "b"), (1, 1, 5.0, 0.25, "c")]
        batched = make_network().batch(requests)
        net = make_network()
        assert batched == [net.transfer(*request) for request in requests]
        assert [(o.start, o.end) for o in batched] == [(0.0, 1.0), (1.0, 2.0), (0.25, 0.25)]

    def test_reset_clears_occupancy(self):
        net = make_network()
        net.transfer(0, 1, 1e9)
        net.reset()
        outcome = net.transfer(0, 2, 1e9)
        assert outcome.start == 0.0


class TestValidation:
    def test_unknown_node_rejected(self):
        net = make_network(nodes=2)
        with pytest.raises(SimulationError):
            net.transfer(0, 5, 1.0)

    def test_negative_bits_rejected(self):
        net = make_network()
        with pytest.raises(SimulationError):
            net.transfer(0, 1, -1.0)

    def test_negative_not_before_rejected(self):
        net = make_network()
        with pytest.raises(SimulationError):
            net.transfer(0, 1, 1.0, not_before=-1.0)

    def test_zero_nodes_rejected(self):
        with pytest.raises(SimulationError):
            make_network(nodes=0)


class TestTracing:
    def test_transfers_recorded(self):
        trace = Trace()
        net = make_network(trace=trace)
        net.transfer(0, 1, 1e9, tag="unit")
        assert len(trace.transfers) == 1
        record = trace.transfers[0]
        assert record.source == 0
        assert record.destination == 1
        assert record.bits == 1e9
        assert record.tag == "unit"

    def test_busy_accounting(self):
        trace = Trace()
        net = make_network(trace=trace)
        net.transfer(0, 1, 1e9)
        net.transfer(0, 1, 1e9)
        assert trace.total_bits_transferred == 2e9
        assert trace.summary()["transfers"] == 2
