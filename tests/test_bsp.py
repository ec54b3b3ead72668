"""Tests for the BSP superstep engine and the cluster façade."""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.hardware.specs import ClusterSpec, LinkSpec, NodeSpec
from repro.net.flows import FlowNetwork
from repro.net.topology import oversubscribed_racks, single_switch
from repro.simulate.bsp import BSPEngine, SuperstepPlan
from repro.simulate.cluster import SimulatedCluster
from repro.simulate.network import Network
from repro.simulate.overhead import NO_OVERHEAD, SPARK_LIKE_OVERHEAD, FrameworkOverhead
from repro.simulate.rng import LogNormalJitter

NODE = NodeSpec("test-node", peak_flops=1e9, efficiency=1.0)
LINK = LinkSpec("test-link", bandwidth_bps=1e9)


def make_engine(workers, **kwargs):
    return BSPEngine(NODE, LINK, workers, **kwargs)


class TestSuperstepPlan:
    def test_scalar_load_replicated(self):
        plan = SuperstepPlan(operations_per_worker=10.0)
        assert plan.loads(3) == [10.0, 10.0, 10.0]

    def test_explicit_loads_checked(self):
        plan = SuperstepPlan(operations_per_worker=[1.0, 2.0])
        assert plan.loads(2) == [1.0, 2.0]
        with pytest.raises(SimulationError):
            plan.loads(3)

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(SimulationError):
            SuperstepPlan(operations_per_worker=1.0, aggregation="gossip")

    def test_negative_payload_rejected(self):
        with pytest.raises(SimulationError):
            SuperstepPlan(operations_per_worker=1.0, broadcast_bits=-1.0)


class TestBSPEngine:
    def test_compute_only_superstep(self):
        engine = make_engine(4)
        plan = SuperstepPlan(operations_per_worker=2e9, aggregation="none")
        report = engine.run(plan, iterations=1)
        assert report.iteration_seconds[0] == pytest.approx(2.0)

    def test_iterations_accumulate(self):
        engine = make_engine(2)
        plan = SuperstepPlan(operations_per_worker=1e9, aggregation="none")
        report = engine.run(plan, iterations=5)
        assert len(report.iteration_seconds) == 5
        assert report.total_seconds == pytest.approx(5.0)
        assert report.mean_iteration_seconds == pytest.approx(1.0)

    def test_broadcast_then_compute_then_aggregate(self):
        engine = make_engine(1)
        plan = SuperstepPlan(
            operations_per_worker=1e9,
            broadcast_bits=1e9,
            aggregate_bits=1e9,
            aggregation="two_wave",
        )
        report = engine.run(plan, iterations=1)
        # 1 transfer down (1 s) + compute (1 s) + 1 transfer up (1 s).
        assert report.iteration_seconds[0] == pytest.approx(3.0)

    def test_overhead_delays_superstep(self):
        overhead = FrameworkOverhead(superstep_seconds=0.5, per_worker_seconds=0.25)
        engine = make_engine(2, overhead=overhead)
        plan = SuperstepPlan(operations_per_worker=1e9, aggregation="none")
        report = engine.run(plan, iterations=1)
        assert report.iteration_seconds[0] == pytest.approx(1.0 + 0.5 + 0.5)

    def test_jitter_changes_durations_deterministically(self):
        plan = SuperstepPlan(operations_per_worker=1e9, aggregation="none")
        a = make_engine(4, jitter=LogNormalJitter(0.2), seed=7).run(plan, 3)
        b = make_engine(4, jitter=LogNormalJitter(0.2), seed=7).run(plan, 3)
        c = make_engine(4, jitter=LogNormalJitter(0.2), seed=8).run(plan, 3)
        assert a.iteration_seconds == b.iteration_seconds
        assert a.iteration_seconds != c.iteration_seconds

    def test_zero_jitter_matches_exact_time(self):
        plan = SuperstepPlan(operations_per_worker=3e9, aggregation="none")
        report = make_engine(3, jitter=LogNormalJitter(0.0)).run(plan, 1)
        assert report.iteration_seconds[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("aggregation", ["linear", "tree", "two_wave", "ring"])
    def test_all_aggregations_run(self, aggregation):
        engine = make_engine(5)
        plan = SuperstepPlan(
            operations_per_worker=1e9, aggregate_bits=1e8, aggregation=aggregation
        )
        report = engine.run(plan, iterations=2)
        assert all(t > 1.0 for t in report.iteration_seconds)

    def test_two_wave_matches_analytical_shape(self):
        # With zero overhead/jitter the simulated superstep should match
        # the paper's formula: ops/F + (log-ish broadcast) + 2*sqrt-wave.
        workers = 9
        engine = make_engine(workers)
        plan = SuperstepPlan(
            operations_per_worker=9e9 / workers,
            broadcast_bits=1e9,
            aggregate_bits=1e9,
            aggregation="two_wave",
        )
        report = engine.run(plan, iterations=1)
        compute = 1.0
        # Binomial broadcast to 9 workers (10 participants): 4 rounds.
        broadcast = 4.0
        # Two waves with ceil(sqrt(9)) = 3 groups of 3: 2 + 3 transfers.
        aggregate = 5.0
        naive_sum = compute + broadcast + aggregate
        # The simulator pipelines: workers that receive the broadcast early
        # also compute and enter wave 1 early, so the simulated superstep
        # is at most the closed-form sum but no shorter than the critical
        # path of the last broadcast receiver.
        assert report.iteration_seconds[0] <= naive_sum + 1e-9
        assert report.iteration_seconds[0] >= broadcast + compute + 3.0  # wave-2 serialisation
        assert report.iteration_seconds[0] == pytest.approx(9.0)

    def test_compute_and_communication_spans_sum(self):
        engine = make_engine(4)
        plan = SuperstepPlan(
            operations_per_worker=1e9, aggregate_bits=1e9, aggregation="linear"
        )
        report = engine.run(plan, iterations=1)
        assert report.compute_spans[0] + report.communication_spans[0] == pytest.approx(
            report.iteration_seconds[0]
        )

    def test_trace_collects_tasks(self):
        engine = make_engine(3)
        plan = SuperstepPlan(operations_per_worker=1e9, aggregation="none")
        report = engine.run(plan, iterations=2)
        assert len(report.trace.computes) == 6

    def test_invalid_iterations(self):
        engine = make_engine(1)
        with pytest.raises(SimulationError):
            engine.run(SuperstepPlan(operations_per_worker=1.0), iterations=0)

    def test_invalid_worker_count(self):
        with pytest.raises(SimulationError):
            make_engine(0)

    def test_empty_report_mean_rejected(self):
        from repro.simulate.bsp import BSPReport
        from repro.simulate.trace import Trace

        report = BSPReport(workers=1, iteration_seconds=[], trace=Trace())
        with pytest.raises(SimulationError):
            _ = report.mean_iteration_seconds


#: Builders, by worker count, of the networks the one engine runs over;
#: ``None`` selects the default port network over ``LINK``.
NETWORKS = {
    "port": lambda workers: None,
    "flow-single-switch": lambda workers: FlowNetwork(single_switch(workers + 1, LINK)),
    "flow-racks": lambda workers: FlowNetwork(
        oversubscribed_racks(workers + 1, LINK, racks=3, oversubscription_ratio=4.0)
    ),
}


class TestEngineOverNetworks:
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    @pytest.mark.parametrize("aggregation", ["two_wave", "tree", "ring"])
    def test_consecutive_runs_match(self, network, aggregation):
        """A second run continues the clock: past transfers never slow it."""
        engine = make_engine(8, network=NETWORKS[network](8))
        plan = SuperstepPlan(
            operations_per_worker=1e7,
            broadcast_bits=2e6,
            aggregate_bits=5e6,
            aggregation=aggregation,
        )
        first = engine.run(plan, 2)
        second = engine.run(plan, 2)
        np.testing.assert_allclose(
            second.iteration_seconds, first.iteration_seconds, rtol=1e-9
        )
        assert engine.now == pytest.approx(first.total_seconds + second.total_seconds)

    @pytest.mark.parametrize(
        "network",
        [
            Network(LINK, 5),
            FlowNetwork(single_switch(5, LINK)),
            FlowNetwork(oversubscribed_racks(10, LINK, racks=2, oversubscription_ratio=2.0)),
        ],
        ids=["port", "flow-single-switch", "flow-racks"],
    )
    def test_network_host_count_must_match(self, network):
        with pytest.raises(SimulationError, match=r"workers=8 needs 9 \(driver \+ workers\)"):
            make_engine(8, network=network)


class TestSimulatedCluster:
    def make_cluster(self, **kwargs):
        return SimulatedCluster(
            spec=ClusterSpec(NODE, LINK, workers=8), **kwargs
        )

    def test_run_uses_spec_workers(self):
        cluster = self.make_cluster()
        plan = SuperstepPlan(operations_per_worker=1e9, aggregation="none")
        report = cluster.run(plan, iterations=1)
        assert report.workers == 8

    def test_run_with_worker_override(self):
        cluster = self.make_cluster()
        plan = SuperstepPlan(operations_per_worker=1e9, aggregation="none")
        assert cluster.run(plan, 1, workers=3).workers == 3

    def test_measure_iteration_sweep_strong_scaling(self):
        cluster = self.make_cluster()
        total_ops = 8e9

        def plan_for(workers):
            return SuperstepPlan(operations_per_worker=total_ops / workers, aggregation="none")

        measured = cluster.measure_iteration_seconds(plan_for, [1, 2, 4, 8], iterations=2)
        assert measured.time(1) == pytest.approx(8.0)
        assert measured.time(8) == pytest.approx(1.0)

    def test_overhead_shifts_measurements(self):
        plain = self.make_cluster()
        sparky = self.make_cluster(overhead=SPARK_LIKE_OVERHEAD)
        plan = SuperstepPlan(operations_per_worker=1e9, aggregation="none")
        assert (
            sparky.run(plan, 1, workers=4).iteration_seconds[0]
            > plain.run(plan, 1, workers=4).iteration_seconds[0]
        )
