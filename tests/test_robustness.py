"""Tests for the chaos campaign engine (scenarios, invariants, matrix)."""

import sys

import pytest

from repro.core.existence import build_lhg
from repro.errors import SimulationError
from repro.robustness import (
    ChaosCampaign,
    DeadDeliveryWatch,
    ProtocolSpec,
    check_no_dead_delivery,
    check_quiescence,
    check_retransmission_budget,
    crash_recover,
    flapping,
    message_loss,
    partition_heal,
    standard_protocols,
    standard_scenarios,
)
from repro.robustness.invariants import InvariantViolation, RunRecord


def small_grid(**kwargs):
    graph, _ = build_lhg(16, 2)
    return graph, ChaosCampaign([(graph.name, graph)], **kwargs)


class TestScenarios:
    def test_standard_grid_names(self):
        names = [s.name for s in standard_scenarios()]
        assert names == [
            "baseline",
            "loss-0.1",
            "loss-0.3",
            "dup-reorder",
            "flapping",
            "partition-heal",
            "crash-recover",
        ]

    def test_builds_are_deterministic_in_seed(self):
        graph, _ = build_lhg(16, 2)
        source = graph.nodes()[0]
        scenario = crash_recover()
        a = scenario.build(graph, source, 3)
        b = scenario.build(graph, source, 3)
        assert a.schedule.crashes == b.schedule.crashes
        assert a.schedule.recoveries == b.schedule.recoveries

    def test_different_seeds_pick_different_victims(self):
        graph, _ = build_lhg(32, 2)
        source = graph.nodes()[0]
        scenario = crash_recover()
        a = scenario.build(graph, source, 1).schedule.crashed_nodes
        b = scenario.build(graph, source, 2).schedule.crashed_nodes
        assert a != b

    def test_source_never_a_victim(self):
        graph, _ = build_lhg(16, 2)
        source = graph.nodes()[0]
        for seed in range(5):
            setup = flapping().build(graph, source, seed)
            assert source not in {
                f.u for f in setup.schedule.link_failures
            }

    def test_partition_heal_restores_every_cut_link(self):
        graph, _ = build_lhg(16, 2)
        source = graph.nodes()[0]
        setup = partition_heal().build(graph, source, 0)
        assert len(setup.schedule.link_failures) >= 1
        assert len(setup.schedule.link_recoveries) == len(
            setup.schedule.link_failures
        )

    def test_loss_scenario_uses_fault_model(self):
        graph, _ = build_lhg(16, 2)
        setup = message_loss(0.2).build(graph, graph.nodes()[0], 0)
        assert setup.fault_model is not None
        assert setup.fault_model.profile.drop == 0.2

    def test_victim_pool_too_small(self):
        graph, _ = build_lhg(6, 2)
        with pytest.raises(SimulationError):
            crash_recover(victims=10).build(graph, graph.nodes()[0], 0)


class TestInvariantCheckers:
    def _record(self, trace_events=(), **kwargs):
        watch = DeadDeliveryWatch()
        for kind, time, details in trace_events:
            watch(kind, time, **details)
        defaults = dict(
            graph=None,
            source=0,
            schedule=None,
            network=None,
            simulator=None,
            watch=watch,
            protocol=object(),
            result=None,
        )
        defaults.update(kwargs)
        return RunRecord(**defaults)

    def test_budget_exhaustion_violates_quiescence(self):
        record = self._record(budget_exhausted=True)
        violation = check_quiescence(record)
        assert violation is not None and violation.invariant == "quiescence"

    def test_dead_delivery_detected(self):
        record = self._record(
            trace_events=[
                ("crash", 1.0, {"node": 5}),
                ("deliver", 2.0, {"sender": 1, "receiver": 5}),
            ]
        )
        violation = check_no_dead_delivery(record)
        assert violation is not None and "5" in violation.detail

    def test_recovery_reopens_delivery(self):
        record = self._record(
            trace_events=[
                ("crash", 1.0, {"node": 5}),
                ("recover", 2.0, {"node": 5}),
                ("deliver", 3.0, {"sender": 1, "receiver": 5}),
            ]
        )
        assert check_no_dead_delivery(record) is None

    def test_dead_delivery_past_100k_events_detected(self):
        # the watch stores nothing, so no event cap can hide a late hit
        watch = DeadDeliveryWatch()
        watch("crash", 1.0, node=5)
        for step in range(100_001):
            watch("deliver", 2.0, sender=1, receiver=step % 4)
        watch("deliver", 3.0, sender=1, receiver=5)
        violation = check_no_dead_delivery(self._record(watch=watch))
        assert violation is not None
        assert violation.invariant == "no-dead-delivery"
        assert violation.detail == "delivery to crashed node 5 at t=3.0"

    def test_first_dead_delivery_is_kept(self):
        record = self._record(
            trace_events=[
                ("crash", 1.0, {"node": 5}),
                ("crash", 1.0, {"node": 6}),
                ("deliver", 2.0, {"sender": 1, "receiver": 6}),
                ("deliver", 3.0, {"sender": 1, "receiver": 5}),
            ]
        )
        assert "node 6 at t=2.0" in check_no_dead_delivery(record).detail

    def test_retransmission_budget_uses_retry_budget(self):
        class Chatty:
            retransmissions = 11
            retry_budget = 10

        violation = check_retransmission_budget(self._record(protocol=Chatty()))
        assert violation is not None and "11" in violation.detail

    def test_counterless_protocol_passes_vacuously(self):
        assert check_retransmission_budget(self._record(protocol=object())) is None

    def test_violation_renders_with_name(self):
        violation = InvariantViolation("coverage", "covered 3 of 4")
        assert str(violation) == "coverage: covered 3 of 4"


class TestCampaign:
    def test_empty_grid_rejected(self):
        with pytest.raises(SimulationError):
            ChaosCampaign([])
        graph, _ = build_lhg(16, 2)
        with pytest.raises(SimulationError):
            ChaosCampaign([(graph.name, graph)], seeds=())

    def test_small_campaign_all_green(self):
        _, campaign = small_grid(
            scenarios=[s for s in standard_scenarios() if s.name == "baseline"]
        )
        matrix = campaign.run()
        assert matrix.all_green
        assert len(matrix.cells) == 2  # two protocol columns, one seed
        assert all(cell.fully_covered for cell in matrix.cells)

    def test_arq_covers_where_plain_does_not(self):
        _, campaign = small_grid(
            scenarios=[
                s for s in standard_scenarios() if s.name == "partition-heal"
            ]
        )
        matrix = campaign.run()
        assert matrix.all_green
        (plain,) = matrix.select(protocol="reliable-flood")
        (arq,) = matrix.select(protocol="arq-reliable-flood")
        assert arq.fully_covered
        assert not plain.fully_covered

    def test_matrix_rows_deterministic(self):
        scenarios = [
            s for s in standard_scenarios() if s.name in ("loss-0.3", "flapping")
        ]
        _, campaign_a = small_grid(scenarios=scenarios, seeds=(7,))
        _, campaign_b = small_grid(scenarios=scenarios, seeds=(7,))
        assert campaign_a.run().cells == campaign_b.run().cells

    def test_select_filters_by_labels(self):
        graph, campaign = small_grid(
            scenarios=[s for s in standard_scenarios() if s.name == "baseline"],
            seeds=(0, 1),
        )
        matrix = campaign.run()
        assert len(matrix.cells) == 4
        assert len(matrix.select(protocol="reliable-flood")) == 2
        assert len(matrix.select(topology=graph.name)) == 4
        assert matrix.select(scenario="nope") == []

    def test_render_mentions_every_cell(self):
        _, campaign = small_grid(
            scenarios=[s for s in standard_scenarios() if s.name == "baseline"]
        )
        text = campaign.run().render(title="smoke")
        assert "smoke" in text
        assert "reliable-flood" in text and "arq-reliable-flood" in text
        assert "100.00%" in text

    def test_custom_protocol_spec(self):
        from repro.flooding.protocols.flood import FloodProtocol

        graph, _ = build_lhg(16, 2)
        spec = ProtocolSpec(
            name="plain-flood",
            factory=lambda network, source: FloodProtocol(network, source),
        )
        campaign = ChaosCampaign(
            [(graph.name, graph)],
            protocols=[spec],
            scenarios=[s for s in standard_scenarios() if s.name == "baseline"],
        )
        matrix = campaign.run()
        assert matrix.all_green
        assert matrix.cells[0].protocol == "plain-flood"

    def test_watch_sees_a_sabotaged_network(self, monkeypatch):
        # Only the delivery-time liveness check is broken: a message to a
        # crashed receiver is handed over instead of dropped, and the
        # watch the cell attached must report it.
        from repro.flooding.network import Network

        alive = Network.is_alive

        def sabotaged(network, node):
            if sys._getframe(1).f_code.co_name == "deliver":
                return True
            return alive(network, node)

        graph, campaign = small_grid(
            scenarios=[s for s in standard_scenarios() if s.name == "crash-recover"]
        )
        spec = next(p for p in campaign.protocols if p.guarantees_delivery)
        (scenario,) = campaign.scenarios
        assert campaign.run_cell(graph.name, graph, spec, scenario, 0).ok
        monkeypatch.setattr(Network, "is_alive", sabotaged)
        cell = campaign.run_cell(graph.name, graph, spec, scenario, 0)
        assert any(v.startswith("no-dead-delivery: ") for v in cell.violations)

    def test_standard_protocols_declarations(self):
        plain, arq = standard_protocols()
        assert plain.name == "reliable-flood" and not plain.guarantees_delivery
        assert arq.name == "arq-reliable-flood" and arq.guarantees_delivery
