"""Tests for overlay self-repair after crash bursts."""

import pytest

from repro.graphs.connectivity import node_connectivity
from repro.graphs.graph import edge_key
from repro.overlay.membership import LHGOverlay, MembershipError
from repro.overlay.repair import (
    crash_repair_cycle,
    execute_repair,
    plan_repair,
)


def populated_overlay(k=3, size=16):
    overlay = LHGOverlay(k=k)
    for i in range(size):
        overlay.join(f"p{i}")
    return overlay


class TestOverlayCopy:
    def test_copy_is_equal_but_independent(self):
        overlay = populated_overlay()
        clone = overlay.copy()
        assert clone.topology() == overlay.topology()
        assert clone.members == overlay.members
        clone.leave("p3")
        assert "p3" in overlay.members


class TestPlan:
    def test_plan_is_exact(self):
        overlay = populated_overlay()
        plan = plan_repair(overlay, ["p3", "p7"])
        before = overlay.topology()
        execute_repair(overlay, ["p3", "p7"])
        after = overlay.topology()
        old_edges = {
            edge_key(u, v)
            for u, v in before.iter_edges()
            if u not in plan.crashed and v not in plan.crashed
        }
        new_edges = {edge_key(u, v) for u, v in after.iter_edges()}
        assert plan.teardown == frozenset(old_edges - new_edges)
        assert plan.establish == frozenset(new_edges - old_edges)

    def test_plan_does_not_mutate(self):
        overlay = populated_overlay()
        before = overlay.topology()
        plan_repair(overlay, ["p1"])
        assert overlay.topology() == before
        assert overlay.size == 16

    def test_unknown_member_rejected(self):
        with pytest.raises(MembershipError):
            plan_repair(populated_overlay(), ["ghost"])

    def test_no_survivors_rejected(self):
        overlay = LHGOverlay(k=2)
        overlay.join("only")
        with pytest.raises(MembershipError):
            plan_repair(overlay, ["only"])

    def test_plan_counts(self):
        overlay = populated_overlay()
        plan = plan_repair(overlay, ["p0"])
        assert plan.total_edge_work == len(plan.teardown) + len(plan.establish)
        assert len(plan.survivors) == 15


class TestExecute:
    def test_restores_full_connectivity(self):
        overlay = populated_overlay(k=3, size=16)
        report = execute_repair(overlay, ["p2", "p9"])
        assert report.connectivity_before >= 1  # k-1 crashes never disconnect
        assert report.connectivity_after == 3
        assert report.restored

    def test_members_removed(self):
        overlay = populated_overlay()
        execute_repair(overlay, ["p5"])
        assert "p5" not in overlay.members
        assert overlay.size == 15

    def test_repair_into_bootstrap_regime(self):
        overlay = populated_overlay(k=3, size=7)
        report = execute_repair(overlay, ["p0", "p1"])  # 5 < 2k survivors
        # bootstrap complete graph on 5 nodes: 4-connected
        assert report.connectivity_after >= 3


class TestCycle:
    def test_unbounded_total_failures_with_bounded_bursts(self):
        k = 3
        overlay = populated_overlay(k=k, size=24)
        bursts = [
            ["p0", "p1"],
            ["p2", "p3"],
            ["p4", "p5"],
            ["p6", "p7"],
        ]  # 8 total failures >> k-1, in bursts of k-1
        reports = crash_repair_cycle(overlay, bursts)
        for report in reports:
            # damaged topology always stayed connected (burst <= k-1) ...
            assert report.connectivity_before >= 1
            # ... and each repair restored full strength
            assert report.connectivity_after == k
        assert overlay.size == 16
        assert node_connectivity(overlay.topology()) == k


class TestDegradedBurst:
    """Bursts beyond k-1 degrade gracefully instead of raising."""

    def test_k_sized_burst_reports_degraded(self):
        k = 3
        overlay = populated_overlay(k=k, size=16)
        report = execute_repair(overlay, ["p1", "p4", "p9"])  # k > k-1
        assert report.k == k
        assert report.burst_size == k
        assert report.degraded  # guarantee voided, recorded as data
        # rebuild is still best-effort full strength over the survivors
        assert report.restored
        assert report.connectivity_after == k

    def test_partitioning_burst_records_components(self):
        k = 3
        overlay = populated_overlay(k=k, size=16)
        # isolate one member by crashing its entire neighborhood
        topology = overlay.topology()
        victim = min(
            overlay.members, key=lambda m: (len(topology.neighbors(m)), m)
        )
        burst = sorted(topology.neighbors(victim))
        report = execute_repair(overlay, burst)  # must NOT raise
        assert report.partitioned
        assert report.degraded
        assert len(report.components_before) > 1
        assert 1 in report.components_before  # the isolated victim
        assert sum(report.components_before) == 16 - len(burst)
        # the repair reconnected and restored the survivors regardless
        assert report.restored
        assert node_connectivity(overlay.topology()) == k

    def test_within_contract_burst_is_not_degraded(self):
        overlay = populated_overlay(k=3, size=16)
        report = execute_repair(overlay, ["p2", "p11"])  # k-1 crashes
        assert not report.degraded
        assert not report.partitioned
        assert report.components_before == (14,)


class TestLazyConnectivityBefore:
    """No κ sweep the certificate or the reader does not ask for."""

    def test_no_sweep_on_the_damaged_graph_until_read(self, repair_sweeps):
        swept = repair_sweeps
        overlay = populated_overlay(k=3, size=16)
        crashed = ["p2", "p9"]
        damaged = overlay.topology().without_nodes(set(crashed))
        report = execute_repair(overlay, crashed)
        # the certificate binds to the repaired overlay: no sweep at all
        assert swept == []
        assert report.connectivity_after == node_connectivity(overlay.topology())
        before = report.connectivity_before
        assert len(swept) == 1 and swept[0] is report.damaged
        assert before == node_connectivity(damaged)
        assert report.connectivity_before == before
        assert len(swept) == 1  # cached: the second read sweeps nothing

    def test_one_sweep_when_the_certificate_does_not_bind(
        self, monkeypatch, repair_sweeps
    ):
        import repro.overlay.membership as membership

        overlay = populated_overlay(k=3, size=16)
        build = membership.build_lhg

        def dropping_one_edge(n, k, rule="auto"):
            graph, certificate = build(n, k, rule=rule)
            graph.remove_edge(*next(graph.iter_edges()))
            return graph, certificate

        monkeypatch.setattr(membership, "build_lhg", dropping_one_edge)
        report = execute_repair(overlay, ["p2", "p9"])
        assert len(repair_sweeps) == 1 and repair_sweeps[0] is not report.damaged
        assert report.connectivity_after == node_connectivity(overlay.topology())
        assert report.connectivity_after < 3
