"""One rebuild per membership event.

Each join or leave rebuilds the overlay once and counts its churn per
member; a repair adopts the overlay copy its plan already rebuilt, and
the certificate is audited once per rebuild.  These tests pin:

* **churn parity** — every :class:`ChurnCost` equals the global
  edge-set diff, along random join/leave sequences that cross the
  n = 2k bootstrap boundary;
* **plan adoption** — a current plan is adopted without another
  rebuild, a stale one (the overlay changed, or another crashed set) is
  planned afresh with the same outcome as a fresh repair;
* **one rebuild per event** — after a soak with bursts the history has
  one entry per bootstrap join, join and crash;
* **one audit per rebuild** — a completed repair and the verify that
  follows it share one ``verify_graph`` audit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.certificates import ConstructionCertificate
from repro.graphs.graph import edge_key
from repro.overlay.membership import LHGOverlay
from repro.overlay.repair import execute_repair, plan_repair
from repro.service import SoakConfig
from repro.service.soak import SoakService


def reference_churn(before, after, members):
    """(added, removed, rewired) by the global edge-set diff."""
    old = {edge_key(u, v) for u, v in before.iter_edges()}
    new = {edge_key(u, v) for u, v in after.iter_edges()}
    added, removed = new - old, old - new
    touched = {node for pair in added | removed for node in pair}
    return len(added), len(removed), len(touched & set(members))


def grown(k, size):
    overlay = LHGOverlay(k=k)
    for i in range(size):
        overlay.join(f"p{i}")
    return overlay


def _counters(action):
    collector = obs.install()
    try:
        result = action()
    finally:
        obs.uninstall()
    return result, collector.metrics.counters


class TestChurnParity:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 4), data=st.data())
    def test_every_cost_equals_the_global_diff(self, k, data):
        overlay = LHGOverlay(k=k)
        # integer members share labels with the construction's slots,
        # so a member/slot mix-up cannot go unseen
        joined = 0
        for _ in range(data.draw(st.integers(0, 2 * k + 2), label="start")):
            overlay.join(joined)
            joined += 1
        steps = data.draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, 999)), max_size=12),
            label="steps",
        )
        for join, pick in steps:
            before = overlay.topology()
            if join or not overlay.size:
                cost = overlay.join(joined)
                joined += 1
            else:
                cost = overlay.leave(overlay.members[pick % overlay.size])
            assert (
                cost.edges_added,
                cost.edges_removed,
                cost.members_rewired,
            ) == reference_churn(before, overlay.topology(), overlay.members)
            assert cost.n_after == overlay.size == len(overlay.topology())


class TestPlanAdoption:
    def test_copy_starts_with_an_empty_history(self):
        overlay = grown(3, 16)
        clone = overlay.copy()
        assert len(overlay.history) == 16 and clone.history == []
        assert clone.topology() == overlay.topology()
        assert clone.slot_assignment() == overlay.slot_assignment()

    def test_current_plan_is_adopted_without_a_rebuild(self):
        overlay, twin = grown(3, 16), grown(3, 16)
        plan = plan_repair(overlay, ["p3", "p7"])
        report, counters = _counters(
            lambda: execute_repair(overlay, ["p7", "p3"], plan)
        )
        assert report.plan is plan
        assert "overlay.rebuild" not in counters
        fresh = execute_repair(twin, ["p3", "p7"])
        assert report == fresh
        assert overlay.topology() == twin.topology()
        assert overlay.slot_assignment() == twin.slot_assignment()
        assert overlay.history == twin.history
        assert len(overlay.history) == 16 + 2

    @pytest.mark.parametrize("change", ["join", "other-burst", "other-overlay"])
    def test_stale_plan_is_planned_afresh(self, change):
        overlay, twin = grown(3, 16), grown(3, 16)
        crashed = ["p3", "p7"]
        plan = plan_repair(overlay, crashed)
        if change == "join":
            overlay.join("late")
            twin.join("late")
        elif change == "other-burst":
            plan = plan_repair(overlay, ["p3"])
        else:
            plan = plan_repair(grown(3, 16), crashed)
        report, counters = _counters(
            lambda: execute_repair(overlay, crashed, plan)
        )
        assert report.plan is not plan
        assert counters["overlay.rebuild"] == len(crashed)
        fresh = execute_repair(twin, crashed)
        assert report == fresh
        assert overlay.topology() == twin.topology()
        assert overlay.slot_assignment() == twin.slot_assignment()
        assert overlay.history == twin.history

    def test_an_adopted_plan_is_not_adopted_again(self):
        overlay = grown(3, 16)
        plan = plan_repair(overlay, ["p3"])
        assert overlay.adopt(plan.repaired)
        assert not overlay.adopt(plan.repaired)
        assert len(overlay.history) == 17


def _soak(**overrides):
    settings = dict(
        population=24,
        k=3,
        duration=40,
        churn_rate=0.5,
        flood_rate=2.0,
        verify_every=10,
        bursts=((5, 2), (12, 4), (13, 1)),
        seed=3,
    )
    config = SoakConfig(**{**settings, **overrides})
    service = SoakService(config)
    report, counters = _counters(service.run)
    assert service._records[-1]["pending_repair"] == 0
    return config, service, report, counters


class TestOneRebuildPerEvent:
    @pytest.mark.parametrize("budget", [24, 10**6])
    def test_history_has_one_entry_per_event(self, budget):
        config, service, report, counters = _soak(repair_edge_budget=budget)
        churn = report["churn"]
        assert report["repair"]["episodes"] >= 2 and churn["crashes"] >= 7
        events = config.population + churn["joins"] + churn["crashes"]
        assert len(service._overlay.history) == events
        # every plan here completes in the tick it was made
        assert counters["overlay.rebuild"] == events

    def test_a_plan_gone_stale_across_ticks_is_planned_again(self):
        # 48 peers as in the benchmark's soak: joins land while a
        # repair spans ticks, so some plans are re-planned at completion
        config, service, report, counters = _soak(
            population=48, duration=60, churn_rate=0.3, flood_rate=1.0,
            verify_every=20, bursts=((15, 3), (40, 4)), seed=11,
        )
        churn = report["churn"]
        assert report["repair"]["restarts"] == 0
        events = config.population + churn["joins"] + churn["crashes"]
        assert len(service._overlay.history) == events
        assert counters["overlay.rebuild"] > events


class TestOneAuditPerRebuild:
    def test_a_repair_and_its_verify_share_one_audit(self, monkeypatch):
        audits = []
        verify_graph = ConstructionCertificate.verify_graph

        def counted(self, graph):
            audits.append(graph)
            return verify_graph(self, graph)

        monkeypatch.setattr(ConstructionCertificate, "verify_graph", counted)
        # only post-repair verifies: one per completed repair
        _, _, report, counters = _soak(verify_every=1000)
        episodes = report["repair"]["episodes"]
        assert episodes >= 2 and report["verify"]["runs"] == episodes
        assert len(audits) == episodes
        assert counters["verify.certificate"] == episodes
        assert "verify.exact" not in counters

    def test_an_edited_copy_is_audited_afresh(self):
        overlay = grown(3, 20)
        topology, certificate = overlay.certified_topology()
        topology.remove_edge(*next(topology.iter_edges()))
        assert certificate.bound_proofs(topology) is None
        again, same = overlay.certified_topology()
        assert same is certificate and again != topology
        assert certificate.bound_proofs(again).all_hold

    def test_a_rebuild_drops_the_binding(self):
        overlay = grown(3, 20)
        _, before = overlay.certified_topology()
        overlay.join("late")
        topology, after = overlay.certified_topology()
        assert after is not before
        assert before.bound_proofs(topology) is None
        assert after.bound_proofs(topology).n == 21
