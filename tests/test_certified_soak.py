"""Certified soak verifies and repair connectivity.

After a rebuild the overlay is the relabelled ``build_lhg(n, k)`` graph,
and it keeps that construction's certificate.  A verifier trusts the
certificate only once a full audit binds it to the topology the floods
walk; otherwise it runs the exact checkers.  These tests pin the three
halves of that contract:

* **mutants** — a rewired, dropped or swapped member edge, a slot map
  that is not injective and a certificate for another n must each fall
  through to the exact verdict, and to a κ sweep for
  ``connectivity_after``, never to an unearned pass;
* **parity** — a certified soak report is byte-identical to one whose
  binding always fails, and certified ``connectivity_after`` equals the
  exact node connectivity along random join/crash sequences;
* **observability** — every check emits one ``verify.<rule>`` counter,
  the ``soak-verify`` span carries the rule, and tracing stays passive.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
import repro.overlay.membership as membership
from repro.core.certificates import ConstructionCertificate
from repro.core.existence import build_lhg
from repro.errors import GraphError
from repro.graphs.connectivity import node_connectivity
from repro.graphs.faultview import FaultView
from repro.graphs.graph import Graph
from repro.graphs.implicit import ImplicitJDOracle
from repro.overlay.membership import LHGOverlay
from repro.overlay.repair import execute_repair
from repro.robustness.invariants import check_topology_invariants
from repro.service import SoakConfig, run_soak

#: (k, size) of the overlays the mutants are cut from.
OVERLAYS = [(2, 13), (3, 20), (4, 27)]


def grown(k, size):
    overlay = LHGOverlay(k=k)
    for i in range(size):
        overlay.join(f"p{i}")
    return overlay


# ----------------------------------------------------------------------
# Graph mutants (each edits ``graph`` in place)
# ----------------------------------------------------------------------


def _degree_k_edge(graph, k):
    """An edge (u, v) whose end v has degree exactly k."""
    return next((u, v) for u, v in graph.iter_edges() if graph.degree(v) == k)


def drop_edge(graph, k):
    """Remove one edge: its degree-k end falls to k − 1, so κ < k."""
    graph.remove_edge(*_degree_k_edge(graph, k))


def rewire_edge(graph, k):
    """Move one end of an edge: its degree-k end keeps only k − 1 links."""
    u, v = _degree_k_edge(graph, k)
    w = next(x for x in graph.nodes() if x not in (u, v) and not graph.has_edge(u, x))
    graph.remove_edge(u, v)
    graph.add_edge(u, w)


def swap_edges(graph, k):
    """Replace (a, b), (c, d) by (a, c), (b, d): every degree is kept."""
    edges = list(graph.iter_edges())
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if len({a, b, c, d}) == 4 and not (
                graph.has_edge(a, c) or graph.has_edge(b, d)
            ):
                graph.remove_edge(a, b)
                graph.remove_edge(c, d)
                graph.add_edge(a, c)
                graph.add_edge(b, d)
                return
    raise AssertionError("no swappable edge pair")


GRAPH_MUTANTS = {
    "rewired-edge": rewire_edge,
    "dropped-edge": drop_edge,
    "swapped-edges": swap_edges,
}


def _merge_two_slots(overlay):
    """Point a second member at the first member's slot."""
    first, second = overlay.members[:2]
    overlay._slot_of[second] = overlay._slot_of[first]


class TestMutantVerdicts:
    """Every mutant gets the exact verdict, never an unearned ``[]``."""

    @pytest.mark.parametrize("k,size", OVERLAYS)
    def test_sound_overlay_binds(self, k, size):
        topology, certificate = grown(k, size).certified_topology()
        assert certificate.bound_proofs(topology).all_hold
        verdict = check_topology_invariants(topology, k, certificate=certificate)
        assert verdict == [] and verdict.rule == "certificate"

    @pytest.mark.parametrize("mutant", sorted(GRAPH_MUTANTS))
    @pytest.mark.parametrize("k,size", OVERLAYS)
    def test_edge_mutant_falls_through(self, mutant, k, size):
        topology, certificate = grown(k, size).certified_topology()
        GRAPH_MUTANTS[mutant](topology, k)
        assert certificate.bound_proofs(topology) is None
        exact = check_topology_invariants(topology, k)
        if mutant != "swapped-edges":
            # a node kept only k − 1 links: the graph is broken
            assert "P1-node-connectivity" in {v.invariant for v in exact}
        for exact_limit in (4, 512):
            verdict = check_topology_invariants(
                topology, k, certificate=certificate, exact_limit=exact_limit
            )
            assert verdict == exact and verdict.rule == "exact"

    @pytest.mark.parametrize("broken", [False, True], ids=["sound", "dropped-edge"])
    @pytest.mark.parametrize("k,size", OVERLAYS)
    def test_non_injective_slot_map_falls_through(self, broken, k, size):
        overlay = grown(k, size)
        _merge_two_slots(overlay)
        with pytest.raises(GraphError):
            overlay.topology().relabeled(overlay.slot_assignment())
        topology, certificate = overlay.certified_topology()
        assert certificate is None and topology == overlay.topology()
        if broken:
            drop_edge(topology, k)
        verdict = check_topology_invariants(topology, k, certificate=certificate)
        assert verdict == check_topology_invariants(topology, k)
        assert verdict.rule == "exact"
        assert bool(verdict) is broken

    @pytest.mark.parametrize("broken", [False, True], ids=["sound", "dropped-edge"])
    @pytest.mark.parametrize("k,size", OVERLAYS)
    def test_certificate_for_another_n_falls_through(self, broken, k, size):
        topology, _ = grown(k, size).certified_topology()
        _, other = build_lhg(size + 1, k)
        if broken:
            drop_edge(topology, k)
        verdict = check_topology_invariants(topology, k, certificate=other)
        assert verdict == check_topology_invariants(topology, k)
        assert verdict.rule == "exact"
        assert bool(verdict) is broken


# ----------------------------------------------------------------------
# connectivity_after on mutant overlays
# ----------------------------------------------------------------------


def _mutate_construction(monkeypatch, mutate):
    """Make every later rebuild use ``mutate(n, k, graph, certificate)``."""
    build = membership.build_lhg

    def mutated(n, k, rule="auto"):
        graph, certificate = build(n, k, rule=rule)
        return mutate(n, k, graph, certificate)

    monkeypatch.setattr(membership, "build_lhg", mutated)


def _edge_mutant(name):
    def mutate(n, k, graph, certificate):
        GRAPH_MUTANTS[name](graph, k)
        return graph, certificate

    return mutate


def _other_n_mutant(n, k, graph, certificate):
    return graph, build_lhg(n + 1, k)[1]


CONSTRUCTION_MUTANTS = {name: _edge_mutant(name) for name in GRAPH_MUTANTS}
CONSTRUCTION_MUTANTS["certificate-for-another-n"] = _other_n_mutant


class TestMutantRepairs:
    """A mutant overlay always pays the κ sweep for connectivity_after."""

    @pytest.mark.parametrize("mutant", sorted(CONSTRUCTION_MUTANTS))
    @pytest.mark.parametrize("k,size", OVERLAYS)
    def test_construction_mutant_sweeps(
        self, monkeypatch, repair_sweeps, mutant, k, size
    ):
        overlay = grown(k, size)
        _mutate_construction(monkeypatch, CONSTRUCTION_MUTANTS[mutant])
        report = execute_repair(overlay, overlay.members[: k - 1])
        assert len(repair_sweeps) == 1
        assert report.connectivity_after == node_connectivity(overlay.topology())
        topology, certificate = overlay.certified_topology()
        verdict = check_topology_invariants(topology, k, certificate=certificate)
        assert verdict.rule == "exact"
        assert verdict == check_topology_invariants(topology, k)

    @pytest.mark.parametrize("k,size", OVERLAYS)
    def test_non_injective_slot_map_sweeps(self, monkeypatch, repair_sweeps, k, size):
        overlay = grown(k, size)
        assign = LHGOverlay._assign_slots

        def merging(self, slot_labels):
            assign(self, slot_labels)
            _merge_two_slots(self)

        monkeypatch.setattr(LHGOverlay, "_assign_slots", merging)
        # one crash, one rebuild: the merged map is never fed back in
        report = execute_repair(overlay, overlay.members[-1:])
        assert len(repair_sweeps) == 1
        assert report.connectivity_after == node_connectivity(overlay.topology())


# ----------------------------------------------------------------------
# Parity: certified == exact
# ----------------------------------------------------------------------


def _never_binds(monkeypatch):
    monkeypatch.setattr(
        ConstructionCertificate, "bound_proofs", lambda self, graph: None
    )


def _soak_config(population, k, seed):
    return SoakConfig(
        population=population,
        k=k,
        duration=24,
        churn_rate=0.4,
        flood_rate=3.0,
        verify_every=5,
        bursts=((3, k - 1), (8, k)),
        seed=seed,
    )


def _counted_soak(config):
    collector = obs.install()
    try:
        report = run_soak(config)
    finally:
        obs.uninstall()
    return report, collector


class TestSoakParity:
    @pytest.mark.parametrize(
        "population,k,seed",
        [(48, k, seed) for k in (2, 3, 4) for seed in (1, 2)]
        + [(200, k, 1) for k in (2, 3, 4)],
    )
    def test_report_matches_a_run_that_never_binds(
        self, monkeypatch, population, k, seed
    ):
        config = _soak_config(population, k, seed)
        certified, collector = _counted_soak(config)
        counters = collector.metrics.counters
        assert certified["repair"]["episodes"] >= 2
        assert counters["verify.certificate"] == certified["verify"]["runs"]
        assert "verify.exact" not in counters
        _never_binds(monkeypatch)
        exact, collector = _counted_soak(config)
        assert collector.metrics.counters["verify.exact"] == exact["verify"]["runs"]
        assert exact.to_json() == certified.to_json()

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 4), data=st.data())
    def test_certified_connectivity_after_is_exact(self, k, data):
        size = data.draw(st.integers(k + 1, 2 * k + 12), label="size")
        overlay = grown(k, size)
        joined = size
        steps = data.draw(
            st.lists(st.integers(0, k), min_size=1, max_size=6), label="steps"
        )
        for burst in steps:
            if burst == 0 or overlay.size - burst < 2:
                overlay.join(f"p{joined}")
                joined += 1
            else:
                victims = data.draw(
                    st.lists(
                        st.sampled_from(overlay.members),
                        min_size=burst,
                        max_size=burst,
                        unique=True,
                    ),
                    label="victims",
                )
                report = execute_repair(overlay, victims)
                topology = overlay.topology()
                assert report.connectivity_after == node_connectivity(topology)
            topology, certificate = overlay.certified_topology()
            if overlay.in_lhg_regime():
                assert certificate.bound_proofs(topology) is not None
            else:
                assert certificate is None


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def _verify_counters(*args, **kwargs):
    collector = obs.install()
    try:
        verdict = check_topology_invariants(*args, **kwargs)
    finally:
        obs.uninstall()
    return verdict, collector.metrics.counters


class TestVerifyRuleCounters:
    def test_each_call_counts_one_rule(self):
        graph, certificate = build_lhg(20, 3)
        damaged = graph.copy()
        drop_edge(damaged, 3)
        cases = [
            ((graph, 3), {"certificate": certificate}, "certificate"),
            ((damaged, 3), {"certificate": certificate}, "exact"),
            ((graph, 3), {}, "exact"),
            ((ImplicitJDOracle(600, 3), 3), {}, "certificate"),
            ((Graph(edges=[(0, 1), (1, 2), (2, 0)]), 3), {"expect_lhg": False}, "exact"),
            ((Graph(nodes=[0]), 3), {}, "exact"),
        ]
        for args, kwargs, rule in cases:
            verdict, counters = _verify_counters(*args, **kwargs)
            assert verdict.rule == rule
            assert counters == {f"verify.{rule}": 1}, (args, kwargs)

    def test_fault_view_counts_under_recertify(self):
        verdict, counters = _verify_counters(FaultView(ImplicitJDOracle(22, 3)), 3)
        assert verdict == [] and verdict.rule == "recertify"
        assert counters == {"recertify.exact": 1}


class TestTracedSoak:
    def test_traced_report_is_byte_identical(self):
        config = _soak_config(48, 3, 7)
        quiet = run_soak(config).to_json()
        traced, collector = _counted_soak(config)
        assert traced.to_json() == quiet
        runs = json.loads(quiet)["verify"]["runs"]
        closes = [
            event
            for event in collector.events
            if event["kind"] == "span-close" and event["name"] == "soak-verify"
        ]
        assert runs >= 2 and len(closes) == runs
        assert {event["attrs"]["rule"] for event in closes} == {"certificate"}
