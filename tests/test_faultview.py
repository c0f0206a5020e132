"""The fault layer: FaultView, failure-aware rounds, attacks, recertification.

Three equivalences are pinned here:

* a :class:`FaultView` over any backend answers every structural
  question exactly like the *materialised* survivor graph (census
  parity: neighbourhoods, degrees, BFS layerings, diameters, floods);
* :func:`round_flood` under a failure schedule matches the
  event-driven simulator's ``FloodResult`` field for field on the same
  schedule;
* every targeted k−1 attack derived from the JD arithmetic leaves a
  survivor component the recertifier passes on the pristine
  certificate alone, while a missing, forged or unusable certificate
  falls through to the exact or explicitly inconclusive rules.

Plus the laziness regression: ``survivors()`` on an oracle input must
never materialise a dict Graph.
"""

import pytest

from repro import obs
from repro.core.certificates import PropertyWitness, StructuralProofs
from repro.core.jenkins_demers import jd_feasibility
from repro.errors import GraphError, NodeNotFoundError, SimulationError
from repro.flooding.experiments import run_flood
from repro.flooding.failures import FailureSchedule, survivors
from repro.flooding.rounds import round_flood
from repro.graphs import (
    CSRGraph,
    FaultView,
    Graph,
    ImplicitJDOracle,
    component_size,
    id_bound,
    materialize,
)
from repro.graphs.traversal import bfs_levels, diameter, is_connected
from repro.robustness.attacks import AttackPlan, targeted_cut_attacks
from repro.robustness.invariants import recertify_survivors

CENSUS = [
    (n, k)
    for k in range(2, 6)
    for n in range(2 * k, 2 * k + 20)
    if jd_feasibility(n, k) is not None
]

SPOT = [(4, 2), (10, 3), (22, 3), (16, 4), (26, 5)]


def _pinned_schedules(n, k):
    """Deterministic failure schedules exercising every engine branch."""
    mid, last = n // 2, n - 1
    return [
        FailureSchedule().crash(last, time=0.0),
        FailureSchedule().crash(mid, time=2.0),
        FailureSchedule().fail_link(0, 1, time=0.0),
        FailureSchedule().fail_link(mid, (mid + 1) % n, time=1.0),
        FailureSchedule().crash(mid, time=1.0).recover(mid, time=3.0),
        FailureSchedule()
        .crash(last, time=0.0)
        .fail_link(0, 2, time=2.0)
        .restore_link(0, 2, time=4.0),
        FailureSchedule().crash(mid, time=1.5).fail_link(1, 2, time=2.5),
    ]


class TestFaultViewBasics:
    def setup_method(self):
        self.oracle = ImplicitJDOracle(22, 3)

    def test_down_node_is_not_a_node(self):
        view = FaultView(self.oracle, down_nodes=[5])
        assert not view.has_node(5)
        assert 5 not in view
        assert view.num_nodes() == 21
        assert len(view) == 21
        assert 5 not in view.nodes()
        with pytest.raises(NodeNotFoundError):
            view.neighbors(5)
        with pytest.raises(NodeNotFoundError):
            view.degree(5)

    def test_down_node_vanishes_from_neighbourhoods(self):
        victim = self.oracle.neighbors(0)[0]
        view = FaultView(self.oracle, down_nodes=[victim])
        assert victim not in view.neighbors(0)
        assert view.degree(0) == self.oracle.degree(0) - 1

    def test_killed_link_gone_from_both_ends(self):
        u = 0
        v = self.oracle.neighbors(0)[0]
        view = FaultView(self.oracle, killed_links=[(u, v)])
        assert v not in view.neighbors(u)
        assert u not in view.neighbors(v)
        assert not view.has_edge(u, v)
        assert view.num_nodes() == 22
        assert view.number_of_edges() == self.oracle.number_of_edges() - 1

    def test_unknown_failures_are_noops(self):
        view = FaultView(
            self.oracle, down_nodes=[999], killed_links=[(0, 999), (1, 1)]
        )
        assert view.damage == 0
        assert view.num_nodes() == 22
        assert view.number_of_edges() == self.oracle.number_of_edges()

    def test_kill_incident_to_down_node_not_double_counted(self):
        v = self.oracle.neighbors(0)[0]
        view = FaultView(self.oracle, down_nodes=[v], killed_links=[(0, v)])
        # the link died with its endpoint; edge accounting stays exact
        assert view.killed_links == frozenset()
        assert view.number_of_edges() == materialize(view).number_of_edges()

    def test_edge_count_exact_under_mixed_damage(self):
        down = [3, 7]
        alive_u = 0
        alive_v = next(
            w for w in self.oracle.neighbors(0) if w not in down
        )
        view = FaultView(
            self.oracle, down_nodes=down, killed_links=[(alive_u, alive_v)]
        )
        assert view.number_of_edges() == materialize(view).number_of_edges()

    def test_id_bound_propagates_through_nesting(self):
        view = FaultView(self.oracle, down_nodes=[4])
        assert id_bound(view) == 22
        nested = FaultView(view, down_nodes=[6])
        assert id_bound(nested) == 22
        assert nested.num_nodes() == 20
        assert not nested.has_node(4) and not nested.has_node(6)

    def test_dict_graph_base_has_no_id_bound(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        view = FaultView(graph, down_nodes=["c"])
        assert id_bound(view) is None
        assert view.nodes() == ["a", "b"]

    def test_damage_frontier(self):
        victim = 5
        around = set(self.oracle.neighbors(victim))
        u, v = 0, self.oracle.neighbors(0)[0]
        view = FaultView(
            self.oracle, down_nodes=[victim], killed_links=[(u, v)]
        )
        frontier = set(view.damage_frontier())
        assert around - {victim} <= frontier | {victim}
        assert u in frontier and v in frontier
        assert victim not in frontier

    def test_no_structural_proofs_forwarding(self):
        view = FaultView(self.oracle, down_nodes=[1])
        assert not hasattr(view, "structural_proofs")


class TestComponentSize:
    def test_counts_the_component(self):
        graph = Graph(edges=[(0, 1), (1, 2), (3, 4)])
        assert component_size(graph, 0) == 3
        assert component_size(graph, 3) == 2

    def test_unknown_source_raises(self):
        with pytest.raises(NodeNotFoundError):
            component_size(Graph(nodes=[0]), 9)

    @pytest.mark.parametrize("n,k", SPOT)
    def test_matches_bfs_on_views(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        view = FaultView(oracle, down_nodes=[n - 1])
        source = next(iter(view.iter_nodes()))
        assert component_size(view, source) == len(bfs_levels(view, source))


class TestSurvivorsLaziness:
    """Satellite: survivors() must stay O(#failures) for oracle inputs."""

    def test_oracle_input_returns_fault_view(self):
        oracle = ImplicitJDOracle(22, 3)
        schedule = FailureSchedule().crash(3).fail_link(0, 1)
        view = survivors(oracle, schedule)
        assert isinstance(view, FaultView)
        assert view.base is oracle
        assert not view.has_node(3)
        assert not view.has_edge(0, 1)

    def test_csr_input_returns_fault_view(self):
        csr = CSRGraph.from_oracle(ImplicitJDOracle(22, 3))
        assert isinstance(survivors(csr, FailureSchedule().crash(0)), FaultView)

    def test_graph_input_still_returns_graph(self):
        graph = materialize(ImplicitJDOracle(10, 3))
        result = survivors(graph, FailureSchedule().crash(3))
        assert isinstance(result, Graph)
        assert not result.has_node(3)

    def test_no_graph_materialised_for_oracle_input(self, monkeypatch):
        # regression: the old path built a dict Graph of all n nodes;
        # poison every Graph-construction entry point and prove the
        # oracle path never touches one
        oracle = ImplicitJDOracle(100, 3)
        schedule = FailureSchedule().crash(7).fail_link(0, 3)

        def boom(*args, **kwargs):
            raise AssertionError(
                "survivors() materialised a Graph for an oracle input"
            )

        monkeypatch.setattr(Graph, "__init__", boom)
        monkeypatch.setattr(
            "repro.graphs.oracle.materialize", boom, raising=True
        )
        view = survivors(oracle, schedule)
        assert isinstance(view, FaultView)
        assert view.num_nodes() == 99

    def test_view_state_is_independent_of_n(self):
        import tracemalloc

        oracle = ImplicitJDOracle(10**6, 3)
        tracemalloc.start()
        try:
            view = FaultView(oracle, [0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert view.id_bound == 10**6
        assert peak < 64 * 1024


class TestCensusParityWithMaterialisedSurvivors:
    """FaultView must be indistinguishable from the materialised cut."""

    @pytest.mark.parametrize("n,k", CENSUS)
    def test_structure_matches(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        schedule = (
            FailureSchedule()
            .crash(n - 1)
            .fail_link(0, oracle.neighbors(0)[0])
        )
        view = survivors(oracle, schedule)
        expected = survivors(materialize(oracle), schedule)
        assert isinstance(view, FaultView)
        assert isinstance(expected, Graph)
        assert sorted(view.nodes()) == sorted(expected.nodes())
        assert view.number_of_edges() == expected.number_of_edges()
        for node in expected.nodes():
            assert sorted(view.neighbors(node)) == sorted(
                expected.neighbors(node)
            )
            assert view.degree(node) == expected.degree(node)

    @pytest.mark.parametrize("n,k", SPOT)
    def test_algorithms_match(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        schedule = FailureSchedule().crash(n // 2)
        view = survivors(oracle, schedule)
        expected = survivors(materialize(oracle), schedule)
        source = next(iter(view.iter_nodes()))
        assert bfs_levels(view, source) == bfs_levels(expected, source)
        if is_connected(expected):
            assert diameter(view) == diameter(expected)
        flood_view = round_flood(view, source)
        flood_graph = round_flood(expected, source)
        assert flood_view.covered == flood_graph.covered
        assert flood_view.messages == flood_graph.messages
        assert flood_view.rounds == flood_graph.rounds


class TestRoundFloodUnderFailures:
    """The rounds engine vs the event simulator: same schedule, same result."""

    @pytest.mark.parametrize("n,k", CENSUS)
    def test_parity_with_event_simulator(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        graph = materialize(oracle)
        for schedule in _pinned_schedules(n, k):
            rounds = round_flood(oracle, 0, schedule=schedule)
            event = run_flood(graph, 0, failures=schedule)
            label = (n, k, schedule)
            assert rounds.covered == event.covered, label
            assert rounds.messages == event.messages, label
            assert rounds.completion_time == event.completion_time, label
            assert rounds.alive == event.alive, label
            assert rounds.reachable == event.reachable, label
            assert rounds.delivery_ratio == event.delivery_ratio, label

    @pytest.mark.parametrize("backend", ["implicit", "csr", "dict"])
    def test_parity_across_backends(self, backend):
        n, k = 22, 3
        oracle = ImplicitJDOracle(n, k)
        if backend == "csr":
            oracle = CSRGraph.from_oracle(oracle)
        elif backend == "dict":
            oracle = materialize(oracle)
        graph = materialize(ImplicitJDOracle(n, k))
        schedule = FailureSchedule().crash(5, time=1.0).fail_link(0, 1)
        rounds = round_flood(oracle, 0, schedule=schedule)
        event = run_flood(graph, 0, failures=schedule)
        assert (rounds.covered, rounds.messages, rounds.completion_time) == (
            event.covered,
            event.messages,
            event.completion_time,
        )

    def test_late_cut_splits_reachable_below_covered(self):
        # the cycle 0-1-6-4-3-5-7-2 splits after the flood crossed it:
        # covered == alive, yet the final survivor component is smaller
        oracle = ImplicitJDOracle(8, 2)
        schedule = FailureSchedule().fail_link(0, 2, time=10.0).fail_link(4, 6, time=10.0)
        rounds = round_flood(oracle, 0, schedule=schedule)
        event = run_flood(materialize(oracle), 0, failures=schedule)
        assert rounds.covered == rounds.alive == 8
        assert rounds.reachable == event.reachable == 3
        assert rounds.messages == event.messages

    def test_source_crashed_at_start_raises(self):
        oracle = ImplicitJDOracle(10, 3)
        with pytest.raises(SimulationError, match="crashed at start"):
            round_flood(oracle, 0, schedule=FailureSchedule().crash(0))

    def test_invalid_loss_rate_raises(self):
        oracle = ImplicitJDOracle(10, 3)
        with pytest.raises(SimulationError, match="loss_rate"):
            round_flood(oracle, 0, loss_rate=1.5)

    def test_loss_is_seed_stable(self):
        oracle = ImplicitJDOracle(50, 3)
        first = round_flood(oracle, 0, loss_rate=0.3, loss_seed=7)
        again = round_flood(oracle, 0, loss_rate=0.3, loss_seed=7)
        other = round_flood(oracle, 0, loss_rate=0.3, loss_seed=8)
        assert (first.covered, first.messages) == (again.covered, again.messages)
        assert first.covered <= first.reachable == 50
        # a different seed draws a different loss pattern (overwhelmingly)
        assert (first.covered, first.messages, first.round_sizes) != (
            other.covered,
            other.messages,
            other.round_sizes,
        ) or first.covered == 50

    @pytest.mark.parametrize("backend", ["implicit", "csr", "dict"])
    def test_lossy_flood_golden_values(self, backend):
        # loss draws are reproducible only against this engine: pin them
        oracle = ImplicitJDOracle(50, 3)
        expected = (46, 93, [1, 3, 6, 7, 7, 5, 5, 5, 4, 3])
        if backend == "csr":
            oracle = CSRGraph.from_oracle(oracle)
        elif backend == "dict":
            # set iteration order differs from the arithmetic order
            oracle = materialize(oracle)
            expected = (49, 99, [1, 3, 6, 7, 7, 5, 5, 5, 5, 4, 1])
        flood = round_flood(oracle, 0, loss_rate=0.3, loss_seed=7)
        assert (flood.covered, flood.messages, flood.round_sizes) == expected

    def test_lossy_flood_under_failures_golden_values(self):
        oracle = ImplicitJDOracle(50, 3)
        schedule = (
            FailureSchedule()
            .crash(25, time=1.0)
            .recover(25, time=3.0)
            .fail_link(0, 1, time=0.0)
        )
        flood = round_flood(oracle, 0, schedule=schedule, loss_rate=0.2, loss_seed=3)
        assert (flood.covered, flood.messages, flood.alive, flood.reachable) == (
            49,
            98,
            50,
            50,
        )
        assert flood.round_sizes == [
            1, 1, 2, 4, 4, 2, 1, 1, 2, 3, 3, 2, 4, 4, 3, 2, 2, 3, 2, 2, 1
        ]

    def test_no_failure_schedule_same_as_no_schedule(self):
        oracle = ImplicitJDOracle(22, 3)
        plain = round_flood(oracle, 0)
        empty = round_flood(oracle, 0, schedule=FailureSchedule())
        assert plain.covered == empty.covered == 22
        assert plain.messages == empty.messages


class TestTargetedAttacks:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_plans_stay_within_budget(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        plans = targeted_cut_attacks(oracle)
        assert plans
        for plan in plans:
            assert 1 <= plan.damage <= k - 1

    def test_rejects_non_implicit_backends(self):
        with pytest.raises(GraphError, match="implicit"):
            targeted_cut_attacks(Graph(edges=[(0, 1)]))

    def test_validation_rejects_bad_plans(self):
        oracle = ImplicitJDOracle(10, 3)
        from repro.robustness.attacks import _validate

        with pytest.raises(GraphError, match="damage"):
            _validate(AttackPlan(name="x"), oracle, 2)
        with pytest.raises(GraphError, match="unknown node"):
            _validate(AttackPlan(name="x", crashes=(999,)), oracle, 2)
        with pytest.raises(GraphError, match="non-edge"):
            _validate(
                AttackPlan(name="x", link_kills=((0, 999),)), oracle, 2
            )

    @pytest.mark.parametrize("n,k", SPOT)
    def test_survivors_stay_connected_and_floodable(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        for plan in targeted_cut_attacks(oracle):
            schedule = plan.schedule()
            view = survivors(oracle, schedule)
            source = plan.surviving_source(oracle)
            assert component_size(view, source) == view.num_nodes(), plan.name
            flood = round_flood(oracle, source, schedule=schedule)
            assert flood.fully_covered, plan.name
            assert flood.covered == view.num_nodes(), plan.name


def _forbidden(*args, **kwargs):
    raise AssertionError("this recertification rule must not walk the view")


def _recertify_counted(view, k, **kwargs):
    """``recertify_survivors`` under a collector: (violations, counters)."""
    collector = obs.install()
    try:
        violations = recertify_survivors(view, k, **kwargs)
    finally:
        obs.uninstall()
    return violations, collector.metrics.counters


def _two_jd_halves():
    """Two JD(400, 3) copies joined by the links (0, 400) and (1, 401), as CSR.

    Each half is 3-connected, but the pair is only 2-connected: killing
    one joining link leaves κ = 1 < k − damage = 2.  CSR carries no
    structural certificate, so nothing may vouch for the survivors.
    """
    half = ImplicitJDOracle(400, 3)
    graph = Graph()
    for v in half.iter_nodes():
        for w in half.neighbors(v):
            graph.add_edge(v, w)
            graph.add_edge(v + 400, w + 400)
    graph.add_edge(0, 400)
    graph.add_edge(1, 401)
    return CSRGraph.from_oracle(graph)


class _Certified:
    """A dict graph wearing a hand-made structural certificate.

    Every ``structural_proofs`` field can be forged, so the tests can
    show which certificates the recertifier trusts and which it must
    not.
    """

    def __init__(self, graph, k, p1=(True, True), p2=(True, True), n=None):
        self.graph = graph
        self.k = k
        self.verdicts = {"P1": p1, "P2": p2}
        self.n = graph.num_nodes() if n is None else n

    def __getattr__(self, name):
        return getattr(self.graph, name)

    def structural_proofs(self):
        witnesses = tuple(
            PropertyWitness(pid, holds=holds, conclusive=conclusive, argument="forged")
            for pid, (conclusive, holds) in self.verdicts.items()
        )
        return StructuralProofs(n=self.n, k=self.k, rule="forged", witnesses=witnesses)


def _ring():
    """A ring of 12 nodes: κ = 2, so one crash leaves a path with κ = 1."""
    return Graph(edges=[(i, (i + 1) % 12) for i in range(12)])


class TestRecertification:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_attacked_survivors_certify_clean(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        for plan in targeted_cut_attacks(oracle):
            view = survivors(oracle, plan.schedule())
            assert recertify_survivors(view, k) == [], plan.name

    def test_large_n_certifies_by_certificate(self):
        oracle = ImplicitJDOracle(3000, 3)
        plan = targeted_cut_attacks(oracle)[0]
        view = survivors(oracle, plan.schedule())
        # exact_limit far below n: only the pristine certificate can pass
        violations, rules = _recertify_counted(view, 3, exact_limit=64)
        assert violations == []
        assert rules == {"recertify.certificate": 1}

    def test_detects_underbudget_disconnection(self):
        path = Graph(edges=[(0, 1), (1, 2)])
        view = FaultView(path, down_nodes=[1])
        violations = recertify_survivors(view, 2)
        assert any(v.invariant == "survivor-connectivity" for v in violations)

    def test_tolerates_at_budget_disconnection(self, monkeypatch):
        import repro.robustness.invariants as invariants

        monkeypatch.setattr(invariants, "component_size", _forbidden)
        cycle = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        view = FaultView(cycle, down_nodes=[1], killed_links=[(3, 0)])
        # damage == k: a partition is a legitimate outcome, not a bug,
        # and nothing is claimed, so nothing is walked
        assert _recertify_counted(view, 2) == ([], {"recertify.unclaimed": 1})

    def test_undamaged_view_delegates_to_base(self):
        oracle = ImplicitJDOracle(22, 3)
        view = FaultView(oracle)
        from repro.robustness.invariants import check_topology_invariants

        assert recertify_survivors(view, 3) == []
        assert check_topology_invariants(view, 3) == []

    def test_degree_floor_violation_detected(self):
        # a star minus its hub's links: leaves keep degree 0 < k−1
        star = Graph(edges=[("hub", i) for i in range(4)])
        view = FaultView(star, killed_links=[("hub", 0)])
        violations = recertify_survivors(view, 2)
        assert any(v.invariant == "survivor-degree" for v in violations)


class TestCertificateRule:
    """Which rule decides, and that only a sound certificate passes."""

    def test_two_jd_halves_link_kill_is_inconclusive(self):
        view = FaultView(_two_jd_halves(), killed_links=[(0, 400)])
        assert view.num_nodes() == 800 and view.damage == 1
        violations, rules = _recertify_counted(view, 3)
        assert [v.invariant for v in violations] == ["survivor-cut-inconclusive"]
        assert rules == {"recertify.inconclusive": 1}

    def test_two_jd_halves_exact_below_limit(self):
        view = FaultView(_two_jd_halves(), killed_links=[(0, 400)])
        violations, rules = _recertify_counted(view, 3, exact_limit=800)
        assert [v.invariant for v in violations] == ["survivor-connectivity"]
        assert "κ=1" in violations[0].detail
        assert rules == {"recertify.exact": 1}

    def test_forged_sound_certificate_is_trusted(self):
        # control: a conclusive, holding certificate is believed without
        # looking — which is why the forgeries below must be refused
        view = FaultView(_Certified(_ring(), 3), down_nodes=[0])
        assert _recertify_counted(view, 3) == ([], {"recertify.certificate": 1})

    @pytest.mark.parametrize(
        "forgery",
        [
            {"p1": (False, True)},
            {"p1": (False, False)},
            {"p2": (True, False)},
            {"p2": (False, True)},
            {"k": 2},
            {"n": 13},
        ],
        ids=["P1-inconclusive", "P1-unknown", "P2-failing", "P2-inconclusive",
             "k-too-small", "other-n"],
    )
    def test_unusable_certificate_falls_through(self, forgery):
        k = forgery.pop("k", 3)
        base = _Certified(_ring(), k, **forgery)
        view = FaultView(base, down_nodes=[0])
        # exact: the ring minus a node is a path, κ = 1 < k − damage = 2
        violations, rules = _recertify_counted(view, 3)
        assert "survivor-connectivity" in [v.invariant for v in violations]
        assert rules == {"recertify.exact": 1}
        # above exact_limit: explicitly inconclusive, never a pass
        violations, rules = _recertify_counted(view, 3, exact_limit=4)
        assert "survivor-cut-inconclusive" in [v.invariant for v in violations]
        assert rules == {"recertify.inconclusive": 1}

    def test_nested_view_base_has_no_certificate(self):
        oracle = ImplicitJDOracle(30, 3)
        leaf = 3 * oracle._m
        parents = oracle.neighbors(leaf)
        # the inner view strands the leaf on one link; the outer view's
        # own damage (one far link) must not borrow the JD certificate
        inner = FaultView(oracle, down_nodes=parents[:2])
        far = next(
            (u, w)
            for u in inner.iter_nodes()
            for w in inner.neighbors(u)
            if leaf not in (u, w) and parents[2] not in (u, w)
        )
        view = FaultView(inner, killed_links=[far])
        assert view.damage == 1 and inner.degree(leaf) == 1
        violations, rules = _recertify_counted(view, 3)
        assert "survivor-connectivity" in [v.invariant for v in violations]
        assert rules == {"recertify.exact": 1}
        violations, rules = _recertify_counted(view, 3, exact_limit=8)
        assert "survivor-cut-inconclusive" in [v.invariant for v in violations]

    def test_certificate_path_skips_bfs_and_frontier(self, monkeypatch):
        import repro.robustness.invariants as invariants

        monkeypatch.setattr(invariants, "component_size", _forbidden)
        monkeypatch.setattr(FaultView, "damage_frontier", _forbidden)
        oracle = ImplicitJDOracle(3000, 3)
        for plan in targeted_cut_attacks(oracle):
            assert recertify_survivors(survivors(oracle, plan.schedule()), 3) == []

    def test_counters_are_passive(self):
        oracle = ImplicitJDOracle(3000, 3)
        views = [survivors(oracle, plan.schedule()) for plan in targeted_cut_attacks(oracle)]
        views += [
            FaultView(_two_jd_halves(), killed_links=[(0, 400)]),
            FaultView(Graph(edges=[(0, 1), (1, 2)]), down_nodes=[1]),
            FaultView(Graph(edges=[(0, 1), (1, 2)]), down_nodes=[0, 1]),
            FaultView(ImplicitJDOracle(22, 3)),
        ]
        quiet = [recertify_survivors(view, 3) for view in views]
        counted = [_recertify_counted(view, 3) for view in views]
        assert [violations for violations, _ in counted] == quiet
        assert all(sum(rules.values()) == 1 for _, rules in counted)
