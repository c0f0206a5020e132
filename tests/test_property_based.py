"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
from itertools import combinations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.existence import build_lhg, exists, regular_exists
from repro.core.jenkins_demers import (
    is_jd_constructible,
    jd_feasibility,
    jenkins_demers_graph,
)
from repro.core.kdiamond import kdiamond_graph, kdiamond_plan
from repro.core.ktree import ktree_graph, ktree_plan
from repro.core.properties import theoretical_diameter_bound
from repro.core.tree_schema import grown_schema
from repro.graphs.connectivity import (
    edge_connectivity,
    is_k_edge_connected,
    is_k_node_connected,
    local_edge_connectivity,
    local_node_connectivity,
    minimum_edge_cut,
    minimum_node_cut,
    node_connectivity,
    node_disjoint_paths,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators.harary import harary_graph, harary_minimum_edges
from repro.graphs.generators.random import gnp_random_graph
from repro.graphs.graph import Graph
from repro.graphs.implicit import ImplicitJDOracle
from repro.graphs.io import from_json, to_json
from repro.graphs.minimality import has_degree_witness_minimality
from repro.graphs.oracle import materialize
from repro.graphs.properties import is_k_regular
from repro.graphs.traversal import (
    bfs_levels,
    diameter,
    is_connected,
    is_simple_path,
    paths_internally_disjoint,
)
from tests.conftest import csr_bytes_pair

# Compact strategies: pairs stay small because connectivity checks are
# max-flow-heavy; the point is breadth of (n, k) shapes, not graph size.
ks = st.integers(min_value=2, max_value=5)
pair = ks.flatmap(
    lambda k: st.tuples(st.integers(min_value=2 * k, max_value=2 * k + 26), st.just(k))
)

slow = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _brute_separator(g, s, t):
    """Fewest nodes (other than s, t) whose removal cuts every s-t path."""
    others = [x for x in g.nodes() if x not in (s, t)]
    for size in range(len(others) + 1):
        for removed in combinations(others, size):
            if t not in bfs_levels(g.without_nodes(removed), s):
                return size
    return None  # s and t adjacent: no node set separates them


def _brute_kappa(g):
    """κ(G) by enumerating vertex subsets; n − 1 when none disconnects."""
    nodes = g.nodes()
    n = len(nodes)
    for size in range(n - 1):
        for removed in combinations(nodes, size):
            if not is_connected(g.without_nodes(removed)):
                return size
    return max(n - 1, 0)


def _crossing(g, side):
    return sum(1 for u, v in g.iter_edges() if (u in side) != (v in side))


def _brute_lambda(g):
    """λ(G) as the lightest bipartition of the node set."""
    first, *rest = g.nodes()
    best = None
    for size in range(len(rest)):
        for chosen in combinations(rest, size):
            cost = _crossing(g, {first, *chosen})
            best = cost if best is None else min(best, cost)
    return 0 if best is None else best


def _brute_local_lambda(g, s, t):
    rest = [x for x in g.nodes() if x not in (s, t)]
    return min(
        _crossing(g, {s, *chosen})
        for size in range(len(rest) + 1)
        for chosen in combinations(rest, size)
    )


small_graphs = st.builds(
    gnp_random_graph,
    st.integers(2, 9),
    st.floats(0.2, 0.9),
    seed=st.integers(0, 10**6),
)


class TestGraphStructure:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15))))
    def test_edge_insertion_invariants(self, raw_edges):
        g = Graph()
        for u, v in raw_edges:
            if u != v:
                g.add_edge(u, v)
        assert 2 * g.number_of_edges() == sum(g.degrees().values())
        for u, v in g.iter_edges():
            assert g.has_edge(v, u)

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40))
    def test_json_round_trip(self, raw_edges):
        g = Graph()
        for u, v in raw_edges:
            if u != v:
                g.add_edge(u, v)
        assert from_json(to_json(g)) == g

    @given(
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=30),
        st.integers(0, 10),
    )
    def test_remove_node_removes_all_incidences(self, raw_edges, victim):
        g = Graph(nodes=[victim])
        for u, v in raw_edges:
            if u != v:
                g.add_edge(u, v)
        g.remove_node(victim)
        assert victim not in g
        assert all(victim not in g.neighbors(u) for u in g)


class TestConnectivityAlgorithms:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 200), st.floats(0.15, 0.6))
    def test_local_connectivity_sandwich(self, seed, p):
        g = gnp_random_graph(10, p, seed=seed)
        nodes = g.nodes()
        s, t = nodes[0], nodes[-1]
        if g.has_edge(s, t):
            return
        kappa = local_node_connectivity(g, s, t)
        lam = local_edge_connectivity(g, s, t)
        assert kappa <= lam <= min(g.degree(s), g.degree(t))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100))
    def test_predicates_agree_with_removal_reality(self, seed):
        g = gnp_random_graph(9, 0.45, seed=seed)
        if not is_connected(g):
            return
        if is_k_node_connected(g, 2):
            # removing any single node leaves the graph connected
            for v in g.nodes():
                assert is_connected(g.without_nodes([v]))
        if is_k_edge_connected(g, 2):
            for e in g.edges():
                assert is_connected(g.without_edges([e]))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs)
    def test_flow_answers_match_brute_force(self, g):
        # one compiled network answers every pair of a sweep, so a residual
        # left over from the previous query would show up here
        n = g.number_of_nodes()
        kappa = _brute_kappa(g)
        lam = _brute_lambda(g)
        assert node_connectivity(g) == kappa
        assert edge_connectivity(g) == lam
        for k in range(1, 5):
            assert is_k_node_connected(g, k) == (n > k and kappa >= k)
            assert is_k_edge_connected(g, k) == (lam >= k)
        for s, t in combinations(g.nodes(), 2):
            if g.has_edge(s, t):
                # Menger: the edge st plus the disjoint paths of G - st
                expected = 1 + _brute_separator(g.without_edges([(s, t)]), s, t)
            else:
                expected = _brute_separator(g, s, t)
                assert local_edge_connectivity(g, s, t) == _brute_local_lambda(g, s, t)
            assert local_node_connectivity(g, s, t) == expected
            paths = node_disjoint_paths(g, s, t)
            assert len(paths) == expected
            assert paths_internally_disjoint(paths)
            assert all(p[0] == s and p[-1] == t and is_simple_path(g, p) for p in paths)
        if not is_connected(g):
            return
        node_cut = minimum_node_cut(g)
        if kappa == n - 1:
            assert node_cut == set()  # complete graph: no separator
        else:
            assert len(node_cut) == kappa
            assert not is_connected(g.without_nodes(node_cut))
        edge_cut = minimum_edge_cut(g)
        assert len(edge_cut) == lam
        assert not is_connected(g.without_edges(edge_cut))


class TestConstructionInvariants:
    @slow
    @given(pair)
    def test_every_pair_builds_and_counts(self, nk):
        n, k = nk
        for builder in (ktree_graph, kdiamond_graph):
            graph, cert = builder(n, k)
            assert graph.number_of_nodes() == n
            assert graph.min_degree() >= k
            cert.verify_graph(graph)

    @slow
    @given(pair)
    def test_constructions_are_k_connected(self, nk):
        n, k = nk
        graph, _ = build_lhg(n, k)
        assert is_k_node_connected(graph, k)
        assert is_k_edge_connected(graph, k)

    @slow
    @given(pair)
    def test_degree_witness_minimality_always_holds(self, nk):
        n, k = nk
        for builder in (ktree_graph, kdiamond_graph):
            graph, _ = builder(n, k)
            assert has_degree_witness_minimality(graph, k)

    @slow
    @given(pair)
    def test_diameter_within_certificate_bound(self, nk):
        n, k = nk
        graph, cert = build_lhg(n, k)
        assert diameter(graph) <= theoretical_diameter_bound(cert)

    @slow
    @given(pair)
    def test_regularity_formula_matches_reality(self, nk):
        n, k = nk
        graph, _ = kdiamond_graph(n, k)
        assert is_k_regular(graph, k) == ((n - 2 * k) % (k - 1) == 0)

    @slow
    @given(pair)
    def test_jd_when_feasible_matches_ktree_shape(self, nk):
        n, k = nk
        if not is_jd_constructible(n, k):
            return
        jd_graph, _ = jenkins_demers_graph(n, k)
        kt_graph, _ = ktree_graph(n, k)
        assert jd_graph.number_of_nodes() == kt_graph.number_of_nodes()
        # both are LHGs with min degree k; JD edge count within the
        # K-TREE envelope
        assert abs(jd_graph.number_of_edges() - kt_graph.number_of_edges()) <= k * k

    @slow
    @given(pair)
    def test_edge_budget_close_to_harary_minimum(self, nk):
        # Link-minimal LHGs carry at most (k-2)/2 extra edges per node
        # over Harary's bound; in practice far less.
        n, k = nk
        graph, _ = build_lhg(n, k)
        minimum = harary_minimum_edges(k, n)
        assert minimum <= graph.number_of_edges() <= minimum + n

    @slow
    @given(pair)
    def test_plans_account_exactly(self, nk):
        n, k = nk
        kt = ktree_plan(n, k)
        assert 2 * k + 2 * kt.conversions * (k - 1) + kt.added_leaves == n
        kd = kdiamond_plan(n, k)
        assert (
            2 * k
            + 2 * kd.conversions * (k - 1)
            + kd.unshared * (k - 1)
            + kd.added_leaves
            == n
        )


class TestExistenceFunctions:
    @given(st.integers(2, 8), st.integers(2, 80))
    def test_ex_equivalence_theorem(self, k, n):
        # Corollary 1: EX_K-TREE(n,k) <=> EX_K-DIAMOND(n,k)
        assert exists(n, k, "k-tree") == exists(n, k, "k-diamond")

    @given(st.integers(2, 8), st.integers(2, 80))
    def test_reg_implication_theorem(self, k, n):
        # Corollary 2: REG_K-TREE => REG_K-DIAMOND
        if regular_exists(n, k, "k-tree"):
            assert regular_exists(n, k, "k-diamond")

    @given(st.integers(2, 8), st.integers(2, 80))
    def test_jd_subset_of_ktree(self, k, n):
        if is_jd_constructible(n, k):
            assert exists(n, k, "k-tree")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(3, 20_000))
    def test_closed_form_plan_matches_schema_count(self, k, n):
        # jd_feasibility counts eligible hosts by arithmetic; the grown
        # schema is the ground truth for which plan (if any) exists
        if n <= k:
            return
        expected = None
        step = 2 * (k - 1)
        for alpha in range((n - 2 * k) // step, -1, -1) if n >= 2 * k else ():
            pairs, odd = divmod(n - (2 * k + alpha * step), 2)
            if odd or pairs > k:
                continue
            hosts = grown_schema(k, alpha).interiors_above_leaves(include_root=False)
            if pairs <= len(hosts):
                expected = (alpha, pairs)
                break
        plan = jd_feasibility(n, k)
        found = None if plan is None else (plan.conversions, plan.extra_pairs)
        assert found == expected


class TestArithmeticCSR:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8).flatmap(
        lambda k: st.tuples(st.integers(2 * k, 20_000), st.just(k))
    ))
    def test_matches_generic_compile(self, nk):
        # the closed-form CSR buffers equal the row-by-row compile, byte
        # for byte, on every feasible shape
        n, k = nk
        assume(jd_feasibility(n, k) is not None)
        arithmetic, generic = csr_bytes_pair(ImplicitJDOracle(n, k))
        assert arithmetic == generic


class TestHarary:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(k + 1, k + 16))
    ))
    def test_harary_edge_count_and_connectivity(self, kn):
        k, n = kn
        g = harary_graph(k, n)
        assert g.number_of_edges() == math.ceil(k * n / 2)
        assert is_k_node_connected(g, k)
        assert is_k_edge_connected(g, k)


class TestDecompositionAgainstGroundTruth:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 150), st.floats(0.1, 0.5))
    def test_articulation_points_match_removal_reality(self, seed, p):
        from repro.graphs.decomposition import articulation_points
        from repro.graphs.traversal import connected_components

        g = gnp_random_graph(10, p, seed=seed)
        baseline = len(connected_components(g))
        expected = {
            v
            for v in g.nodes()
            if len(connected_components(g.without_nodes([v]))) > baseline
        }
        assert articulation_points(g) == expected

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 150), st.floats(0.1, 0.5))
    def test_bridges_match_removal_reality(self, seed, p):
        from repro.graphs.decomposition import bridges
        from repro.graphs.graph import edge_key
        from repro.graphs.traversal import connected_components

        g = gnp_random_graph(10, p, seed=seed)
        baseline = len(connected_components(g))
        expected = {
            edge_key(u, v)
            for u, v in g.edges()
            if len(connected_components(g.without_edges([(u, v)]))) > baseline
        }
        assert bridges(g) == expected


class TestWLHashInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100), st.randoms(use_true_random=False))
    def test_hash_invariant_under_relabeling(self, seed, rng):
        from repro.graphs.wl_hash import weisfeiler_lehman_hash

        g = gnp_random_graph(9, 0.35, seed=seed)
        names = [f"peer-{i}" for i in range(9)]
        rng.shuffle(names)
        relabeled = g.relabeled(dict(zip(range(9), names)))
        assert weisfeiler_lehman_hash(g) == weisfeiler_lehman_hash(relabeled)


class TestEchoInvariants:
    @settings(max_examples=15, deadline=None)
    @given(pair)
    def test_echo_counts_exactly_n_and_tree_spans(self, nk):
        from repro.flooding.experiments import run_echo

        n, k = nk
        graph, _ = build_lhg(n, k)
        source = graph.nodes()[0]
        protocol = run_echo(graph, source)
        assert protocol.completed
        assert protocol.aggregate == n
        # the implicit parent tree spans the graph with valid edges
        assert protocol.covered() == set(graph.nodes())
        for child, parent in protocol.parent.items():
            if parent is not None:
                assert graph.has_edge(child, parent)

    @settings(max_examples=10, deadline=None)
    @given(pair, st.integers(0, 50))
    def test_echo_sum_matches_direct_computation(self, nk, seed):
        import random as random_module

        from repro.flooding.experiments import run_echo

        n, k = nk
        graph, _ = build_lhg(n, k)
        rng = random_module.Random(seed)
        weights = {node: rng.randint(0, 100) for node in graph.nodes()}
        protocol = run_echo(
            graph, graph.nodes()[0], value_of=lambda node: weights[node]
        )
        assert protocol.aggregate == sum(weights.values())


class TestPlannerInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda f: st.tuples(st.integers(2 * (f + 1), 80), st.just(f))
    ))
    def test_plan_is_internally_consistent(self, nf):
        from repro.core.planning import plan_topology

        n, failures = nf
        plan = plan_topology(n, failures)
        assert plan.k == failures + 1
        assert plan.expected_diameter <= plan.latency_bound
        assert plan.message_cost_per_broadcast == 2 * plan.edges - (n - 1)
        # edge bill between Harary's bound and the added-leaf envelope
        assert plan.edges >= math.ceil(plan.k * n / 2)
        assert plan.edges <= math.ceil(plan.k * n / 2) + plan.k * plan.k


class TestFloodingInvariant:
    @settings(max_examples=12, deadline=None)
    @given(pair, st.integers(0, 10))
    def test_flood_covers_exactly_bfs_reachability(self, nk, seed):
        from repro.flooding.experiments import run_flood
        from repro.flooding.failures import random_crashes, survivors

        n, k = nk
        graph, _ = build_lhg(n, k)
        source = graph.nodes()[0]
        schedule = random_crashes(graph, min(k, n - 2 * k + 1) % k, seed=seed, protect={source})
        result = run_flood(graph, source, failures=schedule)
        remaining = survivors(graph, schedule)
        expected = set(bfs_levels(remaining, source))
        assert result.covered == len(expected)


class TestRoundFloodMatchesEventFlood:
    """The round engine vs the event simulator under random schedules."""

    PAIRS = [
        (n, k)
        for k in (2, 3, 4)
        for n in range(2 * k, 2 * k + 14)
        if jd_feasibility(n, k) is not None
    ]
    TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PAIRS), st.sampled_from(["implicit", "csr", "str"]), st.data())
    def test_field_for_field(self, nk, backend, data):
        from repro.flooding.experiments import run_flood
        from repro.flooding.failures import FailureSchedule
        from repro.flooding.rounds import round_flood

        n, k = nk
        oracle = ImplicitJDOracle(n, k)
        graph = materialize(oracle)
        edges = sorted(graph.edges())
        label = (lambda v: f"v{v}") if backend == "str" else (lambda v: v)
        if backend == "str":
            graph = Graph(edges=[(label(u), label(v)) for u, v in edges])
            oracle = graph
        elif backend == "csr":
            oracle = CSRGraph.from_oracle(oracle)
        source = data.draw(st.integers(0, n - 1), label="source")
        nodes = st.integers(0, n - 1)
        schedule = FailureSchedule()
        for v, t in data.draw(st.lists(st.tuples(nodes, self.TIMES), max_size=3)):
            if v == source and t <= 0:
                continue  # both engines refuse a source dead at start
            schedule.crash(label(v), time=t)
            if data.draw(st.booleans()):
                schedule.recover(label(v), time=data.draw(self.TIMES))
        for (u, v), t in data.draw(
            st.lists(st.tuples(st.sampled_from(edges), self.TIMES), max_size=3)
        ):
            schedule.fail_link(label(u), label(v), time=t)
            if data.draw(st.booleans()):
                schedule.restore_link(label(u), label(v), time=data.draw(self.TIMES))
        rounds = round_flood(oracle, label(source), schedule=schedule)
        event = run_flood(graph, label(source), failures=schedule)
        assert (
            rounds.covered,
            rounds.messages,
            rounds.completion_time,
            rounds.alive,
            rounds.reachable,
        ) == (
            event.covered,
            event.messages,
            event.completion_time,
            event.alive,
            event.reachable,
        ), schedule


class TestRecertificationSoundness:
    """The damage-arithmetic certificate rule against exact κ.

    Whenever :func:`recertify_survivors` passes a damaged JD oracle on
    the strength of the pristine certificate, the survivors must really
    keep κ ≥ k − damage (capped by n_alive − 1), checked by Dinic on the
    materialised view.
    """

    PAIRS = [
        (n, k)
        for k in range(2, 6)
        for n in range(2 * k, 201)
        if jd_feasibility(n, k) is not None
    ]

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(PAIRS), st.data())
    def test_certified_survivors_keep_k_minus_damage(self, nk, data):
        from repro import obs
        from repro.flooding.failures import survivors
        from repro.graphs.faultview import FaultView
        from repro.robustness.attacks import targeted_cut_attacks
        from repro.robustness.invariants import recertify_survivors

        n, k = nk
        oracle = ImplicitJDOracle(n, k)
        views = [
            survivors(oracle, plan.schedule()) for plan in targeted_cut_attacks(oracle)
        ]
        budget = data.draw(st.integers(1, k - 1), label="damage")
        crashes = data.draw(
            st.lists(st.integers(0, n - 1), max_size=budget, unique=True),
            label="crashes",
        )
        kills = []
        for _ in range(budget - len(crashes)):
            u = data.draw(st.integers(0, n - 1), label="link end")
            kills.append((u, data.draw(st.sampled_from(oracle.neighbors(u)))))
        views.append(FaultView(oracle, crashes, kills))
        for view in views:
            assert 0 < view.damage < k
            collector = obs.install()
            try:
                violations = recertify_survivors(view, k)
            finally:
                obs.uninstall()
            # the JD certificate is conclusive here, so it must decide
            assert collector.metrics.counters == {"recertify.certificate": 1}
            assert violations == []
            target = min(k - view.damage, view.num_nodes() - 1)
            assert node_connectivity(materialize(view)) >= target, (
                view.down_nodes,
                view.killed_links,
            )
