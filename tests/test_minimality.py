"""Unit tests for link-minimality (LHG Property 3) checks."""

import pytest

from repro.core.properties import check_lhg
from repro.errors import GraphError
from repro.graphs.connectivity import (
    edge_connectivity,
    is_k_edge_connected,
    is_k_node_connected,
    node_connectivity,
)
from repro.graphs.graph import Graph
from repro.graphs.generators.classic import complete_graph, cycle_graph
from repro.graphs.generators.harary import harary_graph
from repro.graphs.generators.random import gnp_random_graph
from repro.graphs.minimality import (
    excess_edges_over_harary_bound,
    has_degree_witness_minimality,
    is_link_minimal,
    minimality_report,
    redundant_edges,
)


class TestExactMinimality:
    def test_cycle_is_minimal(self):
        assert is_link_minimal(cycle_graph(7), 2)

    def test_cycle_with_chord_not_minimal(self):
        g = cycle_graph(6)
        g.add_edge(0, 3)
        assert not is_link_minimal(g, 2)
        assert redundant_edges(g, 2) != []

    def test_harary_graphs_minimal(self):
        for k, n in [(3, 8), (4, 9), (5, 12)]:
            assert is_link_minimal(harary_graph(k, n), k)

    def test_complete_graph_minimal_at_full_k(self):
        # K_5 is 4-connected and removing any edge drops kappa to 3.
        assert is_link_minimal(complete_graph(5), 4)
        assert not is_link_minimal(complete_graph(5), 3)

    def test_infers_k_when_omitted(self):
        assert is_link_minimal(cycle_graph(5))

    def test_disconnected_not_minimal(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        assert not is_link_minimal(g)

    def test_empty_graph_trivially_minimal(self):
        assert is_link_minimal(Graph(nodes=[0, 1]))

    def test_redundant_edges_identifies_the_chord(self):
        g = cycle_graph(6)
        g.add_edge(0, 3)
        extras = redundant_edges(g, 2)
        assert {tuple(sorted(e)) for e in extras} == {(0, 3)}


class TestDegreeWitness:
    def test_witness_on_regular_graph(self):
        assert has_degree_witness_minimality(cycle_graph(9), 2)

    def test_witness_fails_on_chord(self):
        g = cycle_graph(6)
        g.add_edge(0, 3)
        assert not has_degree_witness_minimality(g, 2)

    def test_witness_accepts_one_endpoint_at_k(self):
        # Star: center has high degree but every edge touches a leaf (deg 1).
        g = Graph(edges=[(0, i) for i in range(1, 5)])
        assert has_degree_witness_minimality(g, 1)

    def test_invalid_k_rejected(self):
        with pytest.raises(GraphError):
            has_degree_witness_minimality(cycle_graph(4), 0)

    def test_report_prefers_fast_path(self):
        minimal, how = minimality_report(cycle_graph(8), 2)
        assert minimal and how == "degree-witness"

    def test_report_falls_back(self):
        g = cycle_graph(6)
        g.add_edge(0, 3)
        minimal, how = minimality_report(g, 2)
        assert not minimal and how == "exhaustive"


class TestHararyBound:
    def test_harary_graph_has_zero_excess(self):
        for k, n in [(3, 8), (4, 10), (5, 11)]:
            assert excess_edges_over_harary_bound(harary_graph(k, n), k) == 0

    def test_positive_excess(self):
        g = cycle_graph(6)
        g.add_edge(0, 3)
        assert excess_edges_over_harary_bound(g, 2) == 1

    def test_domain_check(self):
        with pytest.raises(GraphError):
            excess_edges_over_harary_bound(complete_graph(3), 3)


def _old_level(graph):
    """The pre-Whitney default level: min(κ, λ)."""
    return min(node_connectivity(graph), edge_connectivity(graph))


def _old_redundant(graph, k):
    """The pre-Whitney exhaustive test: λ ≥ k AND κ ≥ k after removal."""
    return [
        (u, v)
        for u, v in graph.edges()
        if is_k_edge_connected(graph.without_edges([(u, v)]), k)
        and is_k_node_connected(graph.without_edges([(u, v)]), k)
    ]


def _old_is_link_minimal(graph, k=None):
    if graph.number_of_edges() == 0:
        return True
    if k is None:
        k = _old_level(graph)
    return k != 0 and not _old_redundant(graph, k)


def _shared_vertex_cliques(k):
    """Two K_{k+1} glued at vertex 0: κ = 1 < k ≤ λ."""
    left = range(0, k + 1)
    right = [0, *range(k + 1, 2 * k + 1)]
    edges = [
        (u, v)
        for side in (left, right)
        for i, u in enumerate(side)
        for v in list(side)[i + 1:]
    ]
    return Graph(edges=edges)


WHITNEY_CASES = [
    *[(gnp_random_graph(n, p, seed=seed), k)
      for seed, (n, p) in enumerate([(8, 0.5), (9, 0.6), (10, 0.45),
                                     (11, 0.55), (12, 0.4), (10, 0.7)])
      for k in (1, 2, 3, 4)],
    *[(_shared_vertex_cliques(k), k) for k in (2, 3, 4)],
]


class TestWhitneyShortcut:
    """κ ≤ λ in every graph, so P1 decides P2 whenever it holds."""

    def test_shared_vertex_cliques_separate_kappa_from_lambda(self):
        for k in (2, 3, 4):
            graph = _shared_vertex_cliques(k)
            assert node_connectivity(graph) == 1
            assert edge_connectivity(graph) == k

    @pytest.mark.parametrize("graph, k", WHITNEY_CASES)
    def test_check_lhg_link_connected_matches_edge_flow(self, graph, k):
        assert check_lhg(graph, k).link_connected == is_k_edge_connected(graph, k)

    @pytest.mark.parametrize("graph, k", WHITNEY_CASES)
    def test_minimality_matches_the_and_form(self, graph, k):
        assert is_link_minimal(graph, k) == _old_is_link_minimal(graph, k)
        assert is_link_minimal(graph) == _old_is_link_minimal(graph)
        assert redundant_edges(graph, k) == _old_redundant(graph, k)
        default = redundant_edges(graph)
        old_level = _old_level(graph)
        assert default == (_old_redundant(graph, old_level) if old_level else [])
