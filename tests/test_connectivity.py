"""Unit tests for node/edge connectivity, cuts and disjoint paths."""

import pytest

from repro.errors import GraphError, NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.generators.classic import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from repro.graphs.connectivity import (
    edge_connectivity,
    edge_disjoint_paths,
    is_k_edge_connected,
    is_k_node_connected,
    local_edge_connectivity,
    local_node_connectivity,
    minimum_edge_cut,
    minimum_node_cut,
    node_connectivity,
    node_disjoint_paths,
)
from repro.graphs.traversal import (
    is_connected,
    is_simple_path,
    paths_edge_disjoint,
    paths_internally_disjoint,
)


class TestLocalConnectivity:
    def test_path_graph(self):
        g = path_graph(4)
        assert local_edge_connectivity(g, 0, 3) == 1
        assert local_node_connectivity(g, 0, 3) == 1

    def test_cycle(self):
        g = cycle_graph(7)
        assert local_edge_connectivity(g, 0, 3) == 2
        assert local_node_connectivity(g, 0, 3) == 2

    def test_adjacent_pair_in_complete_graph(self):
        g = complete_graph(5)
        assert local_node_connectivity(g, 0, 1) == 4

    def test_same_node_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(GraphError):
            local_node_connectivity(g, 1, 1)

    def test_missing_node_rejected(self):
        with pytest.raises(NodeNotFoundError):
            local_edge_connectivity(cycle_graph(4), 0, 99)

    def test_cutoff_caps_answer(self):
        g = complete_graph(6)
        assert local_node_connectivity(g, 0, 1, cutoff=2) == 2


class TestGlobalConnectivity:
    def test_known_values(self):
        assert node_connectivity(cycle_graph(5)) == 2
        assert edge_connectivity(cycle_graph(5)) == 2
        assert node_connectivity(complete_graph(6)) == 5
        assert edge_connectivity(complete_graph(6)) == 5
        assert node_connectivity(path_graph(5)) == 1
        assert node_connectivity(petersen_graph()) == 3
        assert edge_connectivity(petersen_graph()) == 3

    def test_complete_bipartite(self):
        assert node_connectivity(complete_bipartite_graph(3, 5)) == 3
        assert edge_connectivity(complete_bipartite_graph(3, 5)) == 3

    def test_disconnected_zero(self):
        g = Graph(nodes=[0, 1])
        assert node_connectivity(g) == 0
        assert edge_connectivity(g) == 0

    def test_tiny_graphs(self):
        assert node_connectivity(Graph(nodes=[0])) == 0
        assert node_connectivity(Graph(edges=[(0, 1)])) == 1

    def test_bridge_graph(self, two_triangles_bridge):
        assert edge_connectivity(two_triangles_bridge) == 1
        assert node_connectivity(two_triangles_bridge) == 1

    def test_long_cycle_deep_level_graphs(self):
        # augmenting paths run ~1200 split nodes deep: the blocking-flow
        # search must not recurse per step
        g = cycle_graph(1200)
        assert node_connectivity(g) == 2
        assert edge_connectivity(g) == 2
        assert is_k_node_connected(g, 2)


class TestKPredicates:
    def test_thresholds_on_cycle(self):
        g = cycle_graph(6)
        assert is_k_node_connected(g, 2)
        assert not is_k_node_connected(g, 3)
        assert is_k_edge_connected(g, 2)
        assert not is_k_edge_connected(g, 3)

    def test_k_zero_vacuous(self):
        assert is_k_node_connected(Graph(), 0)
        assert is_k_edge_connected(Graph(), 0)

    def test_needs_enough_nodes(self):
        assert not is_k_node_connected(complete_graph(3), 3)
        assert is_k_node_connected(complete_graph(4), 3)

    def test_min_degree_short_circuit(self):
        g = cycle_graph(5)
        g.add_edge(0, 2)
        assert not is_k_node_connected(g, 3)  # node 4 has degree 2


class TestCuts:
    def test_min_edge_cut_bridge(self, two_triangles_bridge):
        cut = minimum_edge_cut(two_triangles_bridge)
        assert len(cut) == 1
        assert {tuple(sorted(e)) for e in cut} == {(2, 3)}

    def test_min_edge_cut_disconnects(self):
        g = cycle_graph(6)
        cut = minimum_edge_cut(g)
        assert len(cut) == 2
        assert not is_connected(g.without_edges(cut))

    def test_min_node_cut_articulation(self, square_with_tail):
        cut = minimum_node_cut(square_with_tail)
        assert cut == {3}

    def test_min_node_cut_disconnects(self):
        g = cycle_graph(8)
        cut = minimum_node_cut(g)
        assert len(cut) == 2
        assert not is_connected(g.without_nodes(cut))

    def test_min_node_cut_complete_graph_empty(self):
        assert minimum_node_cut(complete_graph(4)) == set()

    def test_cut_errors(self):
        with pytest.raises(GraphError):
            minimum_edge_cut(Graph(nodes=[0]))
        with pytest.raises(GraphError):
            minimum_node_cut(Graph(nodes=[0, 1]))


class TestDisjointPaths:
    def test_edge_disjoint_family_size(self):
        g = cycle_graph(6)
        paths = edge_disjoint_paths(g, 0, 3)
        assert len(paths) == 2
        assert paths_edge_disjoint(paths)
        assert all(is_simple_path(g, p) for p in paths)
        assert all(p[0] == 0 and p[-1] == 3 for p in paths)

    def test_node_disjoint_family_size(self):
        g = petersen_graph()
        paths = node_disjoint_paths(g, 0, 7)
        assert len(paths) == 3
        assert paths_internally_disjoint(paths)
        assert all(is_simple_path(g, p) for p in paths)

    def test_node_disjoint_adjacent_endpoints(self):
        g = complete_graph(5)
        paths = node_disjoint_paths(g, 0, 1)
        assert len(paths) == 4
        assert paths_internally_disjoint(paths)

    def test_disconnected_pair_empty(self):
        g = Graph(nodes=[0, 1])
        assert node_disjoint_paths(g, 0, 1) == []
        assert edge_disjoint_paths(g, 0, 1) == []

    def test_matches_local_connectivity_on_random_graphs(self):
        from repro.graphs.generators.random import gnp_random_graph

        for seed in range(6):
            g = gnp_random_graph(12, 0.35, seed=seed)
            nodes = g.nodes()
            s, t = nodes[0], nodes[-1]
            expected = local_node_connectivity(g, s, t)
            paths = node_disjoint_paths(g, s, t)
            assert len(paths) == expected
            assert paths_internally_disjoint(paths)
            assert all(is_simple_path(g, p) for p in paths)
