"""Unit tests for the Graph data structure."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs.graph import Graph, edge_key


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert len(g) == 0
        assert g.number_of_nodes() == 0
        assert g.number_of_edges() == 0

    def test_from_nodes_and_edges(self):
        g = Graph(nodes=[1, 2], edges=[(2, 3)])
        assert set(g.nodes()) == {1, 2, 3}
        assert g.number_of_edges() == 1

    def test_edge_adds_endpoints(self):
        g = Graph(edges=[("a", "b")])
        assert g.has_node("a") and g.has_node("b")

    def test_name_in_repr(self):
        g = Graph(name="demo")
        assert "demo" in repr(g)


class TestMutation:
    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(0)
        g.add_node(0)
        assert g.number_of_nodes() == 1

    def test_add_edge_idempotent(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.number_of_edges() == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_remove_node_drops_incident_edges(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        g.remove_node(1)
        assert not g.has_node(1)
        assert g.number_of_edges() == 1
        assert g.has_edge(0, 2)

    def test_remove_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().remove_node(9)

    def test_remove_edge(self):
        g = Graph(edges=[(0, 1)])
        g.remove_edge(1, 0)
        assert g.number_of_edges() == 0
        assert g.has_node(0) and g.has_node(1)

    def test_remove_missing_edge_raises(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 1)

    def test_clear(self):
        g = Graph(edges=[(0, 1)])
        g.clear()
        assert len(g) == 0


class TestQueries:
    def test_contains_unhashable_probe(self):
        g = Graph(nodes=[1])
        assert [1] not in g  # must not raise

    def test_neighbors_defensive_copy(self):
        g = Graph(edges=[(0, 1)])
        g.neighbors(0).add(99)
        assert not g.has_edge(0, 99)
        assert g.neighbors(0) == {1}

    def test_neighbors_missing_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().neighbors(0)

    def test_degree(self):
        g = Graph(edges=[(0, 1), (0, 2)])
        assert g.degree(0) == 2
        assert g.degree(2) == 1
        assert g.degrees() == {0: 2, 1: 1, 2: 1}

    def test_min_max_degree(self):
        g = Graph(edges=[(0, 1), (0, 2)])
        assert g.min_degree() == 1
        assert g.max_degree() == 2
        assert Graph().min_degree() == 0
        assert Graph().max_degree() == 0

    def test_edges_reported_once(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert len(g.edges()) == 2
        assert len(list(g.iter_edges())) == 2

    def test_edge_key_symmetric(self):
        assert edge_key(1, 2) == edge_key(2, 1)

    def test_adjacency_view_zero_copy_read_only(self):
        g = Graph(edges=[(0, 1)])
        view = g.adjacency_view()
        assert view[0] == {1}
        with pytest.raises(TypeError):
            view[2] = set()
        g.add_edge(0, 7)
        assert 7 in view[0]  # live view, not a snapshot

    def test_oracle_surface(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert g.num_nodes() == 3
        assert list(g.iter_nodes()) == [0, 1, 2]


class TestDerivedGraphs:
    def test_copy_independent(self):
        g = Graph(edges=[(0, 1)], name="orig")
        clone = g.copy()
        clone.add_edge(1, 2)
        assert not g.has_node(2)
        assert clone.name == "orig"

    def test_equality_structural(self):
        a = Graph(edges=[(0, 1)])
        b = Graph(edges=[(1, 0)])
        assert a == b
        b.add_node(2)
        assert a != b

    def test_equality_other_type(self):
        assert Graph() != 17

    def test_subgraph_induced(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        sub = g.subgraph([0, 1, 2])
        assert sub.number_of_nodes() == 3
        assert sub.number_of_edges() == 3

    def test_subgraph_ignores_unknown(self):
        g = Graph(edges=[(0, 1)])
        sub = g.subgraph([0, 99])
        assert set(sub.nodes()) == {0}

    def test_without_nodes(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        reduced = g.without_nodes([1])
        assert set(reduced.nodes()) == {0, 2}
        assert reduced.number_of_edges() == 0
        assert g.has_node(1)  # original untouched

    def test_without_edges(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        reduced = g.without_edges([(0, 1)])
        assert reduced.number_of_edges() == 1
        assert g.number_of_edges() == 2

    def test_union(self):
        a = Graph(edges=[(0, 1)])
        b = Graph(edges=[(1, 2)])
        u = a.union(b)
        assert u.number_of_edges() == 2
        assert set(u.nodes()) == {0, 1, 2}

    def test_relabeled(self):
        g = Graph(edges=[(0, 1)])
        relabeled = g.relabeled({0: "zero", 1: "one"})
        assert relabeled.has_edge("zero", "one")

    def test_relabeled_partial(self):
        g = Graph(edges=[(0, 1)])
        relabeled = g.relabeled({0: 10})
        assert relabeled.has_edge(10, 1)

    def test_relabeled_non_injective_raises(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(GraphError):
            g.relabeled({0: "x", 1: "x"})

    def test_complement(self):
        g = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        comp = g.complement()
        assert comp.has_edge(0, 2) and comp.has_edge(1, 2)
        assert not comp.has_edge(0, 1)


class TestPredicates:
    def test_regular(self):
        cycle = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        assert cycle.is_regular()
        assert cycle.regular_degree() == 2

    def test_irregular(self):
        g = Graph(edges=[(0, 1), (0, 2)])
        assert not g.is_regular()
        assert g.regular_degree() is None

    def test_empty_graph_regular_conventions(self):
        assert Graph().is_regular()
        assert Graph().regular_degree() is None

    def test_density(self):
        assert Graph(edges=[(0, 1), (1, 2), (2, 0)]).density() == 1.0
        assert Graph(nodes=[0]).density() == 0.0
