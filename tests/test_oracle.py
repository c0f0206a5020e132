"""Oracle equivalence: CSR, implicit JD, and dict Graph answer alike.

The ``NeighborOracle`` protocol only earns its keep if every backend
gives byte-identical answers to every structural question.  These tests
pin the three backends to each other over the small-(n, k) census:
neighbourhoods and degrees through the label bijection, BFS layerings,
diameters, edge counts, and the synchronous-round flood against the
event-driven simulator.
"""

from array import array

import pytest

from repro import obs
from repro.core.jenkins_demers import jd_feasibility, jenkins_demers_graph
from repro.errors import GraphError, NodeNotFoundError
from repro.flooding.experiments import run_flood
from repro.flooding.rounds import round_flood
from repro.graphs import (
    CSRGraph,
    Graph,
    ImplicitJDOracle,
    NeighborOracle,
    materialize,
    oracle_has_edge,
    oracle_has_node,
    oracle_nodes,
    oracle_num_edges,
)
from repro.graphs.io import from_json, to_json
from repro.graphs.traversal import bfs_levels, diameter, eccentricity
from tests.conftest import RowByRowOracle, csr_bytes_pair

# every JD-feasible pair with k in 2..5 and n within 3 growth rounds
CENSUS = [
    (n, k)
    for k in range(2, 6)
    for n in range(2 * k, 2 * k + 20)
    if jd_feasibility(n, k) is not None
]

SPOT = [(4, 2), (10, 3), (22, 3), (16, 4), (26, 5)]


class TestProtocol:
    def test_backends_satisfy_protocol(self):
        assert isinstance(Graph(edges=[(0, 1)]), NeighborOracle)
        assert isinstance(ImplicitJDOracle(10, 3), NeighborOracle)
        assert isinstance(CSRGraph.from_oracle(Graph(nodes=[0])), NeighborOracle)

    def test_helpers_on_minimal_oracle(self):
        class Bare:
            def num_nodes(self):
                return 2

            def degree(self, v):
                if v not in (0, 1):
                    raise NodeNotFoundError(v)
                return 1

            def neighbors(self, v):
                return [1 - v]

            def iter_nodes(self):
                return iter((0, 1))

        bare = Bare()
        assert oracle_has_node(bare, 0)
        assert not oracle_has_node(bare, 9)
        assert oracle_has_edge(bare, 0, 1)
        assert not oracle_has_edge(bare, 0, 0)
        assert oracle_nodes(bare) == [0, 1]
        assert oracle_num_edges(bare) == 1
        assert materialize(bare) == Graph(edges=[(0, 1)])


class TestImplicitEquivalence:
    @pytest.mark.parametrize("n,k", CENSUS)
    def test_matches_materialised_construction(self, n, k):
        graph, _ = jenkins_demers_graph(n, k)
        oracle = ImplicitJDOracle(n, k)
        assert oracle.num_nodes() == graph.number_of_nodes() == n
        assert oracle.number_of_edges() == graph.number_of_edges()
        for node_id in oracle.iter_nodes():
            label = oracle.label_of(node_id)
            assert oracle.id_of(label) == node_id
            expected = {oracle.id_of(v) for v in graph.neighbors(label)}
            assert set(oracle.neighbors(node_id)) == expected
            assert oracle.degree(node_id) == graph.degree(label)

    @pytest.mark.parametrize("n,k", SPOT)
    def test_bfs_and_diameter_agree(self, n, k):
        graph, _ = jenkins_demers_graph(n, k)
        oracle = ImplicitJDOracle(n, k)
        root = oracle.id_of(("T", 0, 0))
        levels = bfs_levels(oracle, root)
        expected = bfs_levels(graph, ("T", 0, 0))
        assert levels == {
            oracle.id_of(label): d for label, d in expected.items()
        }
        assert diameter(oracle) == diameter(graph)

    def test_unknown_nodes_rejected(self):
        oracle = ImplicitJDOracle(10, 3)
        with pytest.raises(NodeNotFoundError):
            oracle.neighbors(10)
        with pytest.raises(NodeNotFoundError):
            oracle.degree(-1)
        with pytest.raises(NodeNotFoundError):
            oracle.id_of(("T", 3, 0))
        assert not oracle.has_node(True)  # bools are not node ids


class TestCSR:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_csr_matches_source_oracle(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        csr = CSRGraph.from_oracle(oracle)
        assert csr.dense_labels
        assert csr.num_nodes() == n
        assert csr.number_of_edges() == oracle.number_of_edges()
        for v in oracle.iter_nodes():
            assert list(csr.neighbors(v)) == sorted(oracle.neighbors(v))
            assert csr.degree(v) == oracle.degree(v)
        assert eccentricity(csr, 0) == eccentricity(oracle, 0)

    def test_csr_preserves_arbitrary_labels(self):
        g = Graph(edges=[("a", "b"), ("b", ("T", 0, 1))], name="labels")
        csr = CSRGraph.from_oracle(g)
        assert not csr.dense_labels
        assert set(csr.nodes()) == set(g.nodes())
        assert sorted(csr.neighbors("b"), key=repr) == sorted(
            g.neighbors("b"), key=repr
        )
        assert csr.to_graph() == g

    def test_csr_round_trip_keeps_int_ids(self):
        """Dense int ids survive CSR → Graph → JSON → Graph → CSR."""
        original = CSRGraph.from_oracle(ImplicitJDOracle(22, 3))
        revived = from_json(to_json(original.to_graph()))
        assert all(isinstance(v, int) for v in revived.nodes())
        recompiled = CSRGraph.from_oracle(revived)
        assert recompiled.dense_labels
        assert recompiled.number_of_edges() == original.number_of_edges()
        for v in range(22):
            assert list(recompiled.neighbors(v)) == list(original.neighbors(v))

    def test_csr_serialises_directly(self):
        """to_json accepts the CSR backend itself, ints intact."""
        csr = CSRGraph.from_oracle(ImplicitJDOracle(10, 3), name="jd")
        revived = from_json(to_json(csr))
        assert revived.name == "jd"
        assert all(isinstance(v, int) for v in revived.nodes())
        assert revived == csr.to_graph()

    def test_subgraph_keeps_int_ids(self):
        g = CSRGraph.from_oracle(ImplicitJDOracle(10, 3)).to_graph()
        sub = g.subgraph(range(5))
        assert all(isinstance(v, int) for v in sub.nodes())

    def test_duplicate_nodes_rejected(self):
        class Dup:
            def num_nodes(self):
                return 2

            def degree(self, v):
                return 0

            def neighbors(self, v):
                return []

            def iter_nodes(self):
                return iter((0, 0))

        with pytest.raises(GraphError):
            CSRGraph.from_oracle(Dup())

    def test_has_edge_and_iter_edges(self):
        oracle = ImplicitJDOracle(10, 3)
        csr = CSRGraph.from_oracle(oracle)
        edges = set(csr.iter_edges())
        assert len(edges) == csr.number_of_edges()
        for u, v in sorted(edges):
            assert u < v
            assert csr.has_edge(u, v) and csr.has_edge(v, u)
        assert not csr.has_edge(0, 0)

    def test_has_edge_bisect_row_boundaries(self):
        # a star: the hub's row spans the whole index array, every leaf
        # row holds a single entry — first/last-neighbour bisect probes
        star = Graph(edges=[(0, i) for i in range(1, 6)])
        csr = CSRGraph.from_oracle(star)
        row = list(csr.neighbors(0))
        assert csr.has_edge(0, row[0])  # first slot of the row
        assert csr.has_edge(0, row[-1])  # last slot of the row
        assert csr.has_edge(row[0], 0) and csr.has_edge(row[-1], 0)
        # absent id falling between present neighbours, and past the end
        assert not csr.has_edge(1, 2)
        assert not csr.has_edge(0, 6)

    def test_has_edge_empty_row(self):
        # an isolated node has an empty CSR row: start == end, so the
        # bisect window is empty and must not read a neighbouring row
        g = Graph(edges=[(0, 1)], nodes=[2])
        csr = CSRGraph.from_oracle(g)
        assert csr.degree(2) == 0
        assert not csr.has_edge(2, 0)
        assert not csr.has_edge(0, 2)
        assert not csr.has_edge(2, 2)

    def test_has_edge_absent_ids_are_false_not_errors(self):
        csr = CSRGraph.from_oracle(ImplicitJDOracle(10, 3))
        assert not csr.has_edge(0, 999)
        assert not csr.has_edge(999, 0)
        assert not csr.has_edge(-1, 0)
        assert not csr.has_edge(0, "label")
        assert not csr.has_edge(True, 0)  # bools are not dense ids

    def test_has_edge_labelled_backend(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        csr = CSRGraph.from_oracle(g)
        assert csr.has_edge("a", "b") and csr.has_edge("b", "a")
        assert not csr.has_edge("a", "c")
        assert not csr.has_edge("a", "missing")


class TestArithmeticCSR:
    """``ImplicitJDOracle.csr_arrays`` against the generic row-by-row compile."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_census_byte_identical(self, k):
        # every JD-feasible n < 1500 for this k
        pairs = [n for n in range(2 * k, 1500) if jd_feasibility(n, k) is not None]
        assert pairs
        for n in pairs:
            arithmetic, generic = csr_bytes_pair(ImplicitJDOracle(n, k))
            assert arithmetic == generic, (n, k)

    def test_byte_identical_at_250k(self):
        arithmetic, generic = csr_bytes_pair(ImplicitJDOracle(250_000, 3))
        assert arithmetic == generic

    def test_compile_span_names_the_path(self):
        oracle = ImplicitJDOracle(22, 3)
        collector = obs.install()
        try:
            csr = CSRGraph.from_oracle(oracle)
            CSRGraph.from_oracle(RowByRowOracle(oracle))
        finally:
            obs.uninstall()
        opened = [e for e in collector.events if e["kind"] == "span-open"]
        closed = [e for e in collector.events if e["kind"] == "span-close"]
        assert [e["name"] for e in opened] == ["csr.compile", "csr.compile"]
        assert [e["attrs"]["path"] for e in opened] == ["arithmetic", "generic"]
        nnz = 2 * oracle.number_of_edges()
        assert [e["attrs"] for e in closed] == [{"n": 22, "nnz": nnz}] * 2
        assert collector.metrics.counters["csr.bytes"] == 2 * csr.nbytes()

    @pytest.mark.parametrize("wrap", [lambda o: o, RowByRowOracle])
    def test_compile_is_passive(self, wrap):
        oracle = wrap(ImplicitJDOracle(1_000, 4))
        plain = CSRGraph.from_oracle(oracle)
        collector = obs.install()
        try:
            traced = CSRGraph.from_oracle(oracle)
        finally:
            obs.uninstall()
        assert collector.events
        assert traced._indptr.tobytes() == plain._indptr.tobytes()
        assert traced._indices.tobytes() == plain._indices.tobytes()

    @pytest.mark.parametrize(
        "indptr,indices",
        [
            ([0, 1, 2], [1, 0]),  # one row pointer short of n + 1
            ([1, 1, 2, 2], [1, 0]),  # does not start at 0
            ([0, 1, 2, 3], [1, 0]),  # last pointer past the indices
        ],
    )
    def test_inconsistent_closed_form_rejected(self, indptr, indices):
        class Broken(RowByRowOracle):
            def csr_arrays(self):
                return array("q", indptr), array("q", indices)

        with pytest.raises(GraphError):
            CSRGraph.from_oracle(Broken(Graph(edges=[(0, 1)], nodes=[2])))


class TestRoundFlood:
    @pytest.mark.parametrize("n,k", SPOT)
    def test_parity_with_event_driven_flood(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        graph = materialize(oracle)
        event = run_flood(graph, 0)
        for backend in (oracle, CSRGraph.from_oracle(oracle), graph):
            rounds = round_flood(backend, 0)
            assert rounds.covered == event.covered == n
            assert rounds.messages == event.messages
            assert rounds.completion_time == event.completion_time
            assert rounds.rounds == eccentricity(oracle, 0)

    def test_unknown_source_rejected(self):
        with pytest.raises(NodeNotFoundError):
            round_flood(ImplicitJDOracle(10, 3), 99)
