"""Tests for the LHG property verifier (Properties 1-5)."""

import pytest

from repro.errors import GraphError
from repro.core.existence import build_lhg
from repro.core.properties import check_lhg, is_lhg, theoretical_diameter_bound
from repro.graphs.graph import Graph
from repro.graphs.generators.classic import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graphs.generators.harary import harary_graph
from repro.graphs.minimality import (
    has_degree_witness_minimality,
    is_link_minimal,
)
from repro.graphs.traversal import diameter


class TestPositiveCases:
    def test_constructions_are_lhgs(self):
        for n, k in [(6, 3), (13, 3), (20, 4), (14, 4)]:
            graph, _ = build_lhg(n, k)
            assert is_lhg(graph, k)

    def test_report_fields(self):
        graph, _ = build_lhg(10, 3)
        report = check_lhg(graph, 3)
        assert report.n == 10 and report.k == 3
        assert report.is_lhg
        assert report.k_regular
        assert report.exact_diameter
        assert report.diameter == diameter(graph)
        assert "ok" in report.summary()

    def test_small_harary_is_lhg_for_small_n(self):
        # at small n the linear diameter still fits the log budget
        assert is_lhg(harary_graph(4, 12), 4)

    def test_deep_k2_construction(self):
        # k=2 grows a long ring whose level graphs are hundreds of nodes
        # deep; the exact flow checks must not hit the recursion limit
        graph, _ = build_lhg(600, 2)
        assert check_lhg(graph, 2).is_lhg


class TestNegativeCases:
    def test_path_fails_connectivity(self):
        report = check_lhg(path_graph(6), 2)
        assert not report.node_connected
        assert not report.is_lhg

    def test_complete_graph_fails_minimality(self):
        report = check_lhg(complete_graph(6), 3)
        assert report.node_connected
        assert not report.link_minimal
        assert not report.is_lhg

    def test_large_harary_fails_log_diameter(self):
        # linear diameter eventually exceeds the log budget
        report = check_lhg(harary_graph(4, 200), 4)
        assert report.node_connected and report.link_connected
        assert not report.log_diameter
        assert not report.is_lhg

    def test_cycle_with_chord_fails_minimality(self):
        g = cycle_graph(8)
        g.add_edge(0, 4)
        report = check_lhg(g, 2)
        assert not report.link_minimal

    def test_disconnected_graph(self):
        g = Graph(nodes=[0, 1, 2])
        report = check_lhg(g, 1)
        assert not report.node_connected
        assert not report.log_diameter

    def test_star_regularity_flag(self):
        report = check_lhg(star_graph(4), 1)
        assert not report.k_regular


class TestCheckerOptions:
    def test_exact_minimality_forced(self):
        # P3 is decided exactly: it agrees with the exhaustive check
        g = complete_graph(5)
        assert check_lhg(g, 4).link_minimal
        assert is_link_minimal(g, 4)

    def test_fast_minimality_only_may_be_conservative(self):
        # degree witness: every edge endpoint has degree 4 = k, so no
        # flow runs and the fast predicate agrees with the report
        g = complete_graph(5)
        assert has_degree_witness_minimality(g, 4)
        assert check_lhg(g, 4).link_minimal

    def test_sampled_diameter_beyond_limit(self):
        graph, _ = build_lhg(120, 3)
        report = check_lhg(graph, 3, exact_diameter_limit=50)
        assert not report.exact_diameter
        assert report.diameter <= diameter(graph) <= report.diameter_upper
        assert report.log_diameter

    def test_exact_diameter_is_its_own_upper_bound(self):
        graph, _ = build_lhg(120, 3)
        report = check_lhg(graph, 3)
        assert report.exact_diameter
        assert report.diameter == report.diameter_upper == diameter(graph)

    def test_under_reported_lower_bound_cannot_pass_p4(self, monkeypatch):
        from repro.core import properties

        monkeypatch.setattr(properties, "approximate_diameter", lambda g: 1)
        report = check_lhg(cycle_graph(2101), 3)  # diameter 1050, budget 48
        assert (report.diameter, report.diameter_upper) == (1, 2100)
        assert not report.log_diameter

    def test_domain_checks(self):
        with pytest.raises(GraphError):
            check_lhg(Graph(), 3)
        with pytest.raises(GraphError):
            check_lhg(cycle_graph(4), 0)


class TestDiameterBound:
    def test_real_diameter_within_certificate_bound(self):
        for n, k in [(6, 3), (17, 3), (46, 3), (20, 4), (38, 4)]:
            graph, cert = build_lhg(n, k)
            assert diameter(graph) <= theoretical_diameter_bound(cert)
