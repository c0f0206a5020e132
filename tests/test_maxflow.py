"""Unit tests for the Dinic max-flow implementation."""

import pytest

from repro.errors import GraphError
from repro.graphs.maxflow import (
    FlowNetwork,
    edge_disjoint_flow_network,
    node_disjoint_flow_network,
)


class TestFlowNetworkBasics:
    def test_single_arc(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 3)
        assert net.max_flow("s", "t") == 3

    def test_series_bottleneck(self):
        net = FlowNetwork()
        net.add_arc("s", "a", 5)
        net.add_arc("a", "t", 2)
        assert net.max_flow("s", "t") == 2

    def test_parallel_arcs_add(self):
        net = FlowNetwork()
        net.add_arc("s", "t", 1)
        net.add_arc("s", "t", 1)
        assert net.max_flow("s", "t") == 2

    def test_diamond(self):
        net = FlowNetwork()
        for tail, head in [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]:
            net.add_arc(tail, head, 1)
        assert net.max_flow("s", "t") == 2

    def test_no_path_zero(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        assert net.max_flow("s", "t") == 0

    def test_augmenting_path_case(self):
        # Classic case that greedy (non-residual) algorithms get wrong.
        net = FlowNetwork()
        for tail, head, cap in [
            ("s", "a", 1),
            ("s", "b", 1),
            ("a", "b", 1),
            ("a", "t", 1),
            ("b", "t", 1),
        ]:
            net.add_arc(tail, head, cap)
        assert net.max_flow("s", "t") == 2

    def test_cutoff_early_exit(self):
        net = FlowNetwork()
        for i in range(5):
            net.add_arc("s", f"m{i}", 1)
            net.add_arc(f"m{i}", "t", 1)
        assert net.max_flow("s", "t", cutoff=2) == 2

    def test_negative_capacity_rejected(self):
        net = FlowNetwork()
        with pytest.raises(GraphError):
            net.add_arc("a", "b", -1)

    def test_same_source_sink_rejected(self):
        net = FlowNetwork()
        net.add_node("s")
        with pytest.raises(GraphError):
            net.max_flow("s", "s")

    def test_unknown_nodes_rejected(self):
        net = FlowNetwork()
        net.add_node("s")
        with pytest.raises(GraphError):
            net.max_flow("s", "nope")


class TestMinCutAndFlows:
    def test_min_cut_reachable_side(self):
        net = FlowNetwork()
        net.add_arc("s", "a", 1)
        net.add_arc("a", "t", 1)
        net.max_flow("s", "t")
        reachable = net.min_cut_reachable("s")
        assert "s" in reachable
        assert "t" not in reachable

    def test_iter_flows_reports_only_used_arcs(self):
        net = FlowNetwork()
        net.add_arc("s", "a", 1)
        net.add_arc("a", "t", 1)
        net.add_arc("s", "b", 1)  # dead end
        net.add_node("b")
        net.max_flow("s", "t")
        flows = {(u, v): f for u, v, f in net.iter_flows()}
        assert flows == {("s", "a"): 1, ("a", "t"): 1}

    def test_flow_conservation(self):
        net = FlowNetwork()
        arcs = [
            ("s", "a", 2),
            ("s", "b", 2),
            ("a", "c", 1),
            ("a", "t", 1),
            ("b", "c", 2),
            ("c", "t", 2),
        ]
        for tail, head, cap in arcs:
            net.add_arc(tail, head, cap)
        total = net.max_flow("s", "t")
        assert total == 3
        balance = {}
        for u, v, f in net.iter_flows():
            balance[u] = balance.get(u, 0) - f
            balance[v] = balance.get(v, 0) + f
        for node, net_flow in balance.items():
            if node == "s":
                assert net_flow == -total
            elif node == "t":
                assert net_flow == total
            else:
                assert net_flow == 0


class TestMengerNetworks:
    def test_edge_disjoint_network_counts_paths(self):
        # Cycle of 4: exactly 2 edge-disjoint paths between opposite nodes.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        net = edge_disjoint_flow_network(edges)
        assert net.max_flow(0, 2) == 2

    def test_node_disjoint_network_counts_paths(self):
        # K4: kappa(s,t)=3 between any pair.  0 and 3 are adjacent, so the
        # network is built on K4 - {0,3} and the edge adds the third path.
        nodes = [0, 1, 2, 3]
        edges = [(i, j) for i in nodes for j in nodes if i < j and (i, j) != (0, 3)]
        net = node_disjoint_flow_network(nodes, edges)
        assert 1 + net.max_flow(("out", 0), ("in", 3)) == 3

    def test_node_split_counts_adjacent_pair(self):
        # Path 0-1-2: only one internally disjoint path from 0 to 2.
        net = node_disjoint_flow_network([0, 1, 2], [(0, 1), (1, 2)])
        assert net.max_flow(("out", 0), ("in", 2)) == 1
