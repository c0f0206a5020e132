"""Tests for certificate-based routing and Menger witnesses."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.errors import CertificateError, GraphError
from repro.core.existence import build_lhg
from repro.core.routing import (
    locate,
    menger_witness,
    route_length_bound,
    tree_route,
)
from repro.graphs.traversal import (
    is_simple_path,
    paths_internally_disjoint,
    shortest_path_length,
)

PAIRS = [(6, 3), (10, 3), (13, 3), (17, 3), (46, 3), (20, 4), (27, 4), (18, 5)]


class TestLocate:
    def test_classifies_interiors(self):
        _, cert = build_lhg(10, 3, rule="jenkins-demers")
        loc = locate(cert, ("T", 1, 0))
        assert loc.kind == "interior" and loc.copy == 1 and loc.tree_id == 0

    def test_classifies_shared_leaves(self):
        _, cert = build_lhg(6, 3)
        leaf_id = next(iter(cert.leaves))
        loc = locate(cert, ("L", leaf_id))
        assert loc.kind == "shared-leaf" and loc.copy is None

    def test_classifies_unshared_members(self):
        _, cert = build_lhg(8, 3)  # k-diamond with unshared slot
        unshared = [l for l in cert.leaves.values() if l.kind == "unshared"]
        assert unshared
        loc = locate(cert, ("U", unshared[0].id, 2))
        assert loc.kind == "unshared-leaf" and loc.copy == 2

    def test_rejects_foreign_labels(self):
        _, cert = build_lhg(6, 3)
        with pytest.raises(CertificateError):
            locate(cert, ("T", 99, 99))
        with pytest.raises(CertificateError):
            locate(cert, "stranger")


class TestTreeRoute:
    @pytest.mark.parametrize("n,k", PAIRS)
    def test_routes_are_valid_simple_paths(self, n, k):
        graph, cert = build_lhg(n, k)
        rng = random.Random(n * 31 + k)
        nodes = graph.nodes()
        for _ in range(30):
            s, t = rng.sample(nodes, 2)
            path = tree_route(cert, s, t)
            assert path[0] == s and path[-1] == t
            assert is_simple_path(graph, path), (s, t, path)

    @pytest.mark.parametrize("n,k", PAIRS)
    def test_routes_within_length_bound(self, n, k):
        graph, cert = build_lhg(n, k)
        bound = route_length_bound(cert)
        rng = random.Random(7)
        nodes = graph.nodes()
        for _ in range(30):
            s, t = rng.sample(nodes, 2)
            assert len(tree_route(cert, s, t)) - 1 <= bound

    def test_self_route(self):
        graph, cert = build_lhg(10, 3)
        node = graph.nodes()[0]
        assert tree_route(cert, node, node) == [node]

    def test_stretch_is_bounded(self):
        graph, cert = build_lhg(46, 3)
        rng = random.Random(3)
        nodes = graph.nodes()
        worst_stretch = 0.0
        for _ in range(40):
            s, t = rng.sample(nodes, 2)
            structural = len(tree_route(cert, s, t)) - 1
            optimal = shortest_path_length(graph, s, t)
            worst_stretch = max(worst_stretch, structural / optimal)
        assert worst_stretch <= 4.0


class TestMengerWitness:
    @pytest.mark.parametrize("n,k", [(6, 3), (13, 3), (20, 4), (18, 5)])
    def test_witness_family(self, n, k):
        graph, cert = build_lhg(n, k)
        rng = random.Random(n + k)
        nodes = graph.nodes()
        for _ in range(5):
            s, t = rng.sample(nodes, 2)
            paths = menger_witness(graph, cert, s, t)
            assert len(paths) == k
            assert paths_internally_disjoint(paths)
            assert all(is_simple_path(graph, p) for p in paths)
            assert all(p[0] == s and p[-1] == t for p in paths)

    def test_witness_is_the_same_under_every_hash_seed(self):
        # build_lhg(46, 4) labels nodes with tuples holding strings, whose
        # neighbour sets iterate in hash order; the witness must not
        script = (
            "import random\n"
            "from repro.core.existence import build_lhg\n"
            "from repro.core.routing import menger_witness\n"
            "graph, cert = build_lhg(46, 4)\n"
            "rng = random.Random(7)\n"
            "for _ in range(6):\n"
            "    s, t = rng.sample(graph.nodes(), 2)\n"
            "    print(menger_witness(graph, cert, s, t))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] and outputs[0] == outputs[1]

    def test_witness_detects_damaged_graph(self):
        graph, cert = build_lhg(10, 3)
        # cut one node's links down below k
        victim = graph.nodes()[0]
        for neighbor in list(graph.neighbors(victim))[:2]:
            graph.remove_edge(victim, neighbor)
        other = [v for v in graph.nodes() if v != victim][-1]
        with pytest.raises(GraphError):
            menger_witness(graph, cert, victim, other)
