"""Scale validation: the guarantees hold well beyond the exhaustive sizes.

Full connectivity verification is O(n)·max-flow, so the small-n tests
carry the exactness burden; these tests push n into the thousands with
the checks that stay cheap — structural certificates, degree witnesses,
sampled Menger connectivity, double-sweep diameters, and a large flood.
"""

import random

import pytest

from repro.core.existence import build_lhg
from repro.core.properties import theoretical_diameter_bound
from repro.flooding.experiments import run_flood
from repro.graphs.connectivity import local_node_connectivity
from repro.graphs.minimality import has_degree_witness_minimality
from repro.graphs.traversal import approximate_diameter

PAIRS = [(2000, 3), (3000, 4), (2500, 6)]


class TestScale:
    @pytest.mark.parametrize("n,k", PAIRS)
    def test_certificate_verifies_at_scale(self, n, k):
        graph, certificate = build_lhg(n, k)
        assert graph.number_of_nodes() == n
        certificate.verify_graph(graph)

    @pytest.mark.parametrize("n,k", PAIRS)
    def test_degree_witness_minimality_at_scale(self, n, k):
        graph, _ = build_lhg(n, k)
        assert graph.min_degree() >= k
        assert has_degree_witness_minimality(graph, k)

    @pytest.mark.parametrize("n,k", PAIRS)
    def test_sampled_menger_connectivity(self, n, k):
        graph, _ = build_lhg(n, k)
        rng = random.Random(n)
        nodes = graph.nodes()
        for _ in range(5):
            s, t = rng.sample(nodes, 2)
            assert local_node_connectivity(graph, s, t, cutoff=k) >= k

    @pytest.mark.parametrize("n,k", PAIRS)
    def test_diameter_bound_at_scale(self, n, k):
        graph, certificate = build_lhg(n, k)
        estimate = approximate_diameter(graph, samples=6, seed=1)
        assert estimate <= theoretical_diameter_bound(certificate)

    def test_flood_at_scale(self):
        graph, _ = build_lhg(4000, 4)
        source = graph.nodes()[0]
        result = run_flood(graph, source)
        assert result.fully_covered
        assert result.completion_time <= 14  # ~log_3(4000) * 2


# beyond the dict-graph comfort zone: the implicit oracle + CSR + the
# certificate verification path, at sizes where Dinic is off the table
ORACLE_PAIRS = [(100_000, 3), (50_000, 4)]


class TestScaleOracle:
    @pytest.mark.parametrize("n,k", ORACLE_PAIRS)
    def test_structural_proofs_at_scale(self, n, k):
        from repro.graphs.implicit import ImplicitJDOracle

        proofs = ImplicitJDOracle(n, k).structural_proofs()
        assert proofs.conclusive and proofs.all_hold, proofs.summary()

    @pytest.mark.parametrize("n,k", ORACLE_PAIRS)
    def test_round_flood_covers_everything(self, n, k):
        from repro.core.properties import logarithmic_diameter_bound
        from repro.flooding.rounds import round_flood
        from repro.graphs.csr import CSRGraph
        from repro.graphs.implicit import ImplicitJDOracle

        csr = CSRGraph.from_oracle(ImplicitJDOracle(n, k))
        assert csr.dense_labels
        result = round_flood(csr, 0)
        assert result.covered == n
        assert result.rounds <= logarithmic_diameter_bound(n, k)

    def test_topology_invariants_use_certificates_at_scale(self):
        from repro.graphs.implicit import ImplicitJDOracle
        from repro.robustness import check_topology_invariants

        oracle = ImplicitJDOracle(100_000, 3)
        assert check_topology_invariants(oracle, 3) == []

    def test_implicit_matches_materialised_at_two_thousand(self):
        from repro.core.jenkins_demers import jenkins_demers_graph
        from repro.graphs.implicit import ImplicitJDOracle

        n, k = 2002, 3
        graph, _ = jenkins_demers_graph(n, k)
        oracle = ImplicitJDOracle(n, k)
        assert oracle.number_of_edges() == graph.number_of_edges()
        for node_id in range(0, n, 97):
            label = oracle.label_of(node_id)
            expected = {oracle.id_of(v) for v in graph.neighbors(label)}
            assert set(oracle.neighbors(node_id)) == expected


class TestScalePipeline:
    """``run_scale``: one staged run, timed by spans that change nothing."""

    N, K = 5000, 3

    def test_collector_is_passive_and_sees_every_stage(self):
        from repro import obs
        from repro.robustness.scale import run_scale

        plain = run_scale(self.N, self.K, csr=True, flood=True, attack=True)
        collector = obs.install()
        try:
            traced = run_scale(self.N, self.K, csr=True, flood=True, attack=True)
        finally:
            obs.uninstall()
        traced.report.pop("peak_rss_bytes")
        plain.report.pop("peak_rss_bytes")
        assert traced.report == plain.report

        names = [span["name"] for span in obs.iter_spans(collector.events)]
        plans = len(plain.attacks)
        assert plans == len(plain.report["attacks"]) > 0
        assert sorted(set(names)) == [
            "csr.compile",
            "scale.attack.flood",
            "scale.attack.recertify",
            "scale.attacks.derive",
            "scale.build",
            "scale.certify",
            "scale.flood",
        ]
        assert names.count("scale.attack.flood") == plans
        assert names.count("scale.attack.recertify") == plans

    def test_attack_records_match_the_report(self):
        from repro.robustness.scale import run_scale

        run = run_scale(self.N, self.K, attack=True)
        assert run.csr is None and run.flood is None and run.green
        for record, row in zip(run.attacks, run.report["attacks"]):
            plan, source, flood, view, violations = record
            assert row["attack"] == plan.name and violations == []
            assert view.damage == row["damage"] == plan.damage
            assert (flood.source, flood.covered) == (source, row["covered"])

    def test_flags_select_stages(self):
        from repro.robustness.scale import run_scale

        run = run_scale(self.N, self.K)
        assert (run.csr, run.flood, run.attacks) == (None, None, [])
        assert "csr_bytes" not in run.report and "attacks" not in run.report
        flooded = run_scale(self.N, self.K, flood=True)  # --flood implies a CSR
        assert flooded.report["csr_bytes"] == flooded.csr.nbytes()
        assert flooded.flood.covered == self.N
