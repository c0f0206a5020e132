"""Structural certificates cross-checked against the exact Dinic checkers.

The certificates replace O(k·n·m) max-flow verification at scale, so
their verdicts must be *provably* trustworthy: over the small-(n, k)
census — where the exact checkers are affordable — every conclusive
witness must agree with :func:`check_lhg`, for every construction rule.
Inconclusive witnesses are allowed to exist (they mean "fall back to
exact"), but never a conclusive wrong answer.
"""

import pytest

from repro.core.certificates import (
    CertificateError,
    PropertyWitness,
    StructuralProofs,
    assemble_structural_proofs,
    structural_proofs,
)
from repro.core.existence import build_lhg
from repro.core.jenkins_demers import jd_feasibility
from repro.core.kdiamond import kdiamond_exists
from repro.core.ktree import ktree_exists
from repro.core.properties import check_lhg
from repro.graphs.implicit import ImplicitJDOracle
from repro.graphs.oracle import materialize
from repro.robustness import check_topology_invariants

JD_CENSUS = [
    (n, k)
    for k in range(2, 6)
    for n in range(2 * k, 2 * k + 16)
    if jd_feasibility(n, k) is not None
]

RULE_CENSUS = [
    (n, k, rule)
    for k in range(2, 5)
    for n in range(2 * k, 2 * k + 12)
    for rule, exists in (
        ("k-tree", ktree_exists(n, k)),
        ("k-diamond", kdiamond_exists(n, k)),
    )
    if exists
]


def _assert_agrees_with_exact(proofs, graph, k):
    report = check_lhg(graph, k)
    exact = {
        "P1": report.node_connected,
        "P2": report.link_connected,
        "P3": report.link_minimal,
        "P4": report.log_diameter,
    }
    for witness in proofs.witnesses:
        assert witness.conclusive, proofs.summary()
        assert witness.holds == exact[witness.property_id], (
            proofs.summary(),
            report.summary(),
        )


class TestAgainstDinic:
    @pytest.mark.parametrize("n,k", JD_CENSUS)
    def test_implicit_jd_proofs_agree(self, n, k):
        oracle = ImplicitJDOracle(n, k)
        _assert_agrees_with_exact(
            oracle.structural_proofs(), materialize(oracle), k
        )

    @pytest.mark.parametrize("n,k,rule", RULE_CENSUS)
    def test_certificate_proofs_agree(self, n, k, rule):
        graph, certificate = build_lhg(n, k, rule=rule)
        proofs = structural_proofs(certificate)
        assert proofs.rule == certificate.rule
        _assert_agrees_with_exact(proofs, graph, k)

    @pytest.mark.parametrize("n,k", [(10, 3), (16, 4)])
    def test_both_certifiers_produce_identical_proofs(self, n, k):
        _, certificate = build_lhg(n, k, rule="jenkins-demers")
        from_cert = structural_proofs(certificate)
        from_oracle = ImplicitJDOracle(n, k).structural_proofs()
        assert from_cert.n == from_oracle.n
        for pid in ("P1", "P2", "P3", "P4"):
            a, b = from_cert.witness(pid), from_oracle.witness(pid)
            assert (a.holds, a.conclusive) == (b.holds, b.conclusive)


class TestWitnessApi:
    def _proofs(self, **overrides):
        kwargs = dict(
            n=10,
            k=3,
            rule="jenkins-demers",
            height=2,
            tree_ok=True,
            tree_detail="test",
            degree_witness_ok=True,
            degree_witness_detail="test",
            num_edges=15,
        )
        kwargs.update(overrides)
        return assemble_structural_proofs(**kwargs)

    def test_all_hold_and_summary(self):
        proofs = self._proofs()
        assert isinstance(proofs, StructuralProofs)
        assert proofs.all_hold and proofs.conclusive
        assert "P1=ok" in proofs.summary()
        payload = proofs.to_dict()
        assert payload["all_hold"] is True
        assert len(payload["witnesses"]) == 4

    def test_witness_lookup(self):
        proofs = self._proofs()
        assert isinstance(proofs.witness("P3"), PropertyWitness)
        with pytest.raises(CertificateError):
            proofs.witness("P9")

    def test_broken_degree_witness_is_inconclusive_for_p3_only(self):
        proofs = self._proofs(degree_witness_ok=False)
        p3 = proofs.witness("P3")
        assert not p3.holds and not p3.conclusive  # fall back, not "fails"
        for pid in ("P1", "P2", "P4"):
            assert proofs.witness(pid).conclusive
        assert not proofs.all_hold
        assert "P3=??" in proofs.summary()

    def test_broken_tree_premise_spoils_everything(self):
        proofs = self._proofs(tree_ok=False)
        assert not proofs.conclusive
        assert all(not w.holds for w in proofs.witnesses)

    def test_vacuous_diameter_budget_at_k2(self):
        # k = 2's budget is n (vacuous): any connected graph fits.
        proofs = self._proofs(n=4, k=2, height=1, num_edges=4)
        assert proofs.witness("P4").holds


class TestTopologyInvariants:
    def test_small_exact_path_clean(self):
        graph, _ = build_lhg(10, 3)
        assert check_topology_invariants(graph, 3) == []

    def test_small_exact_path_catches_damage(self):
        graph, _ = build_lhg(10, 3)
        edge = next(graph.iter_edges())
        graph.remove_edge(*edge)
        violations = check_topology_invariants(graph, 3)
        assert violations
        assert any("P1" in v.invariant for v in violations)

    def test_certificate_path_at_scale(self):
        oracle = ImplicitJDOracle(5000, 3)
        assert check_topology_invariants(oracle, 3) == []

    def test_certificate_argument_path(self):
        graph, certificate = build_lhg(100, 3)
        violations = check_topology_invariants(
            graph, 3, certificate=certificate, exact_limit=10
        )
        assert violations == []
        assert violations.rule == "certificate"

    def test_unbound_certificate_argument_falls_through(self):
        # the certificate describes the pristine graph, not this one: it
        # must not vouch for it, at any exact_limit
        graph, certificate = build_lhg(100, 3)
        graph.remove_edge(*next(graph.iter_edges()))
        exact = check_topology_invariants(graph, 3)
        assert {"P1-node-connectivity", "P2-link-connectivity"} <= {
            v.invariant for v in exact
        }
        for exact_limit in (10, 512):
            violations = check_topology_invariants(
                graph, 3, certificate=certificate, exact_limit=exact_limit
            )
            assert violations == exact
            assert violations.rule == "exact"

    def test_inconclusive_witness_surfaces_as_violation(self):
        class Shifty:
            def num_nodes(self):
                return 1000

            def degree(self, v):
                return 3

            def neighbors(self, v):
                return []

            def iter_nodes(self):
                return iter(range(1000))

            def structural_proofs(self):
                return assemble_structural_proofs(
                    n=1000,
                    k=3,
                    rule="test",
                    height=5,
                    tree_ok=True,
                    tree_detail="",
                    degree_witness_ok=False,
                    degree_witness_detail="host cluster breaks the witness",
                    num_edges=1500,
                )

        violations = check_topology_invariants(Shifty(), 3, exact_limit=512)
        assert len(violations) == 1
        assert violations[0].invariant == "P3-link-minimality"
        assert "inconclusive" in violations[0].detail

    def test_certificate_for_another_k_is_inconclusive(self):
        # a k=3 certificate proves κ ≥ 3, nothing about k=5
        oracle = ImplicitJDOracle(1000, 3)
        violations = check_topology_invariants(oracle, 5)
        assert [v.invariant for v in violations] == [
            "P1-node-connectivity",
            "P2-link-connectivity",
            "P3-link-minimality",
            "P4-log-diameter",
        ]
        assert all("inconclusive" in v.detail for v in violations)

    def test_oracle_materialised_for_exact_path(self):
        oracle = ImplicitJDOracle(10, 3)
        assert check_topology_invariants(oracle, 3) == []
