"""The scale pipeline behind ``repro scale``, T8, F17 and CI's 100k gates.

Each stage is an :func:`repro.obs.span` (DESIGN.md §14.5): under an
installed collector those spans are the stage timings; without one they
cost nothing, and the run returns the same result either way.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, NamedTuple, Optional

import repro.obs as obs
from repro.core.certificates import StructuralProofs
from repro.flooding.failures import survivors
from repro.flooding.rounds import RoundFloodResult, round_flood
from repro.graphs.csr import CSRGraph
from repro.graphs.faultview import FaultView
from repro.graphs.implicit import ImplicitJDOracle
from repro.robustness.attacks import AttackPlan, targeted_cut_attacks
from repro.robustness.invariants import InvariantViolation, recertify_survivors


def peak_rss_bytes() -> int:
    """Peak RSS of this process in bytes (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return peak if sys.platform == "darwin" else peak * 1024


class AttackRun(NamedTuple):
    """One targeted attack: its flood from ``source`` and recertification."""

    plan: AttackPlan
    source: int
    flood: RoundFloodResult
    view: FaultView
    violations: List[InvariantViolation]


class ScaleRun(NamedTuple):
    """What :func:`run_scale` built (``None``/empty for stages not asked for)."""

    oracle: ImplicitJDOracle
    proofs: StructuralProofs
    csr: Optional[CSRGraph]
    flood: Optional[RoundFloodResult]
    attacks: List[AttackRun]
    report: Dict[str, Any]

    @property
    def green(self) -> bool:
        """Certificates hold conclusively; every attack fully covered, clean."""
        return (
            self.proofs.all_hold
            and self.proofs.conclusive
            and all(a.flood.fully_covered and not a.violations for a in self.attacks)
        )


def run_scale(
    n: int, k: int, *, csr: bool = False, flood: bool = False, attack: bool = False
) -> ScaleRun:
    """Build and certify the JD LHG for ``(n, k)``, then run the stages asked for.

    The flags mirror ``repro scale``'s: ``csr`` compiles the CSR,
    ``flood`` floods it from node 0 (compiling it too), and ``attack``
    floods the oracle under every :func:`targeted_cut_attacks` plan from
    a surviving source, then recertifies the survivor view.  ``report``
    is the dict ``repro scale --json`` prints.  Spans: ``scale.build``,
    ``scale.certify``, ``csr.compile``, ``scale.flood``,
    ``scale.attacks.derive``, and per plan ``scale.attack.flood`` and
    ``scale.attack.recertify`` (with ``attack=<plan name>``).
    """
    with obs.span("scale.build", n=n, k=k):
        oracle = ImplicitJDOracle(n, k)
    with obs.span("scale.certify"):
        proofs = oracle.structural_proofs()
    report: Dict[str, Any] = {
        "n": n,
        "k": k,
        "rule": oracle.rule,
        "edges": oracle.number_of_edges(),
        "height": oracle.height(),
        "properties": {
            w.property_id: {"holds": w.holds, "conclusive": w.conclusive}
            for w in proofs.witnesses
        },
    }
    compiled = pristine = None
    if csr or flood:
        compiled = CSRGraph.from_oracle(oracle, name=oracle.name)
        report["csr_bytes"] = compiled.nbytes()
    if flood:
        with obs.span("scale.flood"):
            pristine = round_flood(compiled, 0)
        report["flood"] = {
            "covered": pristine.covered,
            "messages": pristine.messages,
            "rounds": pristine.rounds,
        }
    attacks: List[AttackRun] = []
    if attack:
        with obs.span("scale.attacks.derive"):
            plans = targeted_cut_attacks(oracle)
        for plan in plans:
            schedule = plan.schedule()
            source = plan.surviving_source(oracle)
            with obs.span("scale.attack.flood", attack=plan.name):
                flooded = round_flood(oracle, source, schedule=schedule)
            view = survivors(oracle, schedule)
            with obs.span("scale.attack.recertify", attack=plan.name):
                violations = recertify_survivors(view, k)
            attacks.append(AttackRun(plan, source, flooded, view, violations))
        report["attacks"] = [
            {
                "attack": run.plan.name,
                "damage": run.plan.damage,
                "alive": run.flood.alive,
                "covered": run.flood.covered,
                "reachable": run.flood.reachable,
                "rounds": run.flood.rounds,
                "messages": run.flood.messages,
                "violations": [str(v) for v in run.violations],
            }
            for run in attacks
        ]
    report["peak_rss_bytes"] = peak_rss_bytes()
    return ScaleRun(oracle, proofs, compiled, pristine, attacks, report)

