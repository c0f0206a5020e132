"""Chaos engineering for the flooding stack: campaigns, scenarios, invariants.

The paper's claim is *resilience* — an LHG floods correctly under any
k − 1 crashes or link failures.  This package stresses that claim far
beyond the crash-stop model: a :class:`ChaosCampaign` sweeps scenario ×
protocol × topology grids (message loss, duplication, reordering,
flapping links, transient partitions, crash-recovery), checks harness
invariants after every run, and aggregates a resilience matrix.
Exposed on the command line as ``python -m repro chaos``.
"""

from repro.exec.cache import TopologySpec
from repro.robustness.attacks import AttackPlan, targeted_cut_attacks
from repro.robustness.campaign import (
    CellResult,
    ChaosCampaign,
    ProtocolSpec,
    ResilienceMatrix,
    round_flood_protocol,
    standard_protocols,
)
from repro.robustness.invariants import (
    DeadDeliveryWatch,
    InvariantViolation,
    RunRecord,
    check_invariants,
    check_no_dead_delivery,
    check_quiescence,
    check_retransmission_budget,
    check_survivor_coverage,
    check_topology_invariants,
    recertify_survivors,
)
from repro.robustness.scenarios import (
    Scenario,
    ScenarioSetup,
    baseline,
    crash_recover,
    duplicate_reorder,
    flapping,
    message_loss,
    partition_heal,
    standard_scenarios,
)

__all__ = [
    "AttackPlan",
    "CellResult",
    "ChaosCampaign",
    "DeadDeliveryWatch",
    "InvariantViolation",
    "ProtocolSpec",
    "ResilienceMatrix",
    "RunRecord",
    "Scenario",
    "ScenarioSetup",
    "TopologySpec",
    "baseline",
    "check_invariants",
    "check_no_dead_delivery",
    "check_quiescence",
    "check_retransmission_budget",
    "check_survivor_coverage",
    "check_topology_invariants",
    "crash_recover",
    "duplicate_reorder",
    "flapping",
    "message_loss",
    "partition_heal",
    "recertify_survivors",
    "round_flood_protocol",
    "standard_protocols",
    "standard_scenarios",
    "targeted_cut_attacks",
]
