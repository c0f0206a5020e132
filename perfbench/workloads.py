"""The four benchmark workloads of the LHG pipeline.

Each workload owns its inputs (all derived from the run seed), a
``setup()`` that builds the state the timed loop needs, and a
``run_round(index)`` that performs one closed-loop round of operations
and returns an :class:`Outcome`.  Correctness is checked by the
workload itself, outside the timed calls: every failed check becomes a
counted failure and a human-readable problem line.

Spans opened here (``obs.span``) are inert unless the traced run has
installed a collector, so the untraced run pays one ``is None`` test
per call.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import repro.obs as obs
from repro.core.properties import logarithmic_diameter_bound
from repro.exec.cache import GRAPH_CACHE, TopologySpec
from repro.flooding.failures import survivors
from repro.flooding.rounds import round_flood
from repro.graphs.csr import CSRGraph
from repro.graphs.faultview import component_size
from repro.graphs.implicit import ImplicitJDOracle
from repro.overlay.membership import LHGOverlay
from repro.robustness import ChaosCampaign
from repro.robustness.attacks import targeted_cut_attacks
from repro.robustness.invariants import (
    check_topology_invariants,
    recertify_survivors,
)
from repro.service import SoakConfig, run_soak


def digest(value: Any) -> str:
    """SHA-256 of a JSON rendering (sorted keys) of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one timed round did: operations attempted and failed.

    ``parts`` maps each timed part of the round (the same keys in every
    round) to its seconds, so that a run can take each part's typical
    time over its rounds.
    """

    ops: int
    parts: Dict[str, float]
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())


def _flood_record(flood) -> Dict[str, Any]:
    return {
        "source": flood.source,
        "covered": flood.covered,
        "messages": flood.messages,
        "rounds": flood.rounds,
        "round_sizes": list(flood.round_sizes),
        "alive": flood.alive,
        "reachable": flood.reachable,
    }


class Workload:
    """Shared bookkeeping; subclasses fill in setup, rounds and anchor."""

    name = ""
    #: the metric names the workload was specified with, for the report;
    #: ``worst`` names the worst-case flood latency shown beside ``hops``
    aliases: Dict[str, str] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup_problems: List[str] = []
        self.counts: Dict[str, float] = {}
        self.hops_sum = 0.0
        self.hops_weight = 0
        self.messages = 0.0
        self.covered = 0
        self.worst = 0.0

    def rng(self, index: int) -> random.Random:
        """The input generator of round ``index``: a pure function of the seed."""
        return random.Random(f"perfbench/{self.name}/{self.seed}/{index}")

    def count(self, name: str, amount: float = 1) -> None:
        """Accumulate a per-layer count over every round of the run."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def cross_check(self) -> List[str]:
        """Independent witnesses run after the timed loop (default: none)."""
        return []

    def anchor(self) -> Any:
        """Deterministic outputs of a fixed input, pinned in digests.json."""
        raise NotImplementedError

    def flooded(self, hops: float, messages: float, covered: int,
                weight: int = 1, worst: Optional[float] = None) -> None:
        """Record ``weight`` floods with mean latency ``hops``."""
        self.hops_sum += hops * weight
        self.hops_weight += weight
        self.messages += messages
        self.covered += covered
        self.worst = max(self.worst, hops if worst is None else worst)

    def quality(self) -> Dict[str, float]:
        """The paper's quantities over every flood of the run."""
        return {
            "hops": self.hops_sum / self.hops_weight,
            "msgs_per_node": self.messages / self.covered,
            "worst": self.worst,
        }


# ----------------------------------------------------------------------
# pristine-250k: build, certify, compile, flood at n = 2.5 * 10^5
# ----------------------------------------------------------------------


class Pristine(Workload):
    """JD LHG n=2.5·10⁵, k=3: certify, compile to CSR, flood both backends."""

    name = "pristine-250k"
    aliases = {"ops_per_s": "floods_per_s", "hops": "flood_rounds_mean",
               "worst": "flood_rounds_max", "msgs_per_node": "messages_per_node"}
    n = 250_000
    k = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.oracle: Optional[ImplicitJDOracle] = None
        self.csr: Optional[CSRGraph] = None
        self.bound = logarithmic_diameter_bound(self.n, self.k)

    def setup(self) -> None:
        self.oracle = self.csr = None  # free the previous repetition first
        with obs.span("core.build"):
            oracle = ImplicitJDOracle(self.n, self.k)
        with obs.span("core.certify"):
            proofs = oracle.structural_proofs()
        with obs.span("csr.compile"):
            csr = CSRGraph.from_oracle(oracle, name=oracle.name)
        self.oracle, self.csr, self.proofs = oracle, csr, proofs

    def check_setup(self) -> None:
        proofs, csr, oracle = self.proofs, self.csr, self.oracle
        problems = []
        if len(proofs.witnesses) != 4:
            problems.append(f"expected 4 certificates, got {len(proofs.witnesses)}")
        if not (proofs.conclusive and proofs.all_hold):
            problems.append(f"certificates not all conclusive and holding: {proofs.summary()}")
        if not csr.dense_labels or csr.num_nodes() != self.n:
            problems.append(f"CSR has {csr.num_nodes()} nodes, expected {self.n}")
        if csr.number_of_edges() != oracle.number_of_edges():
            problems.append(
                f"CSR edges {csr.number_of_edges()} != oracle edges "
                f"{oracle.number_of_edges()}"
            )
        self.setup_problems = problems
        self.counts["csr.bytes"] = csr.nbytes()

    def run_round(self, index: int) -> Outcome:
        source = self.rng(index).randrange(self.n)
        started = time.perf_counter()
        with obs.span("rounds.flood_csr"):
            on_csr = round_flood(self.csr, source)
        middle = time.perf_counter()
        with obs.span("rounds.flood_implicit"):
            on_oracle = round_flood(self.oracle, source)
        parts = {"csr": middle - started, "implicit": time.perf_counter() - middle}
        outcome = Outcome(ops=2, parts=parts, attempted=2)
        for backend, flood in (("csr", on_csr), ("implicit", on_oracle)):
            if flood.covered != self.n or flood.rounds > self.bound:
                outcome.failed += 1
                outcome.problems.append(
                    f"{backend} flood from {source}: covered {flood.covered}/"
                    f"{self.n} in {flood.rounds} rounds (bound {self.bound})"
                )
        if on_csr != on_oracle:
            outcome.failed += 1
            outcome.problems.append(f"CSR and implicit floods from {source} differ")
        for flood in (on_csr, on_oracle):
            self.flooded(flood.rounds, flood.messages, flood.covered)
        self.count("rounds.messages", on_csr.messages + on_oracle.messages)
        self.count("rounds.covered", on_csr.covered + on_oracle.covered)
        return outcome

    def anchor(self) -> Any:
        return {
            "edges": self.oracle.number_of_edges(),
            "height": self.oracle.height(),
            "flood": _flood_record(round_flood(self.csr, 0)),
        }



# ----------------------------------------------------------------------
# attack-30k: every targeted k-1 attack, flooded and recertified
# ----------------------------------------------------------------------


class Attack(Workload):
    """JD LHG n=3·10⁴, k=3: all targeted k−1 attacks, flood + recertify."""

    name = "attack-30k"
    aliases = {"ops_per_s": "attacks_per_s", "hops": "flood_rounds_mean",
               "worst": "flood_rounds_max", "msgs_per_node": "messages_per_node"}
    n = 30_000
    k = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.bound = logarithmic_diameter_bound(self.n, self.k)
        self.first_pass: Optional[List[Dict[str, Any]]] = None
        self.views: List[Any] = []

    def setup(self) -> None:
        with obs.span("core.build"):
            oracle = ImplicitJDOracle(self.n, self.k)
        with obs.span("attacks.derive"):
            plans = targeted_cut_attacks(oracle)
            schedules = [plan.schedule() for plan in plans]
        # one seeded surviving source per plan, fixed for the whole run
        rng = self.rng(-1)
        sources = []
        for plan in plans:
            down = set(plan.crashes)
            source = rng.randrange(self.n)
            while source in down:
                source = rng.randrange(self.n)
            sources.append(source)
        self.oracle, self.plans = oracle, plans
        self.schedules, self.sources = schedules, sources

    def check_setup(self) -> None:
        self.setup_problems = [] if self.plans else ["no attack plans derived"]
        self.counts["attacks.plans"] = len(self.plans)

    def run_round(self, index: int) -> Outcome:
        oracle, k = self.oracle, self.k
        results = []
        parts = {}
        for plan, schedule, source in zip(self.plans, self.schedules, self.sources):
            started = time.perf_counter()
            with obs.span("rounds.faulty_flood"):
                flood = round_flood(oracle, source, schedule=schedule)
            with obs.span("faultview.survivors"):
                view = survivors(oracle, schedule)
            with obs.span("invariants.recertify"):
                violations = recertify_survivors(view, k)
            parts[plan.name] = time.perf_counter() - started
            results.append((plan, source, flood, view, violations))
        outcome = Outcome(ops=len(results), parts=parts, attempted=len(results))
        records = []
        for plan, source, flood, view, violations in results:
            problems = []
            if flood.covered != flood.alive or flood.reachable != flood.alive:
                problems.append(
                    f"covered {flood.covered}, reachable {flood.reachable}, "
                    f"alive {flood.alive}"
                )
            if flood.alive != self.n - len(plan.crashes) or view.damage != plan.damage:
                problems.append("survivor arithmetic disagrees with the plan")
            if flood.rounds > self.bound + plan.damage:
                problems.append(f"{flood.rounds} rounds exceed the damaged bound")
            if violations:
                problems.append("; ".join(str(v) for v in violations))
            if problems:
                outcome.failed += 1
                outcome.problems.extend(f"{plan.name}: {p}" for p in problems)
            records.append({"plan": plan.name, **_flood_record(flood),
                            "violations": [str(v) for v in violations]})
            self.flooded(flood.rounds, flood.messages, flood.covered)
            self.count("rounds.faulty_messages", flood.messages)
        self.counts["rounds.faulty_rounds"] = self.worst
        # the inputs repeat every round, so the outputs must too
        if self.first_pass is None:
            self.first_pass = records
            self.views = [(flood, view, source) for _, source, flood, view, _ in results]
        elif records != self.first_pass:
            outcome.failed += 1
            outcome.problems.append(f"round {index} outputs differ from round 0")
        return outcome

    def cross_check(self) -> List[str]:
        problems = []
        for flood, view, source in self.views:
            with obs.span("faultview.component_size"):
                witness = component_size(view, source)
            if witness != flood.reachable:
                problems.append(
                    f"reachable {flood.reachable} from {source} disagrees with "
                    f"the component_size witness {witness}"
                )
        return problems

    def anchor(self) -> Any:
        plan, schedule = self.plans[0], self.schedules[0]
        flood = round_flood(self.oracle, plan.surviving_source(self.oracle), schedule=schedule)
        return {
            "plans": [(p.name, list(p.crashes), [list(e) for e in p.link_kills])
                      for p in self.plans],
            "flood": _flood_record(flood),
        }



# ----------------------------------------------------------------------
# soak-mixed: joins, crash bursts and repair beside simulated floods
# ----------------------------------------------------------------------


class Soak(Workload):
    """The overlay service under churn, floods and two bursts beyond k−1."""

    name = "soak-mixed"
    aliases = {"ops_per_s": "ticks_per_s", "hops": "latency_mean_hops",
               "worst": "latency_p99_hops", "msgs_per_node": "amplification_mean"}
    config = SoakConfig(
        population=48,
        k=3,
        duration=60,
        churn_rate=0.3,
        flood_rate=12.0,
        zipf_exponent=1.1,
        flood_budget=256,
        verify_every=20,
        bursts=((15, 3), (40, 4)),
    )
    #: A degradation window may still be open when the soak stops only if
    #: it opened in the last ``close_within`` ticks: the longest window
    #: over 120 soaks of this configuration lasted 11 ticks.
    close_within = 12

    def setup(self) -> None:
        config = self.config
        overlay = LHGOverlay(k=config.k, rule=config.rule)
        with obs.span("overlay.bootstrap"):
            for member in range(config.population):
                overlay.join(f"peer-{member}")
        with obs.span("invariants.verify"):
            self.bootstrap_violations = check_topology_invariants(
                overlay.topology(), config.k
            )

    def check_setup(self) -> None:
        self.setup_problems = [
            f"bootstrap overlay: {v}" for v in self.bootstrap_violations
        ]

    def run_round(self, index: int) -> Outcome:
        config = replace(self.config, seed=self.rng(index).randrange(2**31))
        started = time.perf_counter()
        with obs.span("soak.run"):
            report = run_soak(config)
        seconds = time.perf_counter() - started
        payload = report.payload
        floods, verify = payload["floods"], payload["verify"]
        windows = payload["degradation"]["windows"]
        attempted = floods["completed"] + floods["shed"] + verify["runs"]
        outcome = Outcome(ops=payload["ticks"], parts={"soak": seconds}, attempted=attempted)
        outcome.failed = floods["shed"] + floods["partial"] + verify["failures"]
        problems = [
            f"{floods['shed']} shed and {floods['partial']} partial floods"
            if floods["shed"] or floods["partial"] else "",
            f"{verify['failures']} failed verifies" if verify["failures"] else "",
            "a degradation window stayed open"
            if any(w["end"] is None and w["start"] < payload["ticks"] - self.close_within
                   for w in windows)
            else "",
            f"only {payload['churn']['crashes']} crashes for bursts {config.bursts}"
            if payload["churn"]["crashes"] < sum(size for _, size in config.bursts)
            else "",
        ]
        outcome.problems = [f"soak seed {config.seed}: {p}" for p in problems if p]
        if outcome.problems and not outcome.failed:
            outcome.failed = 1
        completed = floods["completed"]
        self.flooded(payload["latency"]["mean"],
                     payload["amplification"]["mean"] * completed, completed,
                     weight=completed, worst=payload["latency"]["p99"])
        self.count("soak.floods", floods["completed"] + floods["shed"])
        self.count("soak.shed", floods["shed"])
        return outcome

    def anchor(self) -> Any:
        return json.loads(run_soak(replace(self.config, duration=20)).to_json())



# ----------------------------------------------------------------------
# campaign-event: the chaos campaign on the event simulator, 2 workers
# ----------------------------------------------------------------------


class Campaign(Workload):
    """ChaosCampaign on LHG n=256, k=4: 7 scenarios x 2 protocols, 2 workers."""

    name = "campaign-event"
    aliases = {"ops_per_s": "cells_per_s", "hops": "completion_mean",
               "worst": "completion_max", "msgs_per_node": "messages_per_node"}
    spec = TopologySpec(256, 4)
    workers = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.reports: List[Any] = []

    def setup(self) -> None:
        GRAPH_CACHE.clear()
        with obs.span("core.build"):
            self.graph, _ = GRAPH_CACHE.resolve(self.spec)

    def check_setup(self) -> None:
        n = self.graph.number_of_nodes()
        self.setup_problems = [] if n == self.spec.n else [f"graph has {n} nodes"]

    def run_round(self, index: int) -> Outcome:
        seed = self.rng(index).randrange(2**31)
        campaign = ChaosCampaign([(self.spec.label, self.spec)], seeds=(seed,))
        started = time.perf_counter()
        matrix = campaign.run(workers=self.workers)
        seconds = time.perf_counter() - started
        cells = len(matrix.cells) + len(matrix.failures)
        outcome = Outcome(ops=len(matrix.cells), parts={"campaign": seconds}, attempted=cells)
        bad = [cell for cell in matrix.cells if cell.violations]
        outcome.failed = len(bad) + len(matrix.failures)
        outcome.problems = [
            f"{cell.scenario}/{cell.protocol}/s{cell.seed}: {'; '.join(cell.violations)}"
            for cell in bad
        ] + [failure.summary() for failure in matrix.failures]
        expected = len(campaign.scenarios) * len(campaign.protocols)
        if cells != expected:
            outcome.failed += 1
            outcome.problems.append(f"{cells} cells, expected {expected}")
        for cell in matrix.cells:
            self.flooded(cell.completion_time or 0.0, cell.messages, cell.covered)
        self.reports.append(campaign.last_report)
        return outcome

    def anchor(self) -> Any:
        campaign = ChaosCampaign([(self.spec.label, self.spec)], seeds=(0,))
        scenario = next(s for s in campaign.scenarios if s.name == "crash-recover")
        cells = [
            campaign.run_cell(self.spec.label, None, protocol, scenario, 0)
            for protocol in campaign.protocols
        ]
        return [
            [c.scenario, c.protocol, c.covered, c.reachable, c.messages,
             c.retransmissions, c.completion_time, list(c.violations)]
            for c in cells
        ]



WORKLOADS = {cls.name: cls for cls in (Pristine, Attack, Soak, Campaign)}
