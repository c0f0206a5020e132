"""Tests for the soak service: workload, SLOs, degradation, resume.

The acceptance bar mirrors the service's two headline claims:

* a crash burst of **k** members drives the service into the explicit
  ``DEGRADED`` state (never an exception) and it returns to ``HEALTHY``
  only after re-verifying Properties 1–4 on the repaired topology;
* a checkpointed soak that is SIGKILL'd partway through and resumed
  produces an SLO report **byte-identical** to an uninterrupted run
  with the same seed — including through the CLI.
"""

# repro: lint-ignore-file[DET002] kill-resume drivers need a real wall-clock watchdog around the subprocess victim

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.existence import build_lhg
from repro.errors import ReproError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.rounds import round_flood
from repro.graphs.faultview import FaultView
from repro.graphs.traversal import connected_components
from repro.overlay.membership import LHGOverlay
from repro.robustness import check_topology_invariants
from repro.service import (
    DEGRADED,
    HEALTHY,
    AlertPolicy,
    BurnRateMonitor,
    SoakConfig,
    SoakService,
    poisson_draw,
    run_soak,
    zipf_pick,
    zipf_weights,
)
from repro.service.slo import LATENCY_BUCKETS, SLOTracker, percentile


class TestWorkload:
    def test_poisson_draw_deterministic(self):
        a = [poisson_draw(random.Random(7), 2.0) for _ in range(5)]
        b = [poisson_draw(random.Random(7), 2.0) for _ in range(5)]
        assert a == b

    def test_poisson_mean_tracks_rate(self):
        rng = random.Random(3)
        draws = [poisson_draw(rng, 2.5) for _ in range(4000)]
        assert 2.3 < sum(draws) / len(draws) < 2.7

    def test_poisson_zero_rate_is_zero(self):
        assert poisson_draw(random.Random(0), 0.0) == 0
        assert poisson_draw(random.Random(0), -1.0) == 0

    def test_poisson_rejects_non_finite(self):
        with pytest.raises(ReproError):
            poisson_draw(random.Random(0), float("nan"))

    def test_zipf_weights_decay(self):
        weights = zipf_weights(5, 1.0)
        assert weights == [1.0, 0.5, 1 / 3, 0.25, 0.2]

    def test_zipf_pick_prefers_early_ranks(self):
        rng = random.Random(11)
        items = list("abcdefgh")
        picks = [zipf_pick(rng, items, 1.2) for _ in range(2000)]
        assert picks.count("a") > picks.count("h") * 3

    def test_zipf_pick_empty_errors(self):
        with pytest.raises(ReproError):
            zipf_pick(random.Random(0), [])


class TestPercentile:
    def _snap(self, values):
        tracker = SLOTracker()
        for value in values:
            tracker.flood_completed(value, messages=1, covered=1, reachable=1)
        return tracker.registry.histograms["soak.flood.latency"].snapshot()

    def test_empty_histogram_is_zero(self):
        tracker = SLOTracker()
        assert tracker.latency_percentiles() == {
            "p50": 0.0,
            "p99": 0.0,
            "p999": 0.0,
        }

    def test_median_of_uniform_fill(self):
        snap = self._snap([1, 2, 3, 4])
        assert percentile(snap, 0.5) == 2.0
        assert percentile(snap, 1.0) == 4.0

    def test_overflow_reports_recorded_max(self):
        snap = self._snap([999.0])
        assert percentile(snap, 0.99) == 999.0

    def test_bad_quantile_rejected(self):
        snap = self._snap([1])
        with pytest.raises(ReproError):
            percentile(snap, 0.0)
        with pytest.raises(ReproError):
            percentile(snap, 1.5)

    def test_buckets_cover_lhg_diameters(self):
        # p999 resolution needs single-hop granularity where floods live
        assert LATENCY_BUCKETS[0] == 1.0
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


class TestTopologyInvariants:
    def test_clean_lhg_has_no_violations(self):
        graph, _ = build_lhg(14, 3)
        assert check_topology_invariants(graph, 3) == []

    def test_damaged_graph_names_failed_properties(self):
        graph, _ = build_lhg(14, 3)
        node = graph.nodes()[0]
        for neighbor in sorted(graph.neighbors(node), key=repr)[:2]:
            graph.remove_edge(node, neighbor)
        names = {v.invariant for v in check_topology_invariants(graph, 3)}
        assert "P1-node-connectivity" in names

    def test_bootstrap_regime_uses_complete_graph_bound(self):
        from repro.graphs.generators.classic import complete_graph

        graph = complete_graph(4)  # n < 2k for k=3: no LHG exists
        assert check_topology_invariants(graph, 3, expect_lhg=False) == []

    def test_bootstrap_violation_detected(self):
        from repro.graphs.generators.classic import path_graph

        graph = path_graph(4)
        violations = check_topology_invariants(graph, 3, expect_lhg=False)
        assert [v.invariant for v in violations] == ["bootstrap-connectivity"]

    def test_trivial_graphs_vacuously_pass(self):
        from repro.graphs.graph import Graph

        empty = Graph()
        assert check_topology_invariants(empty, 3) == []

    # above check_lhg's exact_diameter_limit (2000 nodes) the diameter is a
    # double-sweep lower bound: P4 may pass only under a proved upper bound

    @staticmethod
    def _p4(graph):
        return [
            v for v in check_topology_invariants(graph, 3)
            if v.invariant == "P4-log-diameter"
        ]

    def test_under_reported_diameter_is_inconclusive(self, monkeypatch):
        from repro.core import properties
        from repro.graphs.generators.classic import cycle_graph

        monkeypatch.setattr(properties, "approximate_diameter", lambda g: 1)
        [p4] = self._p4(cycle_graph(2101))  # diameter 1050, budget 48
        assert "inconclusive" in p4.detail
        assert "upper bound 2100 exceeds budget 48" in p4.detail

    def test_lower_bound_over_budget_is_a_violation(self):
        from repro.graphs.generators.classic import cycle_graph

        [p4] = self._p4(cycle_graph(2101))
        assert p4.detail == "diameter 1050 exceeds budget 48 at n=2101"

    def test_upper_bound_within_budget_proves_p4(self):
        from repro.graphs.generators.classic import star_graph

        assert self._p4(star_graph(2101)) == []


class TestSoakConfig:
    def test_rejects_sub_lhg_population(self):
        with pytest.raises(ReproError):
            SoakConfig(population=5, k=3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ReproError):
            SoakConfig(k=1)
        with pytest.raises(ReproError):
            SoakConfig(duration=0)
        with pytest.raises(ReproError):
            SoakConfig(backoff_base=4, backoff_cap=2)
        with pytest.raises(ReproError):
            SoakConfig(bursts=((3, 0),))
        with pytest.raises(ReproError):
            SoakConfig(max_wall=0.0)

    def test_digest_stable_and_seed_sensitive(self):
        a = SoakConfig(seed=1)
        assert a.digest() == SoakConfig(seed=1).digest()
        assert a.digest() != SoakConfig(seed=2).digest()

    def test_digest_ignores_wall_budget(self):
        # a journal written under a wall budget must resume without one
        assert SoakConfig(max_wall=5.0).digest() == SoakConfig().digest()


CFG = dict(
    population=14,
    k=3,
    duration=40,
    churn_rate=0.5,
    flood_rate=1.5,
    verify_every=10,
    seed=7,
)


class TestSoakRun:
    def test_steady_state_stays_healthy(self):
        report = run_soak(SoakConfig(**CFG))
        assert report["final_state"] == HEALTHY
        assert report.violations() == []
        assert report["floods"]["completed"] > 0
        assert report["verify"]["runs"] >= 4
        assert report["verify"]["failures"] == 0

    def test_report_is_deterministic(self):
        config = SoakConfig(**CFG)
        assert run_soak(config).to_json() == run_soak(config).to_json()

    def test_seed_changes_the_run(self):
        a = run_soak(SoakConfig(**{**CFG, "seed": 1}))
        b = run_soak(SoakConfig(**{**CFG, "seed": 2}))
        assert a.to_json() != b.to_json()

    def test_k_burst_degrades_then_recovers(self):
        """The acceptance criterion: k crashes -> DEGRADED -> re-verify."""
        config = SoakConfig(**{**CFG, "bursts": ((12, 3),)})
        report = run_soak(config)  # burst of k=3 > k-1: guarantee voided
        windows = report["degradation"]["windows"]
        assert len(windows) >= 1
        first = windows[0]
        assert first["start"] == 12
        assert first["cause"] in ("burst", "partition")
        assert first["end"] is not None  # recovery happened...
        assert report["final_state"] == HEALTHY
        # ...and was *proven*: the post-repair verify battery passed
        assert report["verify"]["runs"] > 0
        assert report["verify"]["failures"] == 0
        assert report["repair"]["convergence"]["count"] >= 1

    def test_oversized_burst_never_raises(self):
        config = SoakConfig(**{**CFG, "bursts": ((8, 6), (20, 5))})
        report = run_soak(config)  # 2k bursts: far past the paper's model
        assert report["degradation"]["count"] >= 2
        assert report["final_state"] == HEALTHY

    def test_admission_control_sheds_over_budget(self):
        config = SoakConfig(
            **{**CFG, "flood_rate": 6.0, "flood_budget": 2, "duration": 20}
        )
        report = run_soak(config)
        assert report["floods"]["shed"] > 0
        shed_total = report["floods"]["shed"] + report["floods"]["completed"]
        assert report["floods"]["shed_fraction"] == pytest.approx(
            report["floods"]["shed"] / shed_total
        )

    def test_wall_budget_truncates_cleanly(self):
        config = SoakConfig(**{**CFG, "duration": 10_000, "max_wall": 0.05})
        report = run_soak(config)
        assert report["truncated"] is True
        assert 0 < report["ticks"] < 10_000

    def test_degraded_state_halves_admission_budget(self):
        # a long repair backlog: every tick a forced burst restarts it
        config = SoakConfig(
            **{
                **CFG,
                "duration": 16,
                "flood_rate": 5.0,
                "flood_budget": 4,
                "repair_edge_budget": 1,
                "bursts": tuple((t, 2) for t in range(4, 10)),
            }
        )
        report = run_soak(config)
        assert report["degradation"]["count"] >= 1
        assert report["repair"]["restarts"] >= 1

    def test_emergency_rebuild_bounds_the_backlog(self):
        config = SoakConfig(
            **{
                **CFG,
                "duration": 30,
                "repair_edge_budget": 1,  # glacial repair
                "repair_retries": 1,  # ...with almost no patience
                "bursts": tuple((t, 2) for t in range(5, 17, 2)),
            }
        )
        report = run_soak(config)
        assert report["repair"]["emergency"] >= 1
        assert report["final_state"] == HEALTHY


def _member_overlay(size, k=3):
    overlay = LHGOverlay(k=k)
    for i in range(size):
        overlay.join(f"peer-{i}")
    return overlay


def _flood_fields(latency, messages, covered, reachable):
    return (float(latency or 0), messages, covered, reachable)


class TestRoundFloodParity:
    """Soak floods run on the round engine over a ``FaultView`` of the
    overlay; each must equal the event-simulated flood on the survivor
    copy it replaced, for every live source."""

    def _assert_parity(self, topology, down):
        view = FaultView(topology, down)
        survivors = topology.without_nodes(set(down))
        for source in survivors.nodes():
            fast = round_flood(view, source)
            summary = run_experiment(
                ExperimentSpec(
                    protocol="flood", graph=survivors, source=source, seed=3
                )
            )
            slow = summary.result
            assert _flood_fields(
                fast.completion_time, fast.messages, fast.covered, fast.reachable
            ) == _flood_fields(
                slow.completion_time, slow.messages, slow.covered, slow.reachable
            ), (source, sorted(down))

    @pytest.mark.parametrize("size", [12, 17, 24])
    @pytest.mark.parametrize("burst", [2, 3])  # k - 1 and k
    def test_pending_down_sets(self, size, burst):
        topology = _member_overlay(size).topology()
        rng = random.Random(size * 10 + burst)
        down = rng.sample(sorted(topology.nodes()), burst)
        self._assert_parity(topology, down)

    def test_partitioning_burst_isolates_a_source(self):
        topology = _member_overlay(20).topology()
        lonely = min(topology.nodes(), key=lambda v: (topology.degree(v), v))
        down = sorted(topology.neighbors(lonely))
        survivors = topology.without_nodes(set(down))
        components = connected_components(survivors)
        assert len(components) > 1 and {lonely} in components
        self._assert_parity(topology, down)


#: SHA-256 of ``SoakReport.to_json()``, taken when floods still ran on
#: the event simulator over a ``without_nodes`` copy and P2 was a
#: separate edge-flow sweep; the round engine and the lazy repair
#: connectivity must leave every report byte-identical.  The small edge
#: budget keeps crashes pending across ticks, so many floods route over
#: the ``FaultView`` of the overlay.
PINNED_REPORTS = [
    (
        dict(population=16, k=3, duration=40, churn_rate=0.4,
             flood_rate=6.0, repair_edge_budget=4, bursts=((12, 2),),
             seed=11),
        "0d2f8cdec042a1617c6a8fc6ffc6aafacbdb7ea8bfb0ccc3eed97eeb1d924075",
    ),
    (
        # a burst of 4 > k - 1, then a burst of k
        dict(population=16, k=3, duration=40, churn_rate=0.4,
             flood_rate=6.0, repair_edge_budget=4, bursts=((12, 4), (25, 3)),
             seed=12),
        "41d42daf0f4970f6c4d83d632148cf0b3bca8764da154a4bc65a1c2087c066b4",
    ),
]


class TestPinnedReports:
    @pytest.mark.parametrize("kwargs, digest", PINNED_REPORTS)
    def test_report_bytes_are_pinned(self, kwargs, digest):
        report = run_soak(SoakConfig(**kwargs))
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


class TestSoakCheckpoint:
    def test_journaled_run_matches_plain(self, tmp_path):
        config = SoakConfig(**CFG)
        plain = run_soak(config).to_json()
        journaled = run_soak(
            config, checkpoint=tmp_path / "soak.jsonl"
        ).to_json()
        assert journaled == plain

    def test_truncated_journal_resumes_byte_identical(self, tmp_path):
        config = SoakConfig(**{**CFG, "bursts": ((12, 3),)})
        plain = run_soak(config).to_json()
        journal = tmp_path / "soak.jsonl"
        run_soak(config, checkpoint=journal)
        # simulate a crash: drop everything after the meta + 14 ticks
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:15]))
        resumed = run_soak(config, checkpoint=journal, resume=True)
        assert resumed.to_json() == plain
        # the resumed run appended the missing ticks, not a second copy
        assert len(journal.read_text().splitlines()) == len(lines)

    def test_resume_refuses_config_mismatch(self, tmp_path):
        journal = tmp_path / "soak.jsonl"
        run_soak(SoakConfig(**CFG), checkpoint=journal)
        with pytest.raises(ReproError, match="different configuration"):
            run_soak(
                SoakConfig(**{**CFG, "seed": 99}),
                checkpoint=journal,
                resume=True,
            )

    def test_existing_journal_without_resume_refused(self, tmp_path):
        journal = tmp_path / "soak.jsonl"
        run_soak(SoakConfig(**CFG), checkpoint=journal)
        with pytest.raises(ValueError, match="already exists"):
            run_soak(SoakConfig(**CFG), checkpoint=journal)

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ValueError):
            run_soak(SoakConfig(**CFG), resume=True)

    def test_divergent_journal_fails_loudly(self, tmp_path):
        config = SoakConfig(**CFG)
        journal = tmp_path / "soak.jsonl"
        run_soak(config, checkpoint=journal)
        # corrupt one journaled tick's flood latency in place
        lines = journal.read_text().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            payload = record["payload"]
            if isinstance(payload, dict) and payload.get("floods"):
                for flood in payload["floods"]:
                    if not flood.get("shed"):
                        flood["latency"] = flood["latency"] + 17.0
            doctored.append(json.dumps(record, sort_keys=True))
        journal.write_text("\n".join(doctored) + "\n")
        with pytest.raises(ReproError, match="diverged"):
            SoakService(config, checkpoint=journal, resume=True).run()


def _cli(args, env, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestKillResumeSelfTest:
    """Crash-injection self-test: SIGKILL a soak mid-run and resume it."""

    def test_sigkilled_soak_resumes_byte_identical(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        args = [
            "soak", "14", "3",
            "--duration", "300",
            "--seed", "7",
            "--burst", "40:3",
            "--json",
        ]
        journal = tmp_path / "soak.jsonl"

        uninterrupted = _cli(args, env)
        assert uninterrupted.returncode == 0, uninterrupted.stderr

        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--checkpoint", str(journal)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        # hard-kill as soon as a batch of ticks is journaled (mid-run)
        deadline = time.time() + 60
        while time.time() < deadline and victim.poll() is None:
            if journal.exists() and journal.read_text().count("\n") >= 10:
                victim.send_signal(signal.SIGKILL)
                break
            time.sleep(0.005)
        victim.wait(timeout=60)

        completed = journal.read_text().count("\n") if journal.exists() else 0
        # the kill landed mid-run: meta + 300 ticks would be 301 lines
        assert completed < 301
        resumed = _cli(
            args + ["--checkpoint", str(journal), "--resume"], env
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == uninterrupted.stdout  # byte-identical
        # the journal was continued, not restarted: meta + one line per tick
        total = journal.read_text().count("\n")
        assert total == 301
        assert total >= completed


class TestAlertPolicy:
    def test_defaults_validate(self):
        policy = AlertPolicy()
        assert policy.budget == pytest.approx(0.05)
        assert policy.as_dict()["objective"] == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objective": 0.0},
            {"objective": 1.0},
            {"latency_slo": 0.0},
            {"fast_window": 0},
            {"slow_window": 2},  # must exceed fast_window
            {"fast_burn": 0.0},
            {"slow_burn": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ReproError):
            AlertPolicy(**kwargs)


def _record(tick, crashes=(), pending=0, verify=(), floods=(), **extra):
    """A synthetic soak tick record in the shape SoakService journals."""
    record = {
        "tick": tick,
        "joins": [],
        "crashes": list(crashes),
        "pending_repair": pending,
        "floods": list(floods),
        "verify": list(verify),
        "repair": None,
        "transitions": [],
        "state": HEALTHY,
        "population": 14,
        "live": 14,
        "in_flight": 0,
    }
    record.update(extra)
    return record


class TestBurnRateMonitor:
    def test_healthy_stream_never_alerts(self):
        monitor = BurnRateMonitor(k=3)
        for tick in range(40):
            assert monitor.observe(_record(tick)) is None
        assert not monitor.active
        assert monitor.payload()["count"] == 0

    def test_burst_beyond_tolerance_opens_on_the_burst_tick(self):
        monitor = BurnRateMonitor(k=3)
        transitions = {}
        for tick in range(40):
            crashes = ["a", "b", "c"] if tick == 10 else []
            out = monitor.observe(_record(tick, crashes=crashes))
            if out:
                transitions[out] = tick
        assert transitions["open"] == 10
        # a single bad tick holds slow burn >= 1 for slow_window ticks
        assert 10 < transitions["close"] <= 10 + AlertPolicy().slow_window + 1
        events = monitor.payload()["events"]
        assert len(events) == 1
        assert events[0]["causes"] == ["burst-beyond-tolerance"]

    def test_burst_within_tolerance_is_quiet(self):
        monitor = BurnRateMonitor(k=3)
        for tick in range(30):
            crashes = ["a", "b"] if tick == 10 else []  # k-1: tolerated
            assert monitor.observe(_record(tick, crashes=crashes)) is None

    def test_causes_accumulate_across_the_slow_window(self):
        # A burst at tick 5 opens (and closes) a first alert; a verify
        # failure at tick 10 opens a second one whose slow window still
        # contains the burst, so the new alert names both causes.
        monitor = BurnRateMonitor(k=3)
        for tick in range(12):
            kwargs = {}
            if tick == 5:
                kwargs["crashes"] = ["a", "b", "c"]
            if tick == 10:
                kwargs["verify"] = [{"ok": False}]
            monitor.observe(_record(tick, **kwargs))
        events = monitor.payload()["events"]
        assert len(events) == 2
        assert events[0]["causes"] == ["burst-beyond-tolerance"]
        assert events[1]["causes"] == [
            "burst-beyond-tolerance", "verify-failed",
        ]

    def test_slow_flood_is_a_cause(self):
        policy = AlertPolicy(latency_slo=4.0)
        monitor = BurnRateMonitor(k=3, policy=policy)
        assert monitor.tick_errors(
            _record(0, floods=[{"latency": 9.0, "messages": 10,
                                "covered": 5, "reachable": 5}])
        ) == ("slow-flood",)

    def test_snapshot_gauges_shape(self):
        monitor = BurnRateMonitor(k=3)
        monitor.observe(_record(0))
        gauges = monitor.snapshot_gauges()
        assert set(gauges) >= {
            "soak.burn.fast", "soak.burn.slow",
            "soak.alerts.active", "soak.alerts.total", "soak.latency.p99",
        }

    def test_still_open_alert_has_no_close(self):
        monitor = BurnRateMonitor(k=2)
        monitor.observe(_record(0, crashes=["a", "b"]))
        payload = monitor.payload()
        assert payload["open"] is not None
        assert payload["events"][0]["closed"] is None


class TestSoakAlerts:
    def test_burst_alert_brackets_degradation_window(self):
        config = SoakConfig(**{**CFG, "bursts": ((12, 3),)})
        report = run_soak(config)
        windows = report["degradation"]["windows"]
        alerts = report["alerts"]["events"]
        assert windows and alerts
        window = windows[0]
        covering = [
            a for a in alerts
            if a["opened"] <= window["start"]
            and a["closed"] is not None
            and a["closed"] >= window["end"]
        ]
        assert covering, (window, alerts)

    def test_healthy_soak_reports_no_alerts(self):
        report = run_soak(SoakConfig(**CFG))
        assert report["alerts"]["count"] == 0
        assert report["alerts"]["events"] == []

    def test_alerts_in_summary_and_deterministic(self):
        config = SoakConfig(**{**CFG, "bursts": ((12, 3),)})
        report = run_soak(config)
        assert "alert" in report.summary()
        assert run_soak(config).to_json() == report.to_json()

    def test_custom_policy_changes_sensitivity(self):
        config = SoakConfig(**{**CFG, "bursts": ((12, 3),)})
        lax = AlertPolicy(fast_burn=400.0, slow_burn=400.0)
        report = run_soak(config, alert_policy=lax)
        assert report["alerts"]["count"] == 0


class TestSoakMetricsStream:
    def test_streams_on_cadence_with_alert_gauges(self, tmp_path):
        from repro.obs import MetricsStream

        jsonl = tmp_path / "m.jsonl"
        om = tmp_path / "m.om"
        config = SoakConfig(**{**CFG, "bursts": ((12, 3),)})
        with MetricsStream(str(jsonl), openmetrics_path=str(om)) as stream:
            run_soak(config, metrics=stream, metrics_every=5)
            # every 5 ticks plus the final tick
            assert stream.exports == CFG["duration"] // 5
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [r["tick"] for r in rows][:3] == [4, 9, 14]
        assert rows[-1]["tick"] == CFG["duration"] - 1
        # alert gauges ride along; the burst tick window shows it active
        active = [r["metrics"]["gauges"]["soak.alerts.active"] for r in rows]
        assert 1.0 in active
        for row in rows:
            assert "soak.population" in row["metrics"]["gauges"]
        text = om.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_soak_alerts_total" in text

    def test_streaming_does_not_change_the_report(self, tmp_path):
        from repro.obs import MetricsStream

        config = SoakConfig(**{**CFG, "bursts": ((12, 3),)})
        plain = run_soak(config).to_json()
        with MetricsStream(str(tmp_path / "m.jsonl")) as stream:
            streamed = run_soak(config, metrics=stream, metrics_every=3)
        assert streamed.to_json() == plain

    def test_streaming_under_installed_collector_no_double_count(self, tmp_path):
        # the live tracker must not mirror into the collector: the
        # collector metrics would otherwise double every observation
        from repro import obs
        from repro.obs import MetricsStream

        config = SoakConfig(**CFG)
        obs.uninstall()
        collector = obs.install()
        plain = run_soak(config)
        plain_counters = dict(collector.metrics.snapshot()["counters"])
        obs.uninstall()

        collector = obs.install()
        with MetricsStream(str(tmp_path / "m.jsonl")) as stream:
            streamed = run_soak(config, metrics=stream, metrics_every=4)
        streamed_counters = dict(collector.metrics.snapshot()["counters"])
        obs.uninstall()
        assert streamed.to_json() == plain.to_json()
        assert streamed_counters == plain_counters

    def test_bad_cadence_rejected(self):
        with pytest.raises(ReproError):
            SoakService(SoakConfig(**CFG), metrics_every=0)
