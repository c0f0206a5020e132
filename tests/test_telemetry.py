"""Telemetry is provably passive and deterministically ordered.

The contract this suite pins down (ISSUE acceptance criteria):

* a run with a collector installed produces **byte-identical results**
  to the same run without one, at any worker count;
* the deterministic part of the JSONL event stream (everything except
  ``src == "exec"`` scheduling noise and per-event times/pids/seqs) is
  **identical across --workers 1/2/4**;
* executor lifecycle events agree exactly with the execution report's
  counters (every retry / worker death / timeout / quarantine is
  recorded);
* checkpoint journal writes and resume loads appear in the log;
* the sampling profiler is equally passive: arming it changes neither
  the rendered results nor the recorded event stream.
"""

import pytest

from repro import obs
from repro.exec.cache import TopologySpec
from repro.exec.pool import WorkerPool, fork_available
from repro.exec.supervisor import CrashInjector, SupervisorConfig
from repro.robustness import ChaosCampaign
from repro.robustness.scenarios import standard_scenarios

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)


@pytest.fixture(autouse=True)
def no_leaked_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def small_campaign():
    """A bench_f12-style chaos grid, shrunk to test size."""
    scenarios = [
        s
        for s in standard_scenarios(loss_rates=(0.2,))
        if s.name in ("baseline", "crash-recover", "loss-0.2")
    ]
    return ChaosCampaign(
        [("lhg", TopologySpec(24, 3))], scenarios=scenarios, seeds=[0, 1]
    )


def normalize(events):
    """The deterministic view of an event stream.

    Drops executor lifecycle noise (``src == "exec"``: worker spawns,
    deaths, retries — legitimately scheduling-dependent), wall-clock
    times, pids and seq numbers, and the ``mode``/``workers`` attrs of
    the map span (which genuinely differ across worker counts).
    """
    view = []
    for event in events:
        if event.get("src") == "exec":
            continue
        entry = {
            k: v for k, v in event.items() if k not in ("t", "pid", "seq")
        }
        if entry.get("name") == "map":
            entry["attrs"] = {
                k: v
                for k, v in entry["attrs"].items()
                if k not in ("mode", "workers")
            }
        view.append(entry)
    return view


class TestPassivity:
    def test_matrix_byte_identical_with_and_without_collector(self):
        baseline = small_campaign().run().render()
        obs.install()
        traced = small_campaign().run().render()
        obs.uninstall()
        assert traced == baseline

    def test_matrix_byte_identical_under_workers_and_telemetry(self):
        baseline = small_campaign().run().render()
        obs.install()
        traced = small_campaign().run(workers=2).render()
        obs.uninstall()
        assert traced == baseline

    def test_supervised_results_unchanged_by_collector(self):
        def runs(telemetry):
            if telemetry:
                obs.install()
            pool = WorkerPool(
                workers=2,
                supervisor=SupervisorConfig(
                    retries=3,
                    seed=7,
                    timeout=0.75,
                    fault_hook=CrashInjector(rate=0.3, seed=11),
                ),
            )
            values = pool.map(lambda x: x * x, list(range(12)))
            if telemetry:
                obs.uninstall()
            return values

        assert runs(False) == runs(True) == [x * x for x in range(12)]


class TestProfilerPassivity:
    """Arming the sampling profiler never perturbs results or events."""

    def test_matrix_byte_identical_under_profiler(self):
        from repro.obs.prof import SamplingProfiler

        baseline = small_campaign().run().render()
        with SamplingProfiler(hz=100):
            profiled = small_campaign().run().render()
        assert profiled == baseline

    def test_event_stream_unchanged_by_profiler(self):
        from repro.obs.prof import SamplingProfiler

        def stream(profiled):
            collector = obs.install()
            if profiled:
                with SamplingProfiler(hz=100):
                    matrix = small_campaign().run()
            else:
                matrix = small_campaign().run()
            obs.uninstall()
            assert matrix.all_green
            assert obs.validate_events(collector.events) == []
            return normalize(collector.events), collector.metrics.snapshot()

        assert stream(False) == stream(True)


class TestDeterministicOrdering:
    def test_event_stream_stable_across_worker_counts(self):
        streams = {}
        metrics = {}
        for workers in (1, 2, 4):
            collector = obs.install()
            matrix = small_campaign().run(
                workers=workers, retries=1, timeout=60.0
            )
            obs.uninstall()
            assert matrix.all_green
            assert obs.validate_events(collector.events) == []
            streams[workers] = normalize(collector.events)
            metrics[workers] = collector.metrics.snapshot()
        assert streams[1] == streams[2] == streams[4]
        assert metrics[1] == metrics[2] == metrics[4]

    def test_span_taxonomy_covers_all_levels(self):
        collector = obs.install()
        small_campaign().run(workers=2)
        obs.uninstall()
        opened = {
            e["name"]
            for e in collector.events
            if e["kind"] == "span-open"
        }
        assert {
            "campaign",
            "graph-build",
            "map",
            "cell",
            "scenario-build",
            "protocol-run",
            "invariant-check",
        } <= opened

    def test_crash_injection_under_telemetry_stays_deterministic(self):
        def stream(workers):
            collector = obs.install()
            pool = WorkerPool(
                workers=workers,
                supervisor=SupervisorConfig(
                    retries=4,
                    seed=3,
                    timeout=0.75,
                    fault_hook=CrashInjector(rate=0.35, seed=5),
                ),
            )
            def cell(x):
                with obs.span("protocol-run", item=x):
                    obs.counter("net.send", x)
                return x + 100
            values = pool.map(cell, list(range(10)))
            obs.uninstall()
            assert values == [x + 100 for x in range(10)]
            return normalize(collector.events), collector.metrics.snapshot()

        serial = stream(1)
        assert stream(2) == serial
        assert stream(4) == serial


class TestLifecycleEvents:
    def test_exec_events_match_report_counters(self):
        collector = obs.install()
        pool = WorkerPool(
            workers=2,
            supervisor=SupervisorConfig(
                retries=3,
                seed=7,
                timeout=0.75,
                fault_hook=CrashInjector(rate=0.3, seed=11),
            ),
        )
        pool.map(lambda x: x, list(range(12)))
        obs.uninstall()
        report = pool.last_report
        names = [
            e["name"] for e in collector.events if e["kind"] == "event"
        ]
        assert names.count("retry") == report.retries
        assert (
            names.count("worker-death") + names.count("timeout-kill")
            == report.worker_deaths
        )
        assert names.count("timeout-kill") == report.timeouts
        assert names.count("quarantine") == len(report.failures)

    def test_quarantine_recorded(self):
        collector = obs.install()
        pool = WorkerPool(
            workers=1,
            supervisor=SupervisorConfig(retries=1, timeout=None),
        )

        def poison(x):
            if x == 2:
                raise RuntimeError("always fails")
            return x

        pool.map(poison, list(range(4)))
        obs.uninstall()
        names = [
            e["name"] for e in collector.events if e["kind"] == "event"
        ]
        assert names.count("retry") == 1
        assert names.count("quarantine") == 1
        assert len(pool.last_report.failures) == 1

    def test_checkpoint_write_and_resume_load_events(self, tmp_path):
        journal = str(tmp_path / "cells.jsonl")
        collector = obs.install()
        first = small_campaign().run(checkpoint=journal)
        obs.uninstall()
        writes = [
            e for e in collector.events if e["name"] == "checkpoint-write"
        ]
        assert len(writes) == len(first.cells)
        assert all(e["src"] == "exec" for e in writes)

        collector = obs.install()
        resumed = small_campaign().run(checkpoint=journal, resume=True)
        obs.uninstall()
        loads = [
            e for e in collector.events if e["name"] == "checkpoint-load"
        ]
        assert len(loads) == 1
        assert loads[0]["attrs"]["entries"] == len(first.cells)
        assert resumed.render() == first.render()


class TestReportSpanTree:
    def test_span_tree_attached_when_collector_active(self):
        obs.install()
        campaign = small_campaign()
        campaign.run(workers=2)
        obs.uninstall()
        tree = campaign.last_report.span_tree
        assert tree is not None
        assert tree[0]["name"] == "map"
        cell_names = {child["name"] for child in tree[0]["children"]}
        assert "cell" in cell_names

    def test_span_tree_absent_without_collector(self):
        campaign = small_campaign()
        campaign.run()
        assert campaign.last_report.span_tree is None


class TestParallelEfficiencyRegression:
    def test_zero_wall_uses_measured_floor(self):
        # sub-millisecond maps on coarse clocks can report wall == 0;
        # the efficiency must fall back to the slowest-cell floor
        from repro.exec.profiling import CellTiming, ExecutionReport

        report = ExecutionReport(
            mode="serial",
            workers=1,
            wall_seconds=0.0,
            timings=[CellTiming("a", 0.0004), CellTiming("b", 0.0006)],
        )
        assert report.parallel_efficiency() == pytest.approx(
            (0.0004 + 0.0006) / 0.0006
        )

    def test_no_timings_still_zero(self):
        from repro.exec.profiling import ExecutionReport

        assert ExecutionReport(wall_seconds=0.0).parallel_efficiency() == 0.0
