"""Tests for the command-line interface."""

import hashlib
import json
import os

import pytest

from repro.cli import main


class TestBuild:
    def test_build_summary(self, capsys):
        assert main(["build", "10", "3"]) == 0
        out = capsys.readouterr().out
        assert "nodes=10" in out
        assert "jenkins-demers" in out

    def test_build_json(self, capsys):
        assert main(["build", "8", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["nodes"]) == 8

    def test_build_named_rule(self, capsys):
        assert main(["build", "9", "3", "--rule", "k-tree"]) == 0
        assert "k-tree" in capsys.readouterr().out

    def test_infeasible_pair_errors(self, capsys):
        assert main(["build", "5", "3"]) == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check", "14", "3"]) == 0
        assert "P1-kappa=ok" in capsys.readouterr().out


class TestFlood:
    def test_flood_reports_coverage(self, capsys):
        assert main(["flood", "12", "3"]) == 0
        out = capsys.readouterr().out
        assert "covered 12/12" in out

    def test_flood_with_crashes(self, capsys):
        assert main(["flood", "14", "3", "--crashes", "2", "--seed", "4"]) == 0
        assert "100.00%" in capsys.readouterr().out


class TestChaos:
    def test_chaos_baseline_all_green(self, capsys):
        assert main(["chaos", "16", "2", "--scenarios", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "invariants all green" in out
        assert "reliable-flood" in out and "arq-reliable-flood" in out

    def test_chaos_recoverable_scenarios_green(self, capsys):
        code = main(
            ["chaos", "16", "2", "--scenarios", "crash-recover", "--seed", "1"]
        )
        assert code == 0
        assert "100.00%" in capsys.readouterr().out  # the ARQ rows

    def test_chaos_unknown_scenario_errors(self, capsys):
        assert main(["chaos", "16", "2", "--scenarios", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSoak:
    """Exit-code contract: 0 SLOs met, 1 SLO violated, 2 usage error."""

    ARGS = ["soak", "14", "3", "--duration", "25", "--seed", "7"]

    def test_clean_soak_exits_zero(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "final state healthy" in out
        assert "latency" in out and "degraded" in out

    def test_forced_burst_recovers_and_exits_zero(self, capsys):
        assert main(self.ARGS + ["--burst", "10:3"]) == 0
        out = capsys.readouterr().out
        assert "1 window(s)" in out  # degradation happened and closed

    def test_json_report_is_machine_readable(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "soak"
        assert payload["final_state"] == "healthy"
        assert payload["latency"]["p99"] >= payload["latency"]["p50"] > 0

    def test_slo_violation_exits_one(self, capsys):
        assert main(self.ARGS + ["--slo-p99", "0.5"]) == 1
        assert "SLO violation" in capsys.readouterr().err

    def test_bad_burst_spec_exits_two(self, capsys):
        assert main(self.ARGS + ["--burst", "oops"]) == 2
        assert "TICK:SIZE" in capsys.readouterr().err

    def test_infeasible_population_exits_two(self, capsys):
        assert main(["soak", "5", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_two(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "soak.jsonl"
        assert main(self.ARGS + ["--json", "--checkpoint", str(journal)]) == 0
        first = capsys.readouterr().out
        assert (
            main(
                self.ARGS
                + ["--json", "--checkpoint", str(journal), "--resume"]
            )
            == 0
        )
        assert capsys.readouterr().out == first


class TestScale:
    """``repro scale`` at 20k with every stage on, pinned by digest.

    Peak RSS is the only field that depends on the host; everything else
    (certificates, CSR size, the flood, all 13 attack rows) is pinned.
    """

    ARGV = ["scale", "20000", "3", "--csr", "--flood", "--attack"]

    def test_json_report_is_pinned(self, capsys):
        assert main(self.ARGV + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("peak_rss_bytes") > 0
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == (
            "45b64f9b2181d40d135cd0589783425b8bc18a4f2ee7105364c75c0ef89af770"
        )

    def test_text_report_is_pinned(self, capsys):
        assert main(self.ARGV) == 0
        lines = capsys.readouterr().out.splitlines(True)
        assert sum("peak RSS" in line for line in lines) == 1
        text = "".join(line for line in lines if "peak RSS" not in line)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == (
            "9ab27b63c7bbb309bd4a39cc932c66211ad330f1a7f3c7766072f298447bd5ad"
        )


class TestTables:
    def test_coverage_table(self, capsys):
        assert main(["coverage", "3", "--max-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "jenkins-demers" in out
        assert out.count("\n") >= 6

    def test_diameter_table(self, capsys):
        assert main(["diameter", "3", "--max-n", "48"]) == 0
        out = capsys.readouterr().out
        assert "harary-diameter" in out


class TestPaths:
    def test_paths_shows_k_disjoint_routes(self, capsys):
        assert main(["paths", "14", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 node-disjoint paths" in out
        assert "certificate route" in out


class TestSpectral:
    def test_spectral_reports_ratio(self, capsys):
        pytest.importorskip("numpy")
        assert main(["spectral", "30", "4"]) == 0
        out = capsys.readouterr().out
        assert "algebraic connectivity" in out
        assert "ratio" in out


class TestPlan:
    def test_plan_summary(self, capsys):
        assert main(["plan", "60", "3"]) == 0
        out = capsys.readouterr().out
        assert "k=4" in out
        assert "messages/broadcast" in out

    def test_plan_gap_mentions_extension(self, capsys):
        assert main(["plan", "9", "2"]) == 0
        assert "extension rule" in capsys.readouterr().out

    def test_plan_infeasible(self, capsys):
        assert main(["plan", "4", "5"]) == 2
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTelemetry:
    def test_chaos_with_telemetry_writes_valid_jsonl(self, tmp_path, capsys):
        from repro import obs

        path = str(tmp_path / "run.jsonl")
        assert (
            main(
                [
                    "chaos",
                    "16",
                    "2",
                    "--scenarios",
                    "baseline",
                    "--telemetry",
                    path,
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "event(s) written" in captured.err
        events = obs.read_jsonl(path)
        assert obs.validate_events(events) == []
        names = {e["name"] for e in events if e["kind"] == "span-open"}
        assert "cli:chaos" in names and "campaign" in names
        # the final metrics snapshot makes the log self-contained
        assert events[-1]["kind"] == "metrics"
        assert events[-1]["name"] == "metrics-snapshot"

    def test_telemetry_output_identical_to_plain_run(self, tmp_path, capsys):
        from repro.exec.cache import GRAPH_CACHE

        def science(text):
            # drop the wall-clock footer ("14 cells in 0.05s ...")
            return [l for l in text.splitlines() if " cells in " not in l]

        argv = ["chaos", "16", "2", "--scenarios", "baseline", "crash-recover"]
        GRAPH_CACHE.clear()
        assert main(argv) == 0
        plain = capsys.readouterr().out
        path = str(tmp_path / "run.jsonl")
        GRAPH_CACHE.clear()
        assert main(argv + ["--telemetry", path]) == 0
        traced = capsys.readouterr().out
        assert science(traced) == science(plain)

    def test_log_json_streams_to_stderr(self, capsys):
        assert main(["build", "10", "3", "--log-json"]) == 0
        err_lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        assert err_lines
        event = json.loads(err_lines[0])
        assert event["name"] == "cli:build"
        assert event["kind"] == "span-open"

    def test_flood_telemetry_counts_network_events(self, tmp_path, capsys):
        from repro import obs

        path = str(tmp_path / "run.jsonl")
        assert main(["flood", "12", "3", "--telemetry", path]) == 0
        events = obs.read_jsonl(path)
        snapshot = events[-1]["attrs"]
        assert snapshot["counters"]["net.send"] > 0
        assert snapshot["counters"]["net.deliver"] > 0

    def test_trace_summary_renders_span_tree(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        main(["diameter", "2", "--max-n", "16", "--telemetry", path])
        capsys.readouterr()
        assert main(["trace", "summary", path]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "cli:diameter" in out
        assert "sweep" in out

    def test_trace_chrome_emits_loadable_json(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        main(["build", "10", "3", "--telemetry", path])
        capsys.readouterr()
        output = str(tmp_path / "out.trace.json")
        assert main(["trace", "chrome", path, "-o", output]) == 0
        with open(output) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_missing_file_is_a_clean_error(self, capsys):
        assert main(["trace", "summary", "/nonexistent/run.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_telemetry_buffer_stays_bounded(self, tmp_path, monkeypatch):
        # --telemetry streams through the sink: the in-memory ring must
        # stay under the cap even when the run records far more events
        from repro import cli, obs

        created = []
        real_collector = obs.Collector

        def capturing(*args, **kwargs):
            collector = real_collector(*args, **kwargs)
            created.append(collector)
            return collector

        monkeypatch.setattr(cli, "_TELEMETRY_BUFFER_CAP", 32)
        monkeypatch.setattr(obs, "Collector", capturing)
        path = str(tmp_path / "run.jsonl")
        assert main(["soak", "14", "3", "--duration", "30",
                     "--telemetry", path]) == 0
        (collector,) = created
        assert collector.events_recorded > 32
        assert len(collector.events) <= 32
        events = obs.read_jsonl(path)
        assert len(events) == collector.events_recorded
        assert obs.validate_events(events) == []


class TestLint:
    """Exit-code contract: 0 clean, 1 findings, 2 usage/internal error."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "repro")
    FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", os.path.join(self.FIXTURES, "good")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", os.path.join(self.FIXTURES, "bad")]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "FORK002" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/nonexistent/code"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", self.SRC, "--select", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_write_baseline_without_path_exits_two(self, capsys):
        assert main(["lint", self.SRC, "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_json_format_is_machine_readable(self, capsys):
        bad = os.path.join(self.FIXTURES, "bad", "api001_bad.py")
        assert main(["lint", bad, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["API001"] == 3

    def test_src_repro_ships_clean_with_committed_baseline(self, capsys):
        baseline = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "lint-baseline.json"
        )
        assert main(["lint", self.SRC, "--baseline", baseline]) == 0

    def test_baseline_round_trip_via_cli(self, tmp_path, capsys):
        bad = os.path.join(self.FIXTURES, "bad")
        baseline = str(tmp_path / "bl.json")
        assert main(["lint", bad, "--baseline", baseline, "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", bad, "--baseline", baseline]) == 0
        assert "baselined" in capsys.readouterr().out
