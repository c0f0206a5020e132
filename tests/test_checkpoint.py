"""Checkpoint/resume: journal semantics and end-to-end kill-resume.

The acceptance bar: a checkpointed run that is killed partway through
and re-run with ``resume`` must produce results byte-identical to an
uninterrupted run — at the journal level, at every library layer
(campaign, sweep, experiment batch) and through the CLI.
"""

# repro: lint-ignore-file[DET002] kill-resume drivers need a real wall-clock watchdog around the subprocess victim

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exec import (
    CheckpointJournal,
    checkpoint_key,
    open_journal,
    pack_pickle,
    unpack_pickle,
)


class TestCheckpointKey:
    def test_stable_and_hex(self):
        key = checkpoint_key("cell", 14, 3, "auto")
        assert key == checkpoint_key("cell", 14, 3, "auto")
        assert len(key) == 64 and int(key, 16) >= 0

    def test_sensitive_to_every_part_and_type(self):
        base = checkpoint_key("cell", 14, 3)
        assert checkpoint_key("cell", 14, 4) != base
        assert checkpoint_key("cell", 14, "3") != base
        assert checkpoint_key("cell", 143) != base  # no concat collisions


class TestPackPickle:
    def test_round_trip_through_json(self):
        value = {"nested": [1, 2.5, "x"], "tuple-free": True}
        payload = json.loads(json.dumps(pack_pickle(value)))
        assert unpack_pickle(payload) == value


class TestCheckpointJournal:
    def test_record_then_load_round_trips(self, tmp_path):
        path = tmp_path / "deep" / "run.jsonl"  # parents auto-created
        with CheckpointJournal(path) as journal:
            journal.record("k1", {"x": 1}, label="cell-1")
            journal.record("k2", {"x": 2}, label="cell-2")

        fresh = CheckpointJournal(path)
        assert fresh.load() == 2
        assert "k1" in fresh and fresh.get("k2") == {"x": 2}
        assert len(fresh) == 2
        assert sorted(fresh.labels()) == ["cell-1", "cell-2"]

    def test_later_duplicate_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record("k", {"x": "old"})
            journal.record("k", {"x": "new"})
        fresh = CheckpointJournal(path)
        assert fresh.load() == 1
        assert fresh.get("k") == {"x": "new"}

    def test_truncated_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record("k1", {"x": 1})
            journal.record("k2", {"x": 2})
        # simulate a crash mid-append: chop the tail of the last line
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        fresh = CheckpointJournal(path)
        assert fresh.load() == 1
        assert "k1" in fresh and "k2" not in fresh

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            'not json at all\n{"no-key": true}\n'
            '{"key": "good", "payload": 7}\n\n'
        )
        journal = CheckpointJournal(path)
        assert journal.load() == 1
        assert journal.get("good") == 7

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.jsonl").load() == 0


class TestOpenJournal:
    def test_none_passthrough(self):
        assert open_journal(None, resume=False) is None

    def test_resume_without_path_is_an_error(self):
        with pytest.raises(ValueError, match="resume"):
            open_journal(None, resume=True)

    def test_refuses_to_overwrite_existing_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record("k", 1)
        with pytest.raises(ValueError, match="resume=True"):
            open_journal(path, resume=False)
        resumed = open_journal(path, resume=True)
        assert "k" in resumed
        resumed.close()


class TestSweepResume:
    @staticmethod
    def _measure_calls(calls):
        def measure(n):
            calls.append(n)
            return {"square": n * n}

        return measure

    def test_checkpointed_sweep_equals_plain_sweep(self, tmp_path):
        from repro.analysis.sweep import run_sweep

        grid = {"n": [1, 2, 3, 4]}
        plain = run_sweep(grid, lambda n: {"square": n * n})
        journaled = run_sweep(
            grid,
            lambda n: {"square": n * n},
            checkpoint=tmp_path / "sweep.jsonl",
        )
        assert journaled.points == plain.points

    def test_resume_skips_journaled_points(self, tmp_path):
        from repro.analysis.sweep import run_sweep

        path = tmp_path / "sweep.jsonl"
        grid = {"n": [1, 2, 3, 4]}
        first_calls = []
        run_sweep(grid, self._measure_calls(first_calls), checkpoint=path)
        assert first_calls == [1, 2, 3, 4]

        # drop the last journal line: a run that died at point 4
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))

        second_calls = []
        resumed = run_sweep(
            grid, self._measure_calls(second_calls), checkpoint=path, resume=True
        )
        assert second_calls == [4]  # only the missing point recomputed
        assert resumed.column("square") == [1, 4, 9, 16]

    def test_full_resume_recomputes_nothing(self, tmp_path):
        from repro.analysis.sweep import run_sweep

        path = tmp_path / "sweep.jsonl"
        grid = {"n": [2, 3]}
        run_sweep(grid, lambda n: {"square": n * n}, checkpoint=path)
        calls = []
        resumed = run_sweep(
            grid, self._measure_calls(calls), checkpoint=path, resume=True
        )
        assert calls == []
        assert resumed.column("square") == [4, 9]


class TestExperimentResume:
    def _specs(self):
        from repro.core.existence import build_lhg
        from repro.flooding.experiments import ExperimentSpec

        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]
        return [
            ExperimentSpec(protocol="flood", graph=graph, source=source, seed=s)
            for s in range(3)
        ]

    def test_batch_resume_is_identical(self, tmp_path):
        from repro.flooding.experiments import run_experiments

        path = tmp_path / "batch.jsonl"
        specs = self._specs()
        plain = run_experiments(specs)
        run_experiments(specs, checkpoint=path)

        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1]))  # died after the first run
        resumed = run_experiments(specs, checkpoint=path, resume=True)
        assert resumed == list(plain)

    def test_repeat_runs_checkpoint_matches_plain(self, tmp_path):
        from repro.core.existence import build_lhg
        from repro.flooding.experiments import repeat_runs, run_flood
        from repro.flooding.failures import random_crashes

        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]

        def schedule_factory(seed):
            return random_crashes(graph, 2, seed=seed, protect={source})

        plain = repeat_runs(run_flood, graph, source, schedule_factory, 4)
        journaled = repeat_runs(
            run_flood,
            graph,
            source,
            schedule_factory,
            4,
            checkpoint=tmp_path / "reps.jsonl",
        )
        assert [r.delivery_ratio for r in journaled.results] == [
            r.delivery_ratio for r in plain.results
        ]
        assert [r.messages for r in journaled.results] == [
            r.messages for r in plain.results
        ]

    def test_supervision_needs_a_registered_runner(self):
        from repro.core.existence import build_lhg
        from repro.flooding.experiments import repeat_runs

        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]

        def unregistered_runner(graph, source, failures=None):
            raise AssertionError("never reached")

        with pytest.raises(ValueError, match="registered runner"):
            repeat_runs(
                unregistered_runner, graph, source, None, 2, retries=1
            )

    def test_unregistered_runner_raises_without_supervision(self):
        from repro.core.existence import build_lhg
        from repro.flooding.experiments import repeat_runs

        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]

        def unregistered_runner(graph, source, failures=None):
            raise AssertionError("never reached")

        with pytest.raises(ValueError, match="registered runner"):
            repeat_runs(unregistered_runner, graph, source, None, 2, workers=2)

    @pytest.mark.parametrize("change", ["schedule", "params"])
    def test_resume_misses_a_journal_of_another_spec(self, tmp_path, change):
        from dataclasses import replace

        from repro.core.existence import build_lhg
        from repro.flooding.experiments import ExperimentSpec, run_experiments
        from repro.flooding.failures import random_crashes

        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]
        if change == "schedule":
            journaled = ExperimentSpec(protocol="flood", graph=graph, source=source)
            asked = replace(
                journaled,
                failures=random_crashes(graph, 2, seed=0, protect={source}),
            )
        else:
            journaled = ExperimentSpec(
                protocol="gossip",
                graph=graph,
                source=source,
                params={"fanout": 1, "rounds": 4},
            )
            asked = journaled.with_params(fanout=3)
        path = tmp_path / "batch.jsonl"
        first = run_experiments([journaled], checkpoint=path)
        fresh = run_experiments([asked])
        assert fresh != first  # the two specs really disagree

        resumed = run_experiments([asked], checkpoint=path, resume=True)
        assert resumed == fresh
        assert len(path.read_text().splitlines()) == 2  # re-ran, journaled


def _sweep_grid(path, resume):
    from repro.analysis.sweep import run_sweep

    result = run_sweep(
        {"n": [1, 2, 3, 4]},
        lambda n: {"square": n * n},
        checkpoint=path,
        resume=resume,
    )
    return result.points


def _experiment_grid(path, resume):
    from repro.core.existence import build_lhg
    from repro.flooding.experiments import ExperimentSpec, run_experiments
    from repro.flooding.failures import random_crashes

    graph, _ = build_lhg(14, 3)
    source = graph.nodes()[0]
    specs = [
        ExperimentSpec(
            protocol="flood",
            graph=graph,
            source=source,
            failures=random_crashes(graph, crashes, seed=0, protect={source}),
        )
        for crashes in range(4)
    ]
    return run_experiments(specs, checkpoint=path, resume=resume)


def _campaign_grid(path, resume):
    from repro.exec import build_lhg_cached
    from repro.robustness import ChaosCampaign, standard_scenarios

    graph, _ = build_lhg_cached(20, 3)
    campaign = ChaosCampaign(
        [(graph.name, graph)], scenarios=standard_scenarios()[:3], seeds=[0]
    )
    return campaign.run(checkpoint=path, resume=resume).render()


class TestJournalPrefixResume:
    """Every grid front end resumes from any prefix of its journal."""

    @pytest.mark.parametrize(
        "grid",
        [_sweep_grid, _experiment_grid, _campaign_grid],
        ids=["sweep", "experiments", "campaign"],
    )
    def test_every_prefix_resumes_identically(self, tmp_path, grid):
        expected = grid(tmp_path / "full.jsonl", False)
        lines = (tmp_path / "full.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        for prefix in range(len(lines) + 1):
            path = tmp_path / f"prefix{prefix}.jsonl"
            path.write_text("".join(lines[:prefix]))
            assert grid(path, True) == expected
            # each item that re-runs appends one line, so a journal of
            # exactly N lines means exactly N - prefix items re-ran
            assert len(path.read_text().splitlines()) == len(lines)


class TestCampaignResume:
    def test_interrupted_campaign_resumes_byte_identical(self, tmp_path):
        from repro.exec import build_lhg_cached
        from repro.robustness import ChaosCampaign

        graph, _ = build_lhg_cached(20, 3)
        campaign = ChaosCampaign([(graph.name, graph)], seeds=[0])
        baseline = campaign.run().render()

        path = tmp_path / "campaign.jsonl"
        campaign.run(checkpoint=path).render()
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == len(campaign.scenarios) * len(campaign.protocols)
        path.write_text("".join(lines[: len(lines) // 2]))

        resumed = campaign.run(checkpoint=path, resume=True)
        assert resumed.render() == baseline
        assert resumed.all_green

    def test_journal_is_human_readable_json(self, tmp_path):
        from repro.exec import build_lhg_cached
        from repro.robustness import ChaosCampaign

        graph, _ = build_lhg_cached(20, 3)
        path = tmp_path / "campaign.jsonl"
        ChaosCampaign([(graph.name, graph)], seeds=[0]).run(checkpoint=path)
        record = json.loads(path.read_text().splitlines()[0])
        # campaign cells journal as plain JSON, not base64 pickle blobs
        assert "__pickle__" not in record["payload"]
        assert record["payload"]["topology"] == graph.name
        assert record["label"]


def _cli(args, env, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def _matrix_portion(stdout: str) -> str:
    """The deterministic part of chaos output (drop the timing line)."""
    lines = stdout.splitlines()
    keep = [
        line
        for line in lines
        if "cells in" not in line  # wall-time line varies run to run
    ]
    return "\n".join(keep)


class TestKillResumeEndToEnd:
    """Kill a checkpointed CLI run with SIGKILL; resume must match serial."""

    def test_killed_then_resumed_run_matches_uninterrupted(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        args = ["chaos", "64", "4", "--repeats", "2"]
        journal = tmp_path / "ck.jsonl"

        uninterrupted = _cli(args, env)
        assert uninterrupted.returncode == 0, uninterrupted.stderr

        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--checkpoint", str(journal)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        # hard-kill as soon as a few cells are journaled (mid-run)
        deadline = time.time() + 60
        while time.time() < deadline and victim.poll() is None:
            if journal.exists() and journal.read_text().count("\n") >= 4:
                victim.send_signal(signal.SIGKILL)
                break
            time.sleep(0.005)
        victim.wait(timeout=60)

        completed = journal.read_text().count("\n") if journal.exists() else 0
        resumed = _cli(
            args + ["--checkpoint", str(journal), "--resume"], env
        )
        assert resumed.returncode == 0, resumed.stderr
        assert _matrix_portion(resumed.stdout) == _matrix_portion(
            uninterrupted.stdout
        )
        # the resumed run really continued the journal rather than
        # starting over: every cell appears exactly once overall
        total = journal.read_text().count("\n")
        assert total == 28  # 14 scenario x protocol cells x 2 seeds
        assert total >= completed
