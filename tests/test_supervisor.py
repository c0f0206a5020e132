"""Fault-tolerant execution: timeouts, retries, crash recovery.

The centrepiece is the crash-injection self-test required by F14: a
deterministic chaos hook (:class:`CrashInjector`) makes workers exit,
hang or raise on ~20% of attempts, and the supervised map must still
return results byte-identical to a fault-free serial run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    CrashInjector,
    FaultContext,
    InjectedFault,
    ItemFailure,
    SupervisorConfig,
    WorkerPool,
    derive_seed,
    fork_available,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork")


def _cell(item):
    """A deterministic 'experiment cell': pure function of the item."""
    index, seed = item
    value = derive_seed(seed, "cell", index) % 9973
    return {"index": index, "value": value * (index + 1)}


def _items(count: int, seed: int = 0):
    return [(i, seed) for i in range(count)]


def _poison(x):
    if x == 2:
        raise ValueError("poison item")
    return x * x


class TestSupervisedMapPlain:
    def test_serial_supervised_matches_plain_map(self):
        items = _items(8)
        expected = [_cell(item) for item in items]
        pool = WorkerPool(workers=1, supervisor=SupervisorConfig())
        results = pool.map(_cell, items)
        assert results == expected
        assert pool.last_report.mode == "serial"
        assert not pool.last_report.failures

    @needs_fork
    def test_forked_supervised_matches_serial(self):
        items = _items(12)
        expected = [_cell(item) for item in items]
        pool = WorkerPool(workers=3, supervisor=SupervisorConfig())
        results = pool.map(_cell, items)
        assert results == expected
        assert pool.last_report.mode == "fork-pool"
        assert pool.last_report.workers == 3
        assert not pool.last_report.failures

    def test_empty_items(self):
        pool = WorkerPool(workers=4, supervisor=SupervisorConfig())
        results = pool.map(_cell, [])
        assert results == []
        assert not pool.last_report.failures


class TestCrashInjectionSelfTest:
    """Workers randomly die mid-item; results must not notice."""

    @needs_fork
    def test_results_identical_to_fault_free_serial_run(self):
        items = _items(30)
        expected = [_cell(item) for item in items]

        injector = CrashInjector(rate=0.2, seed=0, hang_seconds=30.0)
        schedule = [injector.would_inject(i, 0) for i in range(len(items))]
        assert any(schedule), "injector must actually sabotage some items"

        pool = WorkerPool(
            workers=3,
            supervisor=SupervisorConfig(
                timeout=0.75,
                retries=12,
                backoff_base=0.01,
                fault_hook=injector,
            ),
        )
        results = pool.map(_cell, items)
        report = pool.last_report
        assert results == expected
        assert not report.failures
        # the faults really happened — recovery, not luck
        assert report.retries > 0
        assert report.retries >= sum(1 for action in schedule if action)

    @needs_fork
    def test_worker_deaths_are_detected_and_survived(self):
        items = _items(16)
        expected = [_cell(item) for item in items]
        injector = CrashInjector(rate=0.3, seed=1, actions=("exit",))
        pool = WorkerPool(
            workers=2,
            supervisor=SupervisorConfig(
                retries=12, backoff_base=0.01, fault_hook=injector
            ),
        )
        results = pool.map(_cell, items)
        assert results == expected
        assert pool.last_report.worker_deaths > 0
        assert not pool.last_report.failures

    @needs_fork
    def test_hangs_are_timed_out_and_retried(self):
        items = _items(10)
        expected = [_cell(item) for item in items]
        injector = CrashInjector(
            rate=0.3, seed=2, actions=("hang",), hang_seconds=30.0
        )
        pool = WorkerPool(
            workers=2,
            supervisor=SupervisorConfig(
                timeout=0.5, retries=12, backoff_base=0.01, fault_hook=injector
            ),
        )
        results = pool.map(_cell, items)
        assert results == expected
        assert pool.last_report.timeouts > 0
        assert not pool.last_report.failures

    @needs_fork
    def test_death_budget_degrades_to_serial_and_still_finishes(self):
        items = _items(12)
        expected = [_cell(item) for item in items]
        parent = os.getpid()

        def exit_on_first_worker_attempt(context):
            # every first attempt dies in a worker, so the death budget
            # is guaranteed to blow; the serial fallback is untouched
            if context.in_worker and os.getpid() != parent:
                if context.attempt == 0:
                    os._exit(11)

        pool = WorkerPool(
            workers=2,
            supervisor=SupervisorConfig(
                retries=3,
                backoff_base=0.01,
                max_worker_deaths=2,
                fault_hook=exit_on_first_worker_attempt,
            ),
        )
        results = pool.map(_cell, items)
        assert results == expected
        assert pool.last_report.mode == "degraded"
        assert not pool.last_report.failures

    def test_injector_is_deterministic_and_parent_safe(self):
        injector = CrashInjector(rate=0.5, seed=7)
        first = [injector.would_inject(i, 0) for i in range(50)]
        again = [injector.would_inject(i, 0) for i in range(50)]
        assert first == again
        # in the parent process destructive actions downgrade to raise
        sabotaged = next(i for i, a in enumerate(first) if a is not None)
        with pytest.raises(InjectedFault):
            injector(
                FaultContext(index=sabotaged, attempt=0, seed=0, in_worker=False)
            )

    def test_injector_validation(self):
        with pytest.raises(ValueError, match="rate"):
            CrashInjector(rate=1.5)
        with pytest.raises(ValueError, match="action"):
            CrashInjector(actions=("explode",))


class TestQuarantineAndRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_poison_item_is_quarantined(self, workers):
        if workers > 1 and not fork_available():
            pytest.skip("requires fork")
        pool = WorkerPool(
            workers=workers,
            supervisor=SupervisorConfig(retries=2, backoff_base=0.001),
        )
        results = pool.map(_poison, [1, 2, 3])
        assert results[0] == 1 and results[2] == 9
        failure = results[1]
        assert isinstance(failure, ItemFailure)
        assert failure.index == 1
        assert failure.attempts == 3  # 1 try + 2 retries
        assert "poison" in failure.message
        assert "poison" in failure.remote_traceback
        assert pool.last_report.failures == [failure]
        assert "poison" in failure.summary()

    def test_raise_mode_aborts_with_execution_error(self):
        config = SupervisorConfig(
            retries=1, backoff_base=0.001, failure_mode="raise"
        )
        with pytest.raises(ExecutionError, match="poison") as excinfo:
            WorkerPool(workers=1, supervisor=config).map(_poison, [1, 2, 3])
        assert isinstance(excinfo.value.failure, ItemFailure)

    def test_retries_zero_fails_fast(self):
        pool = WorkerPool(
            workers=1,
            supervisor=SupervisorConfig(retries=0, backoff_base=0.001),
        )
        results = pool.map(_poison, [2])
        assert isinstance(results[0], ItemFailure)
        assert results[0].attempts == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="failure_mode"):
            SupervisorConfig(failure_mode="explode")
        with pytest.raises(ValueError, match="retries"):
            SupervisorConfig(retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            SupervisorConfig(timeout=0.0)


class TestPoolIntegration:
    @needs_fork
    def test_report_carries_fault_counters(self):
        injector = CrashInjector(rate=0.3, seed=1, actions=("exit",))
        pool = WorkerPool(
            workers=2,
            supervisor=SupervisorConfig(
                retries=12, backoff_base=0.01, fault_hook=injector
            ),
        )
        items = _items(16)
        assert pool.map(_cell, items) == [_cell(item) for item in items]
        report = pool.last_report
        assert report.mode == "fork-pool"
        assert report.worker_deaths > 0
        assert not report.failures
        assert "worker death" in report.summary()

    def test_quarantine_shows_up_in_summary(self):
        pool = WorkerPool(
            workers=1,
            supervisor=SupervisorConfig(retries=0, backoff_base=0.001),
        )
        results = pool.map(_poison, [1, 2, 3])
        assert isinstance(results[1], ItemFailure)
        assert len(pool.last_report.failures) == 1
        assert "quarantined" in pool.last_report.summary()


class TestCampaignUnderInjection:
    @needs_fork
    def test_matrix_identical_to_serial_fault_free_run(self):
        from repro.robustness import ChaosCampaign
        from repro.exec import build_lhg_cached

        graph, _ = build_lhg_cached(20, 3)
        campaign = ChaosCampaign([(graph.name, graph)], seeds=[0])
        baseline = campaign.run().render()

        supervised = campaign.run(
            workers=3,
            supervisor=SupervisorConfig(
                timeout=5.0,
                retries=10,
                backoff_base=0.01,
                fault_hook=CrashInjector(rate=0.2, seed=5),
            ),
        )
        assert supervised.render() == baseline
        assert supervised.all_green
        assert not supervised.failures


_INTERRUPT_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys, time

    from repro.exec import SupervisorConfig, WorkerPool

    def slow(x):
        time.sleep(5.0)
        return x

    supervised = sys.argv[1] == "supervised"
    pool = WorkerPool(
        workers=2,
        supervisor=SupervisorConfig(backoff_base=0.001) if supervised else None,
    )
    # deliver a real KeyboardInterrupt mid-map, like a ^C on the terminal
    signal.signal(signal.SIGALRM, signal.default_int_handler)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        pool.map(slow, list(range(8)))
    except KeyboardInterrupt:
        pass
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    # every forked child must be dead *and reaped* — no zombies left
    deadline = time.time() + 5.0
    while time.time() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("CLEAN")
            sys.exit(0)
        time.sleep(0.05)
    print("ZOMBIES")
    sys.exit(1)
    """
)


class TestKeyboardInterruptCleanup:
    @needs_fork
    @pytest.mark.parametrize("mode", ["bare", "supervised"])
    def test_interrupted_map_leaves_no_zombies(self, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", _INTERRUPT_SCRIPT, mode],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout
