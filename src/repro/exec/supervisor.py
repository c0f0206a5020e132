"""Supervised execution: the fork executor behind every map.

Every :meth:`~repro.exec.pool.WorkerPool.map` runs through
:class:`SupervisedExecutor`, the one module in the repository that
forks.  A plain map (``supervisor=None``) gets a config with no retries
that raises on the first failure; a :class:`SupervisorConfig` adds the
supervision the ROADMAP's "survive the fault model we simulate" goal
demands:

* **per-item wall-clock timeouts** — a cell that exceeds its budget gets
  its worker SIGKILLed and the item reassigned to a fresh worker;
* **worker-death detection** — the parent selects on each worker's
  result pipe, so an ``os._exit``/OOM-kill surfaces as EOF (and a
  ``waitpid`` reap) instead of a hang, even for a plain map;
* **bounded retries with exponential backoff** — every failed attempt is
  retried up to ``retries`` times; the backoff delay is jittered
  deterministically via :func:`~repro.exec.seeding.derive_seed`, and the
  per-attempt seed handed to fault hooks is derived the same way, so a
  supervised run is reproducible end to end;
* **poison-item quarantine** — an item that exhausts its retries is
  recorded as a structured :class:`ItemFailure` in that result slot (and
  in the execution report) instead of aborting the map
  (``failure_mode="quarantine"``), or raises an
  :class:`~repro.errors.ExecutionError` from the item's own exception,
  rebuilt with its worker-side traceback (``failure_mode="raise"``);
* **graceful degradation** — where ``fork`` is unavailable, inside a
  worker, or once workers keep dying past the death budget, the
  remaining items run serially in the parent with the same
  retry/quarantine semantics (timeouts cannot be enforced in-process and
  are inert in serial mode).

Determinism is preserved through all of it: supervised items are pure
functions of their content, so a retried attempt reproduces the same
value and the result list stays byte-identical to a fault-free serial
run — the property the crash-injection self-test
(``tests/test_supervisor.py``) pins down.

Access it through ``WorkerPool(workers=..., supervisor=SupervisorConfig(...))``;
campaigns, sweeps and the CLI thread the knobs through as ``timeout=`` /
``retries=``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import struct
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.errors import ExecutionError
from repro.exec.seeding import derive_seed

# Published just before forking; inherited by children through the
# forked address space, so inputs never need to pickle — closures,
# lambdas and scenario recipes all work.
_SUP_FN: Optional[Callable[[Any], Any]] = None
_SUP_ITEMS: Sequence[Any] = ()
_SUP_HOOK: Optional[Callable[["FaultContext"], None]] = None
# True inside a forked worker: forbids nested forking.
_IN_WORKER = False

_HEADER = struct.Struct("!I")


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


class RemoteTraceback(Exception):
    """Carrier for a worker-side traceback, attached as ``__cause__``."""

    def __init__(self, tb: str) -> None:
        super().__init__(tb)
        self.tb = tb

    def __str__(self) -> str:
        return self.tb


def _pickle_exc(exc: BaseException) -> Optional[bytes]:
    """``exc`` pickled for the parent, or ``None`` when it will not pickle."""
    try:
        return pickle.dumps(exc)
    except Exception:
        return None


def _rebuild_exc(blob: Optional[bytes], tb: str) -> Optional[BaseException]:
    """A worker's exception with its traceback reattached, if it unpickles.

    Exceptions lose their traceback when pickled across the result pipe;
    the rebuilt one carries it as a ``remote_traceback`` string attribute
    and a :class:`RemoteTraceback` ``__cause__``, so a failing cell points
    at the cell rather than at the map.
    """
    if blob is None:
        return None
    try:
        exc = pickle.loads(blob)
    except Exception:
        return None
    exc.remote_traceback = tb
    exc.__cause__ = RemoteTraceback(tb)
    return exc


# ----------------------------------------------------------------------
# Public records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ItemFailure:
    """A quarantined work item: what failed, how often, and why.

    Attributes
    ----------
    index:
        Position of the item in the mapped sequence (its result slot).
    label:
        The cell label the caller supplied for this item.
    attempts:
        Total attempts made (first try + retries).
    error:
        Failure class: an exception type name, ``"timeout"`` or
        ``"worker-died"`` (for the *last* attempt).
    message:
        Human-readable detail of the last attempt's failure.
    remote_traceback:
        The worker-side traceback of the last raising attempt (empty for
        timeouts and worker deaths, which leave no Python traceback).
    """

    index: int
    label: str
    attempts: int
    error: str
    message: str
    remote_traceback: str = ""

    def summary(self) -> str:
        """One-line description for reports and table footers."""
        return (
            f"{self.label}: {self.error} after {self.attempts} attempt(s)"
            f" — {self.message}"
        )


@dataclass(frozen=True)
class FaultContext:
    """What a fault hook learns about the attempt it may sabotage.

    ``seed`` is the deterministic per-attempt seed
    (``derive_seed(config.seed, "attempt", index, attempt)``), so hooks —
    like :class:`CrashInjector` — make the same choice for the same
    attempt in every run.  ``in_worker`` is False when the item runs
    serially in the supervising process, where hooks must not kill or
    block the parent.
    """

    index: int
    attempt: int
    seed: int
    in_worker: bool


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy for one :class:`SupervisedExecutor` run.

    Attributes
    ----------
    timeout:
        Per-item wall-clock budget in seconds; the worker running an
        overdue item is SIGKILLed and the item retried.  ``None``
        disables timeouts.  Not enforceable in serial (degraded) mode.
    retries:
        Retry attempts per item after its first failure; once exhausted
        the item is quarantined (or raises, per ``failure_mode``).
    backoff_base / backoff_cap:
        Exponential backoff: attempt ``a`` waits
        ``min(cap, base * 2**(a-1))`` seconds, jittered ×[0.5, 1.5) by a
        seed-derived factor.
    seed:
        Base seed for attempt seeds and backoff jitter.
    failure_mode:
        ``"quarantine"`` records an :class:`ItemFailure` in the result
        slot and keeps mapping; ``"raise"`` aborts the map with an
        :class:`~repro.errors.ExecutionError` on the first exhausted item.
    max_worker_deaths:
        Death budget (kills + crashes) before the executor stops forking
        and degrades to serial; defaults to ``4*workers + 2*len(items)``.
    fault_hook:
        Test-only chaos hook called in the worker before each attempt
        (see :class:`CrashInjector`); inherited through fork, never
        pickled.
    on_result:
        Called in the parent as ``on_result(index, value)`` the moment an
        item completes successfully — completion order, not item order.
        This is the checkpointing hook: journal appends ride it.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    seed: int = 0
    failure_mode: str = "quarantine"
    max_worker_deaths: Optional[int] = None
    fault_hook: Optional[Callable[[FaultContext], None]] = None
    on_result: Optional[Callable[[int, Any], None]] = None

    def __post_init__(self) -> None:
        if self.failure_mode not in ("quarantine", "raise"):
            raise ValueError(
                f"failure_mode must be 'quarantine' or 'raise', "
                f"got {self.failure_mode!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


@dataclass
class SupervisionStats:
    """What one supervised map did beyond its results."""

    mode: str = "serial"
    workers_used: int = 1
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    degraded: bool = False
    failures: List[ItemFailure] = field(default_factory=list)
    timings: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Deterministic fault injection (the self-test's chaos monkey)
# ----------------------------------------------------------------------


class InjectedFault(RuntimeError):
    """Raised by :class:`CrashInjector` for the "raise" fault flavour."""


class CrashInjector:
    """Deterministic chaos hook: kill, hang or fail workers mid-item.

    For each attempt a pseudo-random draw — a pure function of
    ``(seed, index, attempt)`` via :func:`derive_seed`, so every run
    injects the identical fault schedule — decides whether to inject and
    which action to take: ``"exit"`` (``os._exit``, simulating a crash /
    OOM kill), ``"hang"`` (sleep past any timeout), or ``"raise"``
    (raise :class:`InjectedFault`).  Retried attempts draw afresh, so an
    item sabotaged on attempt 0 usually succeeds on a later attempt.

    Outside a worker process (serial/degraded mode) the destructive
    actions are downgraded to ``"raise"`` so the supervising process is
    never killed or blocked.
    """

    def __init__(
        self,
        rate: float = 0.2,
        seed: int = 0,
        actions: Sequence[str] = ("exit", "hang", "raise"),
        hang_seconds: float = 30.0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        unknown = set(actions) - {"exit", "hang", "raise"}
        if unknown:
            raise ValueError(f"unknown injection action(s): {sorted(unknown)}")
        self.rate = rate
        self.seed = seed
        self.actions = tuple(actions)
        self.hang_seconds = hang_seconds
        self.parent_pid = os.getpid()

    def would_inject(self, index: int, attempt: int) -> Optional[str]:
        """The action this hook takes for (index, attempt), or ``None``."""
        draw = derive_seed(self.seed, "inject", index, attempt)
        if (draw % 1_000_000) / 1_000_000 >= self.rate:
            return None
        return self.actions[(draw >> 24) % len(self.actions)]

    def __call__(self, context: FaultContext) -> None:
        action = self.would_inject(context.index, context.attempt)
        if action is None:
            return
        in_child = context.in_worker and os.getpid() != self.parent_pid
        if action == "exit" and in_child:
            os._exit(17)
        if action == "hang" and in_child:
            time.sleep(self.hang_seconds)
        raise InjectedFault(
            f"injected {action!r} fault at item {context.index}, "
            f"attempt {context.attempt}"
        )


# ----------------------------------------------------------------------
# Pipe framing: length-prefixed pickles over raw fds
# ----------------------------------------------------------------------


def _read_exact(fd: int, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on EOF (worker death)."""
    chunks = b""
    while len(chunks) < count:
        try:
            chunk = os.read(fd, count - len(chunks))
        except OSError:
            return None
        if not chunk:
            return None
        chunks += chunk
    return chunks


def _read_msg(fd: int) -> Optional[Tuple[Any, ...]]:
    header = _read_exact(fd, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    body = _read_exact(fd, length)
    if body is None:
        return None
    return pickle.loads(body)


def _write_msg(fd: int, message: Tuple[Any, ...]) -> None:
    payload = pickle.dumps(message)
    view = memoryview(_HEADER.pack(len(payload)) + payload)
    while view:
        written = os.write(fd, view)
        view = view[written:]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _child_loop(task_r: int, result_w: int) -> None:
    """Run items one at a time until told to stop (or the parent dies)."""
    while True:
        message = _read_msg(task_r)
        if message is None or message[0] == "stop":
            os._exit(0)
        _, index, attempt, attempt_seed = message
        token = obs.capture_start()
        started = time.perf_counter()
        try:
            if _SUP_HOOK is not None:
                _SUP_HOOK(
                    FaultContext(
                        index=index,
                        attempt=attempt,
                        seed=attempt_seed,
                        in_worker=True,
                    )
                )
            value = _SUP_FN(_SUP_ITEMS[index])
            seconds = time.perf_counter() - started
            reply: Tuple[Any, ...] = (
                "ok", index, attempt, value, seconds, obs.capture_finish(token)
            )
        except (KeyboardInterrupt, SystemExit):
            # die visibly instead of reporting the interrupt as an item
            # failure: the parent sees EOF on the result pipe, records a
            # worker death and reassigns the attempt (EXC001)
            os._exit(1)
        except BaseException as exc:  # must report, not die
            obs.capture_finish(token)  # roll back; failed attempts ship nothing
            reply = (
                "err",
                index,
                attempt,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                _pickle_exc(exc),
            )
        try:
            _write_msg(result_w, reply)
        except (KeyboardInterrupt, SystemExit):
            os._exit(1)  # interrupted mid-write: never retry the write
        except Exception:
            if reply[0] != "ok":
                os._exit(1)
            # the value itself would not pickle — report that as an error
            try:
                _write_msg(
                    result_w,
                    (
                        "err",
                        index,
                        attempt,
                        "UnpicklableResult",
                        f"result of item {index} could not be pickled",
                        traceback.format_exc(),
                        None,
                    ),
                )
            except (KeyboardInterrupt, SystemExit):
                os._exit(1)
            except Exception:
                os._exit(1)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _Attempt:
    __slots__ = ("index", "attempt", "ready_at")

    def __init__(self, index: int, attempt: int, ready_at: float) -> None:
        self.index = index
        self.attempt = attempt
        self.ready_at = ready_at


class _Worker:
    __slots__ = ("pid", "task_w", "result_r", "task", "deadline")

    def __init__(self, pid: int, task_w: int, result_r: int) -> None:
        self.pid = pid
        self.task_w = task_w
        self.result_r = result_r
        self.task: Optional[_Attempt] = None
        self.deadline: Optional[float] = None


_UNSET = object()


class SupervisedExecutor:
    """One supervised map: fork, watch, retry, quarantine (see module doc)."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        labels: Sequence[str],
        config: SupervisorConfig,
        workers: int,
    ) -> None:
        self.fn = fn
        self.items = list(items)
        self.labels = list(labels)
        self.config = config
        self.workers = max(1, workers)
        self.stats = SupervisionStats()
        self._results: List[Any] = [_UNSET] * len(self.items)
        self._timings: List[float] = [0.0] * len(self.items)
        # Captured telemetry payload of each item's *successful* attempt;
        # adopted in index order after the map (deterministic merge).
        self._telemetry: List[Optional[Dict[str, Any]]] = [None] * len(
            self.items
        )
        self._completed = 0
        self._pending: "deque[_Attempt]" = deque(
            _Attempt(i, 0, 0.0) for i in range(len(self.items))
        )
        self._workers: Dict[int, _Worker] = {}  # keyed by result_r fd
        budget = config.max_worker_deaths
        if budget is None:
            budget = 4 * self.workers + 2 * len(self.items)
        self._death_budget = budget

    # -- public ---------------------------------------------------------

    def run(self) -> Tuple[List[Any], SupervisionStats]:
        """Execute the map; return ``(results, stats)``.

        Quarantined slots hold their :class:`ItemFailure` (also listed in
        ``stats.failures``); every other slot holds the item's value.
        """
        if not self.items:
            return [], self.stats
        # On one core forking buys only isolation, and isolation pays
        # only when the map kills overdue items or retries after a death;
        # a plain map there stays an in-process loop.
        isolate = self.config.timeout is not None or self.config.retries > 0
        use_fork = (
            self.workers > 1
            and fork_available()
            and not _IN_WORKER
            and ((os.cpu_count() or 1) > 1 or isolate)
        )
        if use_fork:
            self.stats.mode = "fork-pool"
            self.stats.workers_used = self.workers
            self._run_forked()
        else:
            self._run_serial()
        self.stats.timings = list(self._timings)
        # Merge per-item telemetry in submission order, never completion
        # order — the event stream stays identical across worker counts.
        for index, payload in enumerate(self._telemetry):
            obs.adopt(payload, label=self.labels[index])
        return self._results, self.stats

    # -- forked mode ----------------------------------------------------

    def _run_forked(self) -> None:
        global _SUP_FN, _SUP_ITEMS, _SUP_HOOK
        _SUP_FN, _SUP_ITEMS, _SUP_HOOK = (
            self.fn,
            self.items,
            self.config.fault_hook,
        )
        try:
            for _ in range(min(self.workers, len(self.items))):
                self._spawn()
            while self._completed < len(self.items) and not self.stats.degraded:
                now = time.monotonic()
                self._assign(now)
                self._wait(now)
                self._check_deadlines(time.monotonic())
            if self._completed < len(self.items):
                # degraded: recover in-flight attempts, continue serially
                for worker in list(self._workers.values()):
                    if worker.task is not None:
                        self._pending.appendleft(worker.task)
                        worker.task = None
                self._kill_all()
                self._run_serial()
        finally:
            self._kill_all()
            _SUP_FN, _SUP_ITEMS, _SUP_HOOK = None, (), None

    def _spawn(self) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            try:
                os.close(task_w)
                os.close(result_r)
                # drop inherited parent-side fds of sibling workers so a
                # sibling's death is visible to the parent as EOF
                for sibling in self._workers.values():
                    for fd in (sibling.task_w, sibling.result_r):
                        try:
                            os.close(fd)
                        except OSError:
                            pass
                _mark_worker()
                _child_loop(task_r, result_w)
            finally:
                os._exit(1)
        os.close(task_r)
        os.close(result_w)
        self._workers[result_r] = _Worker(pid, task_w, result_r)
        obs.event("worker-spawn", src="exec", worker_pid=pid)

    def _assign(self, now: float) -> None:
        for worker in list(self._workers.values()):
            if worker.task is not None:
                continue
            task = self._next_ready(now)
            if task is None:
                return
            seed = derive_seed(self.config.seed, "attempt", task.index, task.attempt)
            try:
                _write_msg(worker.task_w, ("run", task.index, task.attempt, seed))
            except OSError:
                # the idle worker died between items: not the task's fault
                self._retire(worker)
                obs.event(
                    "worker-death",
                    src="exec",
                    worker_pid=worker.pid,
                    while_idle=True,
                )
                self._note_death()
                self._pending.appendleft(task)
                self._ensure_capacity()
                continue
            worker.task = task
            worker.deadline = (
                now + self.config.timeout if self.config.timeout else None
            )

    def _next_ready(self, now: float) -> Optional[_Attempt]:
        for _ in range(len(self._pending)):
            task = self._pending.popleft()
            if task.ready_at <= now:
                return task
            self._pending.append(task)
        return None

    def _wait(self, now: float) -> None:
        busy = [w.result_r for w in self._workers.values() if w.task is not None]
        timeout = self._wait_timeout(now)
        if not busy:
            # every worker idle: either backoff delays or death recovery
            if self._pending:
                self._ensure_capacity()
                if timeout:
                    time.sleep(min(timeout, 0.05))
            return
        try:
            readable, _, _ = select.select(busy, [], [], timeout)
        except InterruptedError:  # pragma: no cover - signal race
            return
        for fd in readable:
            self._on_readable(fd)

    def _wait_timeout(self, now: float) -> Optional[float]:
        horizon: Optional[float] = None
        for worker in self._workers.values():
            if worker.task is not None and worker.deadline is not None:
                horizon = (
                    worker.deadline
                    if horizon is None
                    else min(horizon, worker.deadline)
                )
        for task in self._pending:
            if task.ready_at > now:
                horizon = (
                    task.ready_at if horizon is None else min(horizon, task.ready_at)
                )
        if horizon is None:
            return None
        return max(0.0, horizon - now) + 0.001

    def _on_readable(self, fd: int) -> None:
        worker = self._workers.get(fd)
        if worker is None:  # already retired this round
            return
        message = _read_msg(fd)
        if message is None:
            # EOF: the worker died mid-item (crash, OOM kill, os._exit)
            task = worker.task
            self._retire(worker)
            obs.event(
                "worker-death",
                src="exec",
                worker_pid=worker.pid,
                index=None if task is None else task.index,
            )
            self._note_death()
            if task is not None:
                self._record_failure(
                    task,
                    "worker-died",
                    f"worker exited while running item {task.index}",
                    "",
                )
            self._ensure_capacity()
            return
        if message[0] == "ok":
            _, index, _, value, seconds, telemetry = message
            worker.task = None
            worker.deadline = None
            self._telemetry[index] = telemetry
            self._finish(index, value, seconds, succeeded=True)
        else:
            _, index, _, error, detail, remote_tb, blob = message
            task = worker.task
            worker.task = None
            worker.deadline = None
            if task is None or task.index != index:  # pragma: no cover
                task = _Attempt(index, message[2], 0.0)
            self._record_failure(
                task, error, detail, remote_tb, _rebuild_exc(blob, remote_tb)
            )

    def _check_deadlines(self, now: float) -> None:
        for worker in list(self._workers.values()):
            task = worker.task
            if task is None or worker.deadline is None or now < worker.deadline:
                continue
            self._kill_worker(worker)
            obs.event(
                "timeout-kill",
                src="exec",
                worker_pid=worker.pid,
                index=task.index,
                attempt=task.attempt,
                budget=self.config.timeout,
            )
            self.stats.timeouts += 1
            self._note_death()
            self._record_failure(
                task,
                "timeout",
                f"item {task.index} exceeded the {self.config.timeout}s "
                f"wall-clock budget (worker SIGKILLed)",
                "",
            )
            self._ensure_capacity()

    def _ensure_capacity(self) -> None:
        if self.stats.degraded:
            return
        remaining = len(self.items) - self._completed
        wanted = min(self.workers, max(1, remaining))
        while len(self._workers) < wanted:
            self._spawn()

    def _note_death(self) -> None:
        self.stats.worker_deaths += 1
        self._death_budget -= 1
        if self._death_budget < 0 and not self.stats.degraded:
            self.stats.degraded = True
            self.stats.mode = "degraded"
            obs.event(
                "degraded",
                src="exec",
                worker_deaths=self.stats.worker_deaths,
            )

    def _retire(self, worker: _Worker) -> None:
        """Forget a dead worker: close fds, reap the zombie."""
        self._workers.pop(worker.result_r, None)
        for fd in (worker.task_w, worker.result_r):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.waitpid(worker.pid, 0)
        except ChildProcessError:
            pass

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            os.kill(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._retire(worker)

    def _kill_all(self) -> None:
        """SIGKILL and reap every live worker (interrupt-safe cleanup)."""
        for worker in list(self._workers.values()):
            self._kill_worker(worker)

    # -- serial / degraded mode -----------------------------------------

    def _run_serial(self) -> None:
        while self._pending:
            task = self._pending.popleft()
            now = time.monotonic()
            if task.ready_at > now:
                time.sleep(task.ready_at - now)
            seed = derive_seed(self.config.seed, "attempt", task.index, task.attempt)
            token = obs.capture_start()
            started = time.perf_counter()
            try:
                if self.config.fault_hook is not None:
                    self.config.fault_hook(
                        FaultContext(
                            index=task.index,
                            attempt=task.attempt,
                            seed=seed,
                            in_worker=False,
                        )
                    )
                value = self.fn(self.items[task.index])
            except (KeyboardInterrupt, SystemExit):
                # ^C must abort the serial loop, never enter the retry
                # path (EXC001); the pool's cleanup reaps any children
                obs.capture_finish(token)
                raise
            except Exception as exc:
                obs.capture_finish(token)  # roll back the failed attempt
                self._record_failure(
                    task, type(exc).__name__, str(exc), traceback.format_exc(), exc
                )
                continue
            seconds = time.perf_counter() - started
            self._telemetry[task.index] = obs.capture_finish(token)
            self._finish(task.index, value, seconds, succeeded=True)

    # -- shared bookkeeping ---------------------------------------------

    def _finish(
        self, index: int, value: Any, seconds: float, succeeded: bool
    ) -> None:
        if self._results[index] is not _UNSET:  # pragma: no cover - paranoia
            return
        self._results[index] = value
        self._timings[index] = seconds
        self._completed += 1
        if succeeded and self.config.on_result is not None:
            self.config.on_result(index, value)

    def _record_failure(
        self,
        task: _Attempt,
        error: str,
        detail: str,
        remote_tb: str,
        exc: Optional[BaseException] = None,
    ) -> None:
        attempts = task.attempt + 1
        if task.attempt < self.config.retries:
            self.stats.retries += 1
            obs.event(
                "retry",
                src="exec",
                index=task.index,
                label=self.labels[task.index],
                attempt=task.attempt,
                error=error,
            )
            delay = min(
                self.config.backoff_cap,
                self.config.backoff_base * (2 ** task.attempt),
            )
            jitter = 0.5 + (
                derive_seed(self.config.seed, "backoff", task.index, task.attempt)
                % 1000
            ) / 1000.0
            self._pending.append(
                _Attempt(
                    task.index, task.attempt + 1, time.monotonic() + delay * jitter
                )
            )
            return
        failure = ItemFailure(
            index=task.index,
            label=self.labels[task.index],
            attempts=attempts,
            error=error,
            message=detail,
            remote_traceback=remote_tb,
        )
        if self.config.failure_mode == "raise":
            raise ExecutionError(
                f"item {failure.label!r} failed after {attempts} attempt(s): "
                f"{error}: {detail}"
                + (f"\n--- remote traceback ---\n{remote_tb}" if remote_tb else ""),
                failure=failure,
            ) from exc
        obs.event(
            "quarantine",
            src="exec",
            index=task.index,
            label=self.labels[task.index],
            attempts=attempts,
            error=error,
        )
        self.stats.failures.append(failure)
        self._finish(task.index, failure, 0.0, succeeded=False)
