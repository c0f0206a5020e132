"""A deterministic process-pool executor for embarrassingly parallel grids.

:class:`WorkerPool` maps a function over an ordered list of work items
and guarantees the result list is *identical* to the serial loop — same
values, same order — regardless of worker count.  Two properties make
that hold:

* **Determinism is the caller's half of the contract**: every item must
  carry its own seed (see :mod:`repro.exec.seeding`), so a cell's
  output is a pure function of the item, never of scheduling order.
* **Order is the pool's half**: each result lands in its item's slot,
  so the output list lines up with the input list even when cells
  finish out of order.

Every map runs through the one fork executor,
:class:`~repro.exec.supervisor.SupervisedExecutor`: forked workers
inherit the function and items through the forked address space (inputs
never pickle; results cross a pipe and must), and the parent selects on
their result pipes.  ``supervisor=SupervisorConfig(...)`` turns on
per-item timeouts, bounded deterministic retries and poison-item
quarantine.  Without one a map gets no retries and aborts on the first
failure, but a worker that dies still surfaces as an
:class:`~repro.errors.ExecutionError` instead of a hang.

A map runs as an in-process serial loop with the same semantics, and
the attached :class:`~repro.exec.profiling.ExecutionReport` says so,
where ``fork`` is unavailable, the caller asks for 1 worker, the map is
issued from inside a worker (nested pools never fork twice), or the
machine has a single CPU core and the map neither times out nor retries
(forking there only adds IPC and scheduling overhead).

An exception raised by a cell of a plain map is re-raised in the parent
as itself.  From a forked worker it carries the worker-side traceback
as a ``remote_traceback`` string attribute and a
:class:`~repro.exec.supervisor.RemoteTraceback` ``__cause__``, so a
failing campaign cell is debuggable instead of pointing at ``pool.map``.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.errors import ExecutionError
from repro.exec.checkpoint import open_journal, pack_pickle, unpack_pickle
from repro.exec.profiling import CellTiming, ExecutionReport
from repro.exec.supervisor import (
    RemoteTraceback,
    SupervisedExecutor,
    SupervisionStats,
    SupervisorConfig,
    fork_available,
)

__all__ = [
    "RemoteTraceback",
    "WorkerPool",
    "fork_available",
    "journaled_map",
    "resolve_workers",
]

# What ``supervisor=None`` means: no retries, and the first failure
# aborts the map.
_PLAIN = SupervisorConfig(retries=0, failure_mode="raise")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers=`` argument to a concrete positive count.

    ``None`` and ``1`` mean serial; ``-1`` means "all cores"
    (``os.cpu_count()``).

    Raises
    ------
    ValueError
        For ``0`` and any negative count other than ``-1`` — such values
        used to be silently coerced, masking caller bugs.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers == -1:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(
            f"workers must be a positive count or -1 (all cores), got {workers}"
        )
    return workers


class WorkerPool:
    """Deterministic fan-out executor (see module docstring).

    Parameters
    ----------
    workers:
        Worker process count.  ``None``/``1`` run serially in process;
        ``-1`` uses every core.
    cache:
        Optional :class:`~repro.exec.cache.KeyedCache` whose counters
        are snapshotted into each map's execution report.
    supervisor:
        Optional :class:`~repro.exec.supervisor.SupervisorConfig`.  When
        given, maps add per-item timeouts, retries with deterministic
        backoff and poison-item quarantine; without one a map neither
        retries nor quarantines, and re-raises a failing item's own
        exception.

    Attributes
    ----------
    last_report:
        The :class:`ExecutionReport` of the most recent :meth:`map`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Any = None,
        supervisor: Any = None,
    ) -> None:
        self.requested_workers = resolve_workers(workers)
        self.cache = cache
        self.supervisor = supervisor
        self.last_report = ExecutionReport()

    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """``[fn(item) for item in items]``, possibly across processes.

        ``labels`` (same length as ``items``) name the cells in the
        execution report; indices are used when omitted.

        Under supervision (``supervisor=`` at construction), slots whose
        item exhausted its retries hold the structured
        :class:`~repro.exec.supervisor.ItemFailure` instead of a value;
        ``last_report.failures`` lists them.
        """
        items = list(items)
        if labels is None:
            labels = [str(i) for i in range(len(items))]
        executor = SupervisedExecutor(
            fn,
            items,
            labels,
            config=self.supervisor or _PLAIN,
            workers=min(self.requested_workers, max(1, len(items))),
        )
        mark = _telemetry_mark()
        with obs.span("map", items=len(items)) as map_span:
            started = time.perf_counter()
            results, stats = self._run(executor)
            wall_seconds = time.perf_counter() - started
            map_span.set(mode=stats.mode, workers=stats.workers_used)
        self.last_report = ExecutionReport(
            mode=stats.mode,
            workers=stats.workers_used,
            requested_workers=self.requested_workers,
            wall_seconds=wall_seconds,
            timings=[
                CellTiming(label=label, seconds=seconds)
                for label, seconds in zip(labels, stats.timings)
            ],
            cache=self.cache.stats() if self.cache is not None else None,
            failures=list(stats.failures),
            retries=stats.retries,
            timeouts=stats.timeouts,
            worker_deaths=stats.worker_deaths,
            span_tree=_telemetry_tree(mark),
        )
        return results

    def _run(
        self, executor: SupervisedExecutor
    ) -> Tuple[List[Any], SupervisionStats]:
        """``executor.run()``; a plain map re-raises the item's own error.

        The re-raise happens outside the ``except`` block so the item's
        exception keeps its own ``__context__`` instead of gaining the
        :class:`~repro.errors.ExecutionError` wrapper.
        """
        try:
            return executor.run()
        except ExecutionError as exc:
            if self.supervisor is not None or exc.__cause__ is None:
                raise
            cause: BaseException = exc.__cause__
        raise cause


def journaled_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    labels: Sequence[str],
    key: Callable[[Any], str],
    *,
    workers: Optional[int] = None,
    cache: Any = None,
    checkpoint: Any = None,
    resume: bool = False,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    failure_mode: str = "raise",
    encode: Callable[[Any], Any] = pack_pickle,
    decode: Callable[[Any], Any] = unpack_pickle,
) -> Tuple[List[Any], int, WorkerPool]:
    """:meth:`WorkerPool.map` over a grid that resumes from a journal.

    The one implementation of the checkpoint protocol every grid front
    end (sweeps, experiment batches, chaos campaigns) shares:
    ``checkpoint``/``resume`` open a
    :class:`~repro.exec.checkpoint.CheckpointJournal`; items whose
    ``key(item)`` is already journaled are decoded instead of run; every
    other item is mapped, and each success is journaled (``encode``d)
    the moment it completes.  Results come back in item order, so a
    resumed grid is byte-identical to an uninterrupted one.

    Keys are computed only when a journal is open, all of them before
    any item runs, so items whose state changes as they run (stateful
    latency models) are keyed by their state at submission.

    Any of ``checkpoint``/``timeout``/``retries`` turns supervision on
    with ``retries`` defaulting to 2 and a failure handled per
    ``failure_mode``; an explicit ``supervisor`` overrides ``timeout``,
    ``retries`` and ``failure_mode``, and its own ``on_result`` still
    fires after the journal append (indexed among the items that ran).  With none of them the map neither
    retries nor quarantines.

    Returns ``(results, resumed, pool)``: the merged result list, how
    many items came from the journal, and the pool whose
    ``last_report`` covers the items that ran.
    """
    items = list(items)
    journal = open_journal(checkpoint, resume)
    try:
        done: Dict[int, Any] = {}
        if journal is not None:
            keys = [key(item) for item in items]
            for position, item_key in enumerate(keys):
                payload = journal.get(item_key)
                if payload is not None:
                    done[position] = decode(payload)
        todo = [i for i in range(len(items)) if i not in done]
        if journal is not None or timeout is not None or retries is not None:
            supervisor = supervisor or SupervisorConfig(
                timeout=timeout,
                retries=2 if retries is None else retries,
                failure_mode=failure_mode,
            )
        if supervisor is not None and journal is not None:
            chained = supervisor.on_result
            record = journal.record

            def journal_result(position: int, value: Any) -> None:
                index = todo[position]
                record(keys[index], encode(value), label=labels[index])
                if chained is not None:
                    chained(position, value)

            supervisor = replace(supervisor, on_result=journal_result)
        pool = WorkerPool(workers=workers, cache=cache, supervisor=supervisor)
        fresh = iter(
            pool.map(
                fn, [items[i] for i in todo], labels=[labels[i] for i in todo]
            )
        )
    finally:
        if journal is not None:
            journal.close()
    results = [done[i] if i in done else next(fresh) for i in range(len(items))]
    return results, len(done), pool


def _telemetry_mark() -> int:
    """Event-list position before a map (for scoping its span tree)."""
    collector = obs.active()
    return len(collector.events) if collector is not None else 0


def _telemetry_tree(mark: int):
    """The span tree of events recorded since ``mark``, or ``None``."""
    collector = obs.active()
    if collector is None:
        return None
    from repro.obs.export import build_span_tree

    return build_span_tree(collector.events[mark:])
