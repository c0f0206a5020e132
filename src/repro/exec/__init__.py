"""The execution engine: deterministic parallel fan-out + memoization.

Every sweep in this repository — chaos campaigns, flooding experiment
repetitions, analysis grids — is a map of a pure, seeded cell function
over a parameter grid.  This package gives those maps four things:

* :class:`~repro.exec.pool.WorkerPool` — a process-pool executor whose
  results are byte-identical to the serial loop (items carry their own
  derived seeds; results are collected positionally);
* :mod:`~repro.exec.supervisor` — the fork executor every map runs
  through: worker-death detection and graceful degradation to serial,
  plus per-item wall-clock timeouts, bounded retries with deterministic
  backoff and poison-item quarantine
  (:class:`~repro.exec.supervisor.ItemFailure`) when configured via
  :class:`~repro.exec.supervisor.SupervisorConfig`;
* :class:`~repro.exec.checkpoint.CheckpointJournal` — an append-only
  JSONL journal of completed cells keyed by stable SHA-256
  :func:`~repro.exec.checkpoint.checkpoint_key` hashes, and
  :func:`~repro.exec.pool.journaled_map`, the one map that reads and
  writes it, so interrupted campaigns, sweeps and experiment batches
  resume (``checkpoint=`` / ``resume=True``) with results
  byte-identical to an uninterrupted run;
* :class:`~repro.exec.cache.GraphCache` / :data:`~repro.exec.cache.GRAPH_CACHE`
  — keyed memoization of LHG constructions ``(n, k, rule) → (graph,
  certificate)`` so a grid builds each topology once, not once per cell;
  plus :class:`~repro.exec.profiling.ExecutionReport` — per-cell wall
  times, cache hit rates and fault counters for every map, surfaced by
  the F13/F14 benchmarks and the CLI.

Layers above wire through :func:`~repro.exec.pool.journaled_map`
behind ``workers=`` / ``timeout=`` / ``retries=`` / ``checkpoint=``
options:
``ChaosCampaign.run(workers=4, checkpoint="run.jsonl", resume=True)``,
``run_experiments(specs, workers=4)``, ``repeat_runs(..., workers=4)``,
``run_sweep(..., workers=4)`` and
``python -m repro chaos 256 4 --workers 4 --checkpoint run.jsonl --resume``.
"""

from repro.exec.cache import (
    GRAPH_CACHE,
    GraphCache,
    KeyedCache,
    TopologySpec,
    build_lhg_cached,
)
from repro.exec.checkpoint import (
    CheckpointJournal,
    checkpoint_key,
    open_journal,
    pack_pickle,
    unpack_pickle,
)
from repro.exec.pool import (
    RemoteTraceback,
    WorkerPool,
    fork_available,
    journaled_map,
    resolve_workers,
)
from repro.exec.profiling import CellTiming, ExecutionReport
from repro.exec.seeding import derive_seed, seed_key
from repro.exec.supervisor import (
    CrashInjector,
    FaultContext,
    InjectedFault,
    ItemFailure,
    SupervisionStats,
    SupervisorConfig,
)

__all__ = [
    "CellTiming",
    "CheckpointJournal",
    "CrashInjector",
    "ExecutionReport",
    "FaultContext",
    "GRAPH_CACHE",
    "GraphCache",
    "InjectedFault",
    "ItemFailure",
    "KeyedCache",
    "RemoteTraceback",
    "SupervisionStats",
    "SupervisorConfig",
    "TopologySpec",
    "WorkerPool",
    "build_lhg_cached",
    "checkpoint_key",
    "derive_seed",
    "fork_available",
    "journaled_map",
    "open_journal",
    "pack_pickle",
    "resolve_workers",
    "seed_key",
    "unpack_pickle",
]
