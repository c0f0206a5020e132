"""Checkpoint/resume for long sweeps: an append-only JSONL cell journal.

A multi-hour chaos campaign that dies at cell 900/1000 should not pay
for the first 900 again.  :class:`CheckpointJournal` makes every grid
restartable:

* each completed cell is appended as **one JSON line** —
  ``{"key": ..., "label": ..., "payload": ...}`` — written with a single
  ``write`` + ``flush`` + ``fsync``, so a crash can at worst truncate
  the final line (which :meth:`load` skips), never corrupt earlier ones;
* cells are **keyed by content**: :func:`checkpoint_key` hashes the
  cell's identity (topology parameters, scenario, protocol, seed; for
  an experiment spec also its failure schedule, protocol parameters
  and pickled latency and fault models) with SHA-256 using the same
  canonical ``repr`` + unit-separator scheme as
  :func:`~repro.exec.seeding.derive_seed`, so keys are stable across
  processes, interpreter restarts and ``PYTHONHASHSEED`` values — the
  same stability contract the :class:`~repro.exec.cache.GraphCache`
  spec keys rely on;
* a resumed run loads the journal, skips every journaled cell, computes
  only the remainder, and merges in original grid order — so the final
  matrix/result is **byte-identical** to an uninterrupted run.

Payloads are JSON values.  Results that are not naturally JSON (e.g.
:class:`~repro.flooding.metrics.FloodResult` with its delivery-time
maps) ride through :func:`pack_pickle` / :func:`unpack_pickle`, which
wrap a base64 pickle in a JSON object; campaign cells use an explicit
JSON codec instead so journals stay human-inspectable.

The protocol itself — open, key, skip, journal each success, close,
merge — lives in one place, :func:`~repro.exec.pool.journaled_map`.
``ChaosCampaign.run``, ``run_experiments``, ``repeat_runs`` and
``run_sweep`` call it and all accept ``checkpoint=`` (a journal path)
and ``resume=True``; the CLI exposes them as ``--checkpoint`` /
``--resume`` on the chaos and diameter subcommands.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

import repro.obs as obs
from repro.exec.seeding import seed_key


def checkpoint_key(*parts: Any) -> str:
    """Stable SHA-256 hex key for a cell identified by ``parts``.

    Uses the canonical :func:`~repro.exec.seeding.seed_key` rendering
    with unit separators, so distinct part tuples cannot collide by
    string coincidence and the key is identical in every process.

    Examples
    --------
    >>> checkpoint_key("cell", 14, 3) == checkpoint_key("cell", 14, 3)
    True
    >>> checkpoint_key("cell", 14, 3) != checkpoint_key("cell", 14, "3")
    True
    """
    digest = hashlib.sha256()
    for part in seed_key(*parts):
        digest.update(b"\x1f")
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def pack_pickle(value: Any) -> Dict[str, str]:
    """Wrap an arbitrary picklable value as a JSON-safe payload."""
    return {"__pickle__": base64.b64encode(pickle.dumps(value)).decode("ascii")}


def unpack_pickle(payload: Dict[str, str]) -> Any:
    """Inverse of :func:`pack_pickle`."""
    return pickle.loads(base64.b64decode(payload["__pickle__"]))


class CheckpointJournal:
    """Append-only JSONL journal of completed cells (see module doc).

    Parameters
    ----------
    path:
        Journal file location; parent directories are created on first
        append.
    fsync:
        Force each appended line to disk (default).  Disable only for
        throwaway journals where post-crash completeness does not
        matter.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._entries: Dict[str, Any] = {}
        self._labels: Dict[str, str] = {}
        self._fh = None

    # -- reading --------------------------------------------------------

    def load(self) -> int:
        """Read the journal from disk; return the number of usable cells.

        Missing files load as empty.  A truncated or corrupt trailing
        line — the signature of a crash mid-append — is skipped, as is
        any line without a key; later duplicates of a key win (they are
        re-runs of the same cell).
        """
        self._entries.clear()
        self._labels.clear()
        if not self.path.exists():
            return 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                key = record.get("key")
                if not isinstance(key, str) or "payload" not in record:
                    continue
                self._entries[key] = record["payload"]
                self._labels[key] = record.get("label", "")
        obs.event(
            "checkpoint-load",
            src="exec",
            path=str(self.path),
            entries=len(self._entries),
        )
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, default: Any = None) -> Any:
        """The journaled payload for ``key``, or ``default``."""
        return self._entries.get(key, default)

    def labels(self) -> Iterator[str]:
        """Labels of every journaled cell (for progress reporting)."""
        return iter(self._labels.values())

    # -- writing --------------------------------------------------------

    def record(self, key: str, payload: Any, label: str = "") -> None:
        """Append one completed cell; durable once the call returns."""
        line = json.dumps(
            {"key": key, "label": label, "payload": payload},
            sort_keys=True,
            separators=(",", ":"),
        )
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._entries[key] = payload
        self._labels[key] = label
        obs.event(
            "checkpoint-write", src="exec", key=key[:12], label=label
        )

    def close(self) -> None:
        """Close the underlying file handle (appends reopen it)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_journal(
    checkpoint: Optional[Union[str, Path, CheckpointJournal]],
    resume: bool,
) -> Optional[CheckpointJournal]:
    """Normalize a ``checkpoint=`` argument to a loaded journal.

    ``None`` stays ``None``; paths become journals.  With
    ``resume=True`` the journal's existing cells are loaded (so callers
    skip them); without it a pre-existing journal is an error — refusing
    to silently mix two different runs' cells in one file.
    """
    if checkpoint is None:
        if resume:
            raise ValueError("resume=True requires a checkpoint journal path")
        return None
    journal = (
        checkpoint
        if isinstance(checkpoint, CheckpointJournal)
        else CheckpointJournal(checkpoint)
    )
    if resume:
        journal.load()
    elif journal.path.exists() and journal.path.stat().st_size > 0:
        raise ValueError(
            f"checkpoint journal {journal.path} already exists; "
            f"pass resume=True to continue it or remove it to start over"
        )
    return journal
