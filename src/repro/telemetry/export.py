"""Trace export: JSONL span files, safe across fork/spawn workers.

:class:`TraceWriter` appends one ``json.dumps(..., sort_keys=True)`` line
per finished span.  Two guards keep multi-process runs from corrupting the
file:

* the file opens lazily on first write, so a forked worker that inherited
  an un-opened writer never opens it;
* every write checks the recording PID, so a forked worker that inherited
  an *open* writer silently drops the write.

Spawned workers never construct a writer at all — the arming code in
:mod:`repro.telemetry` only attaches one in the main process
(``multiprocessing.parent_process() is None``).  Worker spans still reach
the file: they ride home inside the shard runtime's ``_ShardResult``
payloads (:mod:`repro.execution.shards`) and the parent writes them after
adoption.
"""

from __future__ import annotations

import json
import os
from typing import List

from .spans import SpanRecord

__all__ = ["TraceWriter", "read_trace"]


class TraceWriter:
    """Append-only JSONL span sink, PID-guarded for forked children."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._pid = os.getpid()
        self._handle = None

    def write(self, record: SpanRecord) -> None:
        if os.getpid() != self._pid:
            return  # a forked child inherited this writer: parent's file
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None and os.getpid() == self._pid:
            self._handle.close()
        self._handle = None


def read_trace(path: str) -> List[SpanRecord]:
    """Parse a JSONL trace file back into :class:`SpanRecord` objects."""
    records: List[SpanRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(SpanRecord.from_dict(json.loads(line)))
    return records
