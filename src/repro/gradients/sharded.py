"""Sharded multi-process parameter-shift gradient evaluation.

:class:`ShardedGradientEngine` partitions one gradient step's evaluation
rows (shifted weight vectors) across persistent worker processes, the way
:class:`~repro.execution.scheduler.ShardedExecutionEngine` shards a
population's structure groups.  Each worker owns a full sequential-mode
:class:`~repro.gradients.engine.BatchedGradientEngine`, whose caches stay
warm across training epochs.  This module is the weight-row adapter of the
shard runtime in :mod:`repro.execution.shards`, whose module docstring
states the determinism and resilience contract.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..execution.faults import FaultPlan
from ..execution.shards import ShardContext, ShardRuntime, ShardStats
from .engine import BatchedGradientEngine, GradientEngineConfig

__all__ = ["GradientShardStats", "ShardedGradientEngine"]


@dataclass
class GradientShardStats(ShardStats):
    """Counters describing what the sharded gradient scheduler did."""

    steps: int = 0
    sharded_steps: int = 0
    in_process_steps: int = 0
    #: whole-step in-process fallbacks only — the genuine last resort
    degraded_steps: int = 0


# repro: pickle-boundary
@dataclass
class _RowShard:
    """One shard's slice of a gradient step's evaluation rows."""

    kind: str                         # "qml" | "vqe"
    circuit: object                   # the QML circuit / VQE ansatz
    rows: np.ndarray                  # this shard's weight rows
    row_labels: np.ndarray            # global row indices of ``rows``
    witness_weights: np.ndarray       # the step's center weight vector
    features: Optional[np.ndarray]    # QML feature batch (None for VQE)
    plan: Optional[object]            # VQE MeasurementPlan (None for QML)


def _row_values(engine: BatchedGradientEngine, shard: _RowShard) -> np.ndarray:
    """Every row of ``shard`` through one engine call (contract rule 1).

    Calls the unsharded :class:`BatchedGradientEngine` methods explicitly, so
    the parent's sharded engine evaluates rows exactly as a worker's does.
    """
    if shard.kind == "qml":
        return BatchedGradientEngine.qml_expectations_rows(
            engine,
            shard.circuit,
            shard.rows,
            shard.features,
            row_labels=shard.row_labels,
            witness_weights=shard.witness_weights,
        )
    return BatchedGradientEngine.vqe_energy_rows(
        engine,
        shard.circuit,
        shard.plan,
        shard.rows,
        row_labels=shard.row_labels,
        witness_weights=shard.witness_weights,
    )


def _row_slice(shard: _RowShard, rows: slice) -> _RowShard:
    return dataclasses.replace(
        shard, rows=shard.rows[rows], row_labels=shard.row_labels[rows]
    )


class _RowContext(ShardContext):
    """Per-process sequential gradient engine."""

    span_name = "worker.gradient_shard"
    dispatch_unit = "step"

    def __init__(self, device, config, initial_layout) -> None:
        engine = BatchedGradientEngine(
            device, config, initial_layout=initial_layout, engine="sequential"
        )
        super().__init__(
            engine, engine.transpile_cache, engine.parametric_transpile_cache
        )

    def evaluate(self, task) -> np.ndarray:
        shard: _RowShard = task.work
        if task.injector is not None and len(shard.rows) > 1:
            # split after the first row so mid_evaluation faults discard
            # partially completed work; rows are hermetic (contract rule 1),
            # so the split never changes a value — and it only happens under
            # an active fault plan, so fault-free stats stay comparable
            head = _row_values(self.engine, _row_slice(shard, slice(None, 1)))
            self.fire(task, "mid_evaluation")
            tail = _row_values(self.engine, _row_slice(shard, slice(1, None)))
            return np.concatenate([head, tail], axis=0)
        values = _row_values(self.engine, shard)
        self.fire(task, "mid_evaluation")
        return values


# ---------------------------------------------------------------------------
# Parent-process engine
# ---------------------------------------------------------------------------


class ShardedGradientEngine(ShardRuntime, BatchedGradientEngine):
    """A gradient engine that fans evaluation rows out to worker processes.

    Drop-in for the sequential-mode :class:`BatchedGradientEngine` (it *is*
    one, used for the in-process, confirmation and degraded paths):
    ``shift_plan``, ``qml_expectations_rows`` and ``vqe_energy_rows`` have
    identical signatures and — by the determinism contract — produce
    identical floats.  Both the parent engine and every worker start from
    *fresh* caches, so warm state never depends on what ran before the
    engine was constructed.

    The retry/deadline policy reads the ``shard_*`` fields off the gradient
    config (:class:`~repro.gradients.engine.GradientEngineConfig`);
    ``fault_plan`` is described on :class:`~repro.execution.shards.
    ShardRuntime`.
    """

    fault_engine = "gradient"
    dispatch_span = "gradient.step"
    dispatch_unit = "step"
    seed_tag = "gradient-shard"

    def __init__(
        self,
        device=None,
        config: Optional[GradientEngineConfig] = None,
        *,
        initial_layout=None,
        workers: int = 1,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(
            device, config, initial_layout=initial_layout, engine="sequential"
        )
        self._init_shards(
            workers,
            self.config,
            GradientShardStats(),
            (self.transpile_cache, self.parametric_transpile_cache),
            fault_plan=fault_plan,
        )

    # -- adapter hooks ---------------------------------------------------------

    def _context_spec(self) -> functools.partial:
        return functools.partial(
            _RowContext, self.device, self.config, self.initial_layout
        )

    def _confirm(self, shard: _RowShard) -> np.ndarray:
        return _row_values(self, shard)

    def _report(self, shard: _RowShard, result) -> dict:
        return {"rows": int(result.engine_stats.rows_evaluated)}

    # -- evaluation -----------------------------------------------------------

    def qml_expectations_rows(
        self,
        circuit,
        rows: np.ndarray,
        features: np.ndarray,
        row_labels: Optional[np.ndarray] = None,
        witness_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self._evaluate(
            "qml", circuit, rows, row_labels, witness_weights,
            features=features, plan=None,
        )

    def vqe_energy_rows(
        self,
        ansatz,
        plan,
        rows: np.ndarray,
        row_labels: Optional[np.ndarray] = None,
        witness_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self._evaluate(
            "vqe", ansatz, rows, row_labels, witness_weights,
            features=None, plan=plan,
        )

    def _evaluate(
        self, kind, circuit, rows, row_labels, witness_weights, features, plan
    ) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("gradient engines expect a 2-D row matrix")
        n_rows = rows.shape[0]
        labels = self._labels(n_rows, row_labels)
        witness = self._witness(rows, witness_weights)
        whole = _RowShard(kind, circuit, rows, labels, witness, features, plan)
        shard_count = min(self.workers, n_rows)
        shards = (
            [
                _row_slice(whole, slice(split[0], split[-1] + 1))
                for split in np.array_split(np.arange(n_rows), shard_count)
            ]
            if shard_count > 1
            else [whole]
        )
        # shards are contiguous row ranges in order, so concatenating their
        # values by shard index restores the step's row order
        return self._run_dispatch(
            shards,
            lambda: _row_values(self, whole),
            lambda outputs: np.concatenate(
                [outputs[index] for index in sorted(outputs)], axis=0
            ),
            kind=kind,
            rows=int(n_rows),
        )
