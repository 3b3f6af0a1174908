"""Sharded multi-process population evaluation for the co-search hot path.

:class:`ShardedExecutionEngine` partitions a population's structure groups
(candidates sharing one SubCircuit genome) across persistent worker
processes.  Each worker owns a full
:class:`~repro.core.estimator.PerformanceEstimator` +
:class:`~repro.execution.engine.ExecutionEngine` stack, so the deploy/evaluate
stage (and any degraded generation) starts from everything the fleet
compiled.  This module is the population adapter of the shard runtime in
:mod:`repro.execution.shards`, whose module docstring states the determinism
and resilience contract.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import ensure_rng
from .engine import ExecutionEngine
from .faults import FaultPlan
from .resilience import WorkerPoolGroup
from .shards import ShardContext, ShardRuntime, ShardStats

__all__ = ["SchedulerStats", "ShardedExecutionEngine"]


@dataclass
class SchedulerStats(ShardStats):
    """Counters describing what the sharded scheduler did."""

    generations: int = 0
    sharded_generations: int = 0
    in_process_generations: int = 0
    #: whole-generation in-process fallbacks only — the genuine last resort
    degraded_generations: int = 0


# ---------------------------------------------------------------------------
# Shard payloads crossing the process boundary
# ---------------------------------------------------------------------------


# repro: pickle-boundary
@dataclass
class _ValidationView:
    """The validation rows a QML generation scores against.

    Ships only the subset the estimator would select (not the whole dataset)
    and quacks enough like :class:`~repro.qml.datasets.Dataset` for
    ``PerformanceEstimator.validation_subset``.
    """

    x_valid: np.ndarray
    y_valid: np.ndarray


# repro: pickle-boundary
@dataclass
class _GroupShard:
    """One shard's structure groups plus what scoring them needs."""

    parameters: np.ndarray
    #: ``(group key, population indices, candidates)`` per structure group
    groups: List[Tuple[Tuple, List[int], list]]
    #: ``kind`` plus ``dataset``/``n_classes`` (qml) or ``molecule`` (vqe)
    payload: dict


def _score_groups(engine: ExecutionEngine, groups: list, payload: dict):
    """``(population index, score)`` pairs, one engine call per group.

    Calls the unsharded :class:`ExecutionEngine` methods explicitly, so the
    parent's sharded engine scores a group exactly as a worker's does
    (contract rule 1).
    """
    scores: List[Tuple[int, float]] = []
    for _key, indices, candidates in groups:
        if payload["kind"] == "qml":
            group_scores = ExecutionEngine.evaluate_qml_population(
                engine, candidates, payload["dataset"], payload["n_classes"]
            )
        else:
            group_scores = ExecutionEngine.evaluate_vqe_population(
                engine, candidates, payload["molecule"]
            )
        scores.extend(
            (int(index), float(score))
            for index, score in zip(indices, group_scores)
        )
    return scores


class _PopulationContext(ShardContext):
    """Per-process estimator/engine stack."""

    span_name = "worker.shard"
    dispatch_unit = "generation"

    def __init__(self, device, config, supercircuit) -> None:
        # Imported here, not at module top: repro.execution must stay
        # importable without pulling the whole repro.core package in.
        from ..core.estimator import PerformanceEstimator

        self.supercircuit = supercircuit
        # Workers never shard further — a worker is the leaf of the tree.
        worker_config = dataclasses.replace(config, workers=1)
        self.estimator = PerformanceEstimator(device, worker_config)
        engine = ExecutionEngine(self.estimator, supercircuit)
        super().__init__(engine, engine.transpile_cache, engine.parametric_cache)

    def counters(self) -> Dict[str, int]:
        return {
            "num_queries": self.estimator.num_queries,
            "backend_executions": self.estimator._backend.executions,
        }

    def evaluate(self, task) -> List[Tuple[int, float]]:
        shard: _GroupShard = task.work
        if not np.array_equal(self.supercircuit.parameters, shard.parameters):
            self.supercircuit.parameters = np.array(shard.parameters, dtype=float)
        self.estimator.rng = ensure_rng(task.seed)
        self.estimator._backend.reseed(task.seed)
        scores = _score_groups(self.engine, shard.groups[:1], shard.payload)
        # after the first unit of work, so a crash/hang here discards
        # partially completed evaluation
        self.fire(task, "mid_evaluation")
        return scores + _score_groups(self.engine, shard.groups[1:], shard.payload)


# ---------------------------------------------------------------------------
# Parent-process engine
# ---------------------------------------------------------------------------


class ShardedExecutionEngine(ShardRuntime, ExecutionEngine):
    """A population engine that fans structure groups out to worker processes.

    Drop-in for :class:`ExecutionEngine` (it *is* one): the scorer factories,
    sequential/real_qc fallbacks and ``noisy_expectations`` are inherited,
    only whole-population evaluation is sharded.  The shard count comes from
    the :class:`~repro.core.estimator.EstimatorConfig` fields ``workers`` and
    ``shard_min_group_size`` (plus the ``shard_deadline_seconds`` /
    ``shard_retries`` / ``shard_backoff_*`` resilience knobs);
    ``workers <= 1`` never creates a pool.  ``pools``/``tenant`` (the
    multi-tenant service) and ``fault_plan`` are described on
    :class:`~repro.execution.shards.ShardRuntime`.

    Simulation-backend dispatch (:mod:`repro.backends`) composes with
    sharding without any payload changes: backend selection is a pure
    function of the estimator config that ships to workers anyway, so every
    worker's engine rebuilds an identical dispatcher and shard tasks carry
    no backend state.
    """

    fault_engine = "execution"
    dispatch_span = "scheduler.generation"
    dispatch_unit = "generation"
    seed_tag = "shard"

    def __init__(
        self,
        estimator,
        supercircuit,
        fault_plan: Optional[FaultPlan] = None,
        pools: Optional[WorkerPoolGroup] = None,
        tenant: Optional[str] = None,
        **engine_kwargs,
    ) -> None:
        super().__init__(estimator, supercircuit, **engine_kwargs)
        config = estimator.config
        self.shard_min_group_size = max(
            1, int(getattr(config, "shard_min_group_size", 4))
        )
        self._init_shards(
            getattr(config, "workers", 1),
            config,
            SchedulerStats(),
            (self.transpile_cache, self.parametric_cache),
            fault_plan=fault_plan,
            pools=pools,
            tenant=tenant,
        )

    # -- adapter hooks ---------------------------------------------------------

    def _context_spec(self) -> functools.partial:
        return functools.partial(
            _PopulationContext,
            self.estimator.device, self.estimator.config, self.supercircuit,
        )

    def _confirm(self, shard: _GroupShard) -> List[Tuple[int, float]]:
        return _score_groups(self, shard.groups, shard.payload)

    def _report(self, shard: _GroupShard, result) -> dict:
        return {
            "groups": len(shard.groups),
            "candidates": len(result.output),
            "transpile_seconds": (
                result.bound_stats.compile_seconds
                + result.parametric_stats.compile_seconds
                + result.parametric_stats.bind_seconds
            ),
        }

    def _merge_counters(self, counters: Dict[str, int]) -> None:
        self.estimator.num_queries += counters["num_queries"]
        self.estimator._backend.record_executions(counters["backend_executions"])

    # -- population evaluation ----------------------------------------------

    def evaluate_qml_population(
        self, candidates: Sequence, dataset, n_classes: int
    ) -> List[float]:
        candidates = list(candidates)
        if not candidates or not self._shardable():
            return super().evaluate_qml_population(candidates, dataset, n_classes)
        features, labels = self.estimator.validation_subset(dataset)
        payload = {
            "kind": "qml",
            "dataset": _ValidationView(features, labels),
            "n_classes": int(n_classes),
        }
        return self._evaluate_population(candidates, payload)

    def evaluate_vqe_population(self, candidates: Sequence, molecule) -> List[float]:
        candidates = list(candidates)
        if not candidates or not self._shardable():
            return super().evaluate_vqe_population(candidates, molecule)
        return self._evaluate_population(
            candidates, {"kind": "vqe", "molecule": molecule}
        )

    def _shardable(self) -> bool:
        """Whether population evaluation may leave the parent process.

        ``sequential`` replays the seed path and ``real_qc`` consumes the
        backend's rng stream in population order; both stay on the inherited
        in-process implementations.
        """
        if self.mode != "batched":
            return False
        return self.estimator.resolve_mode(self.supercircuit.n_qubits) != "real_qc"

    # -- scheduling ----------------------------------------------------------

    def _evaluate_population(self, candidates: list, payload: dict) -> List[float]:
        groups = self._plan_groups(candidates)
        parameters = np.array(self.supercircuit.parameters, dtype=float)

        def with_candidates(items) -> list:
            return [
                (key, indices, [candidates[i] for i in indices])
                for key, indices in items
            ]

        def assemble(outputs: Dict[int, list]) -> List[float]:
            scores = [0.0] * len(candidates)
            for shard_index in sorted(outputs):
                for index, score in outputs[shard_index]:
                    scores[index] = score
            return scores

        def in_process() -> List[float]:
            # Group-at-a-time in the parent, in population order (contract
            # rule 1): when sharding is not worth a dispatch (``workers <=
            # 1``, tiny populations) and when a generation degrades after a
            # worker fault — exactly the floats the sharded path produces.
            return assemble(
                {0: _score_groups(self, with_candidates(groups.items()), payload)}
            )

        shards = [
            _GroupShard(parameters, with_candidates(shard), payload)
            for shard in self._plan_shards(groups)
        ]
        populations_before = self.stats.populations
        candidates_before = self.stats.candidates
        scores = self._run_dispatch(
            shards, in_process, assemble, candidates=len(candidates)
        )
        # one generation counts exactly once, however the work was split
        # between groups, shard merges and in-process confirmation runs
        self.stats.populations = populations_before + 1
        self.stats.candidates = candidates_before + len(candidates)
        return scores

    def _plan_groups(self, candidates: list) -> "OrderedDict[Tuple, List[int]]":
        """Population indices per structure group (genome gene), stably keyed."""
        groups: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for index, candidate in enumerate(candidates):
            groups.setdefault(tuple(candidate.config.as_gene()), []).append(index)
        return groups

    def _plan_shards(
        self, groups: "OrderedDict[Tuple, List[int]]"
    ) -> List[List[Tuple[Tuple, List[int]]]]:
        """Deterministic group→shard assignment (contract rule 2).

        Largest groups are placed first (sorted key as tie-break) onto the
        least-loaded shard.  ``shard_min_group_size`` caps the shard count so
        a tiny population is not spread thinner than one process dispatch is
        worth; one shard means "stay in-process".
        """
        n_candidates = sum(len(indices) for indices in groups.values())
        shard_count = min(
            self.workers,
            len(groups),
            max(1, n_candidates // self.shard_min_group_size),
        )
        if shard_count <= 1:
            return [list(groups.items())]
        ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
        shards: List[List[Tuple[Tuple, List[int]]]] = [[] for _ in range(shard_count)]
        loads = [0] * shard_count
        for key, indices in ordered:
            target = min(range(shard_count), key=lambda s: (loads[s], s))
            shards[target].append((key, indices))
            loads[target] += len(indices)
        for shard in shards:
            shard.sort(key=lambda item: item[0])
        return shards
