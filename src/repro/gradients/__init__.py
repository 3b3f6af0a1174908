"""Batched and sharded parameter-shift gradient engines.

The hardware-compatible training mode (Table V) evaluates ``2 * num_weights
+ 1`` circuits per gradient — one structure under many weight vectors, which
is exactly the workload :mod:`repro.backends` batches for population
evaluation.  This package routes the full shift-rule gradient through the
backend dispatcher (:class:`BatchedGradientEngine`) and shards its
evaluation rows across persistent worker processes
(:class:`ShardedGradientEngine`) under the same bit-for-bit determinism
contract as the population scheduler.
"""

from .engine import (
    BatchedGradientEngine,
    GradientEngineConfig,
    GradientEngineStats,
    gradient_engine,
)
from .sharded import GradientShardStats, ShardedGradientEngine

__all__ = [
    "BatchedGradientEngine",
    "GradientEngineConfig",
    "GradientEngineStats",
    "GradientShardStats",
    "ShardedGradientEngine",
    "gradient_engine",
]
