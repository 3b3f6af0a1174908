"""Timers wrapped around the program's public functions, and the ledger they feed.

The program carries no instrumentation for this benchmark.  A traced
repetition replaces selected public functions and methods of ``repro`` with
timing wrappers (:meth:`Tracer.install`), runs the workload, and puts every
original back (:meth:`Tracer.uninstall`).

Every wrapper opens a frame on one stack.  A frame's *exclusive* time is its
duration minus the durations of the frames opened directly inside it, and it
is charged to the frame's ledger row (its layer).  The exclusive times of all
frames plus the time spent outside every frame (the ``unattributed`` row)
therefore add up to the traced wall exactly, however the layers nest.

Counters come from two places: per-call deltas of plain integer counters
(simulation backends), and the stats objects of every cache, engine and
service instance a wrapper saw, summed once the workload has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ledger rows, in report order; ``unattributed`` is the wall outside every frame
LAYERS = (
    "core",
    "execution",
    "execution.scheduler",
    "transpile",
    "backends.density",
    "backends.statevector",
    "gradients",
    "quantum",
    "devices",
    "service",
)

#: (span name, ledger row, module, attribute path) of every wrapped callable.
#: Span names group callables whose calls count as one kind of work; a call
#: nested inside a call of the same span name is timed (for the ledger) but
#: not counted again.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.train_supercircuit", "core", "repro.core.trainer", "train_supercircuit_qml"),
    ("core.train_supercircuit", "core", "repro.core.trainer", "train_supercircuit_vqe"),
    ("core.search", "core", "repro.core.evolution", "EvolutionEngine.search"),
    ("core.search", "core", "repro.core.evolution", "SearchRun.step"),
    ("core.train_subcircuit", "core", "repro.core.trainer", "train_subcircuit_qml"),
    ("core.train_subcircuit", "core", "repro.core.trainer", "train_subcircuit_vqe"),
    ("core.prune", "core", "repro.core.pruning", "iterative_prune_qnn"),
    ("core.prune", "core", "repro.core.pruning", "iterative_prune_vqe"),
    ("execution.population", "execution", "repro.execution.engine",
     "ExecutionEngine.evaluate_qml_population"),
    ("execution.population", "execution", "repro.execution.engine",
     "ExecutionEngine.evaluate_vqe_population"),
    ("execution.population", "execution", "repro.execution.scheduler",
     "ShardedExecutionEngine.evaluate_qml_population"),
    ("execution.population", "execution", "repro.execution.scheduler",
     "ShardedExecutionEngine.evaluate_vqe_population"),
    ("execution.scheduler", "execution.scheduler", "repro.execution.resilience",
     "ResilientDispatcher.run"),
    ("execution.scheduler", "execution.scheduler", "repro.execution.resilience",
     "WorkerPoolGroup.ensure"),
    ("execution.scheduler", "execution.scheduler", "repro.execution.resilience",
     "WorkerPoolGroup.close"),
    ("execution.scheduler", "execution.scheduler", "repro.execution.cache",
     "TranspileCache.adopt_entries"),
    ("execution.scheduler", "execution.scheduler", "repro.execution.cache",
     "ParametricTranspileCache.adopt_entries"),
    ("transpile.cache", "transpile", "repro.execution.cache", "TranspileCache.get"),
    ("transpile.cache", "transpile", "repro.execution.cache",
     "ParametricTranspileCache.get_structure"),
    ("transpile.cache", "transpile", "repro.execution.cache",
     "ParametricTranspileCache.get_bound"),
    ("transpile.cache", "transpile", "repro.execution.cache",
     "ParametricTranspileCache.get_bound_batch"),
    ("transpile.cache", "transpile", "repro.execution.cache",
     "ParametricTranspileCache.bind_rows"),
    ("backends.density", "backends.density", "repro.backends.density",
     "DensityMatrixBackend.run_group"),
    ("backends.density", "backends.density", "repro.backends.density",
     "DensityMatrixBackend.synchronize"),
    ("backends.statevector", "backends.statevector", "repro.backends.statevector",
     "StatevectorBackend.run_group"),
    ("gradients.rows", "gradients", "repro.gradients.engine",
     "BatchedGradientEngine.vqe_energy_rows"),
    ("quantum.adjoint", "quantum", "repro.quantum.autodiff", "adjoint_gradient"),
    ("devices.evaluate", "devices", "repro.devices.backend", "QuantumBackend.run"),
    ("devices.evaluate", "devices", "repro.devices.backend",
     "QuantumBackend.run_parameterized"),
    ("devices.evaluate", "devices", "repro.devices.backend",
     "QuantumBackend.run_compiled"),
    ("service.round", "service", "repro.service.service", "CoSearchService.step"),
    ("service.admin", "service", "repro.service.service", "CoSearchService.submit"),
    ("service.admin", "service", "repro.service.service", "CoSearchService.close"),
)

#: integer attributes read before and after every backend call; the
#: difference is the work that call did
_BACKEND_COUNTERS = {
    "backends.density": (
        ("jobs_run", "density.circuits"),
        ("runner.template_batches_run", "density.template_batches"),
    ),
    "backends.statevector": (("batches_run", "statevector.batches"),),
}

#: which instances each span registers for end-of-run stats (by its first
#: argument, ``self``)
_REGISTERS = {
    "execution.population": "engines",
    "transpile.cache": "caches",
    "gradients.rows": "gradient_engines",
    "service.round": "services",
}


def _read(obj, dotted: str) -> int:
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return int(obj)


class _Patch:
    """One replaced attribute, restorable exactly."""

    __slots__ = ("owner", "attr", "original", "owned")

    def __init__(self, owner, attr: str, original, owned: bool) -> None:
        self.owner = owner
        self.attr = attr
        self.original = original
        #: whether the attribute lived in ``owner.__dict__`` (an inherited
        #: method is restored by deleting the shadowing wrapper)
        self.owned = owned

    def restore(self) -> None:
        if self.owned:
            setattr(self.owner, self.attr, self.original)
        else:
            delattr(self.owner, self.attr)


class Tracer:
    """Wraps callables with timers and partitions the traced wall by layer.

    ``clock`` is injectable so tests can drive the partition with a
    deterministic clock.  Recording happens only between :meth:`start` and
    :meth:`stop`; outside that window the wrappers call straight through.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        #: exclusive seconds per ledger row and per span name
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.span_exclusive: Dict[str, float] = defaultdict(float)
        #: span name -> duration of every call not nested in a same-name call
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)
        self.instances: Dict[str, Dict[int, object]] = defaultdict(dict)
        self.gradient_steps: List[float] = []
        #: worker-seconds available to sharded generations (wall x workers)
        self.sharded_worker_seconds = 0.0
        self.window: Optional[Tuple[float, float]] = None
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[_Patch] = []

    # -- installing -----------------------------------------------------------

    def install(
        self,
        targets: Sequence[Tuple[str, str, str, str]] = TARGETS,
    ) -> "Tracer":
        """Replace every target with a timing wrapper.

        A module-level function is replaced wherever a loaded module bound
        it by name (``from x import f`` copies the reference), so callers
        that imported it before installation see the wrapper too.
        """
        functions: Dict[int, Tuple[object, Callable]] = {}
        for span, layer, module_name, path in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, layer, original)
            if parents:
                owned = attr in vars(owner)
                self._patches.append(_Patch(owner, attr, original, owned))
                setattr(owner, attr, wrapper)
            else:
                functions[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append(_Patch(module, name, value, True))
                    setattr(module, name, hit[1])
        return self

    def uninstall(self) -> None:
        """Put every original back (newest patch first) and stop recording."""
        self.active = False
        while self._patches:
            self._patches.pop().restore()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- the traced window ----------------------------------------------------

    def start(self) -> None:
        self.window = (self.clock(), 0.0)
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.window = (self.window[0], self.clock())

    @property
    def wall(self) -> float:
        return self.window[1] - self.window[0]

    def ledger(self) -> Dict[str, float]:
        """Exclusive seconds per layer plus ``unattributed``; sums to :attr:`wall`."""
        rows = {layer: float(self.exclusive.get(layer, 0.0)) for layer in LAYERS}
        for layer, seconds in self.exclusive.items():
            rows.setdefault(layer, float(seconds))
        rows["unattributed"] = self.wall - sum(rows.values())
        return rows

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, span: str, layer: str, original: Callable) -> Callable:
        tracer = self
        counters = _BACKEND_COUNTERS.get(layer, ())
        registry = _REGISTERS.get(span)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            before = [_read(args[0], attr) for attr, _name in counters]
            depth = tracer._depth[span]
            tracer._depth[span] = depth + 1
            frame = [tracer.clock(), 0.0]
            tracer._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer.clock() - frame[0]
                tracer._stack.pop()
                tracer._depth[span] = depth
                tracer.exclusive[layer] += duration - frame[1]
                tracer.span_exclusive[span] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if depth == 0:
                    tracer.durations[span].append(duration)
            for (attr, name), value in zip(counters, before):
                tracer.counters[name] += _read(args[0], attr) - value
            if registry is not None:
                tracer.instances[registry][id(args[0])] = args[0]
            if depth == 0:
                tracer._observe(span, args, duration)
            return result

        return wrapper

    def _observe(self, span: str, args: tuple, duration: float) -> None:
        """Span-specific bookkeeping after an outermost call."""
        if span == "execution.population":
            reports = getattr(args[0], "last_shard_reports", None)
            if reports:
                self.counters["scheduler.worker_busy_s"] += sum(
                    report["elapsed_seconds"] for report in reports
                )
                self.sharded_worker_seconds += duration * args[0].workers
        elif span == "gradients.rows":
            rows = args[3] if len(args) > 3 else None
            # a shift-rule step evaluates the center row plus shifted rows;
            # single-row calls are plain energy evaluations
            if rows is not None and len(rows) > 1:
                self.gradient_steps.append(duration)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition
# ---------------------------------------------------------------------------

#: every per-layer metric the benchmark reports, with its unit; the
#: ``*_ms_*`` percentiles, ``gradients.step_samples`` and
#: ``ledger.tracing_overhead`` are computed across a run's repetitions
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.train_supercircuit_s", "s"),
    ("core.search_s", "s"),
    ("core.evolution_self_s", "s"),
    ("core.train_subcircuit_s", "s"),
    ("core.prune_s", "s"),
    ("core.candidates_evaluated", "count"),
    ("execution.population_s", "s"),
    ("execution.populations", "count"),
    ("execution.population_ms_p50", "ms"),
    ("execution.config_groups", "count"),
    ("execution.fused_segments", "count"),
    ("transpile.compile_s", "s"),
    ("transpile.bind_s", "s"),
    ("transpile.structure_hit_rate", "ratio"),
    ("transpile.bind_hit_rate", "ratio"),
    ("transpile.fallback_rate", "ratio"),
    ("transpile.fallbacks", "count"),
    ("transpile.bind_evictions", "count"),
    ("backends.density.run_s", "s"),
    ("backends.density.circuits", "count"),
    ("backends.density.template_batches", "count"),
    ("backends.density.circuits_per_s", "1/s"),
    ("backends.statevector.run_s", "s"),
    ("backends.statevector.batches", "count"),
    ("host.zgemm_gflops", "GFLOP/s"),
    ("gradients.step_s", "s"),
    ("gradients.steps", "count"),
    ("gradients.step_ms_p50", "ms"),
    ("gradients.step_ms_tail", "ms"),
    ("gradients.step_ms_tail_pct", "%"),
    ("gradients.step_samples", "count"),
    ("gradients.rows_evaluated", "count"),
    ("gradients.template_rows", "count"),
    ("gradients.fallback_rows", "count"),
    ("gradients.template_row_share", "ratio"),
    ("gradients.train_steps_per_s", "1/s"),
    ("quantum.adjoint_s", "s"),
    ("devices.evaluate_s", "s"),
    ("execution.scheduler.shards_dispatched", "count"),
    ("execution.scheduler.sharded_generations", "count"),
    ("execution.scheduler.in_process_generations", "count"),
    ("execution.scheduler.worker_busy_s", "s"),
    ("execution.scheduler.parallel_efficiency", "ratio"),
    ("execution.scheduler.adopted_entries", "count"),
    ("execution.resilience.retried_shards", "count"),
    ("execution.resilience.worker_failures", "count"),
    ("execution.resilience.degraded_generations", "count"),
    ("service.rounds", "count"),
    ("service.round_ms_p50", "ms"),
    ("service.admission_wait_rounds", "count"),
    ("service.simulator_s", "s"),
    ("ledger.wall_s", "s"),
) + tuple((f"ledger.{layer}_s", "s") for layer in LAYERS + ("unattributed",)) + (
    ("ledger.unattributed_share", "ratio"),
    ("ledger.tracing_overhead", "ratio"),
)

#: span name -> the per-call duration samples a run pools across repetitions
SAMPLED_SPANS = ("execution.population", "service.round")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _stat_sum(objects, attr: str, fields: Sequence[str]) -> Dict[str, float]:
    totals = {field: 0.0 for field in fields}
    for obj in objects:
        stats = getattr(obj, attr, None)
        if stats is None:
            continue
        for field in fields:
            totals[field] += getattr(stats, field)
    return totals


def layer_metrics(tracer: Tracer, candidates: int, zgemm_gflops: float) -> Dict[str, float]:
    """Per-layer values of one traced repetition (pooled metrics excluded)."""
    seconds = {span: sum(values) for span, values in tracer.durations.items()}
    metrics: Dict[str, float] = {
        "core.train_supercircuit_s": seconds.get("core.train_supercircuit", 0.0),
        "core.search_s": seconds.get("core.search", 0.0),
        "core.evolution_self_s": tracer.span_exclusive.get("core.search", 0.0),
        "core.train_subcircuit_s": seconds.get("core.train_subcircuit", 0.0),
        "core.prune_s": seconds.get("core.prune", 0.0),
        "core.candidates_evaluated": candidates,
        "execution.population_s": seconds.get("execution.population", 0.0),
        "execution.populations": len(tracer.durations.get("execution.population", ())),
        "quantum.adjoint_s": seconds.get("quantum.adjoint", 0.0),
        "devices.evaluate_s": seconds.get("devices.evaluate", 0.0),
        "host.zgemm_gflops": zgemm_gflops,
    }

    engines = list(tracer.instances["engines"].values())
    work = _stat_sum(engines, "stats", ("config_groups", "fused_segments"))
    metrics["execution.config_groups"] = work["config_groups"]
    metrics["execution.fused_segments"] = work["fused_segments"]

    caches = list(tracer.instances["caches"].values())
    parametric = [c for c in caches if hasattr(c.stats, "bind_seconds")]
    bound = [c for c in caches if not hasattr(c.stats, "bind_seconds")]
    p = _stat_sum(parametric, "stats", (
        "compile_seconds", "bind_seconds", "structure_hits", "structure_misses",
        "bind_hits", "bind_misses", "fallbacks", "bind_evictions",
    ))
    b = _stat_sum(bound, "stats", ("compile_seconds",))
    metrics.update({
        "transpile.compile_s": p["compile_seconds"] + b["compile_seconds"],
        "transpile.bind_s": p["bind_seconds"],
        "transpile.structure_hit_rate": _ratio(
            p["structure_hits"], p["structure_hits"] + p["structure_misses"]
        ),
        "transpile.bind_hit_rate": _ratio(
            p["bind_hits"], p["bind_hits"] + p["bind_misses"]
        ),
        "transpile.fallback_rate": _ratio(
            p["fallbacks"], p["bind_hits"] + p["bind_misses"]
        ),
        "transpile.fallbacks": p["fallbacks"],
        "transpile.bind_evictions": p["bind_evictions"],
    })

    density_s = seconds.get("backends.density", 0.0)
    circuits = tracer.counters.get("density.circuits", 0)
    metrics.update({
        "backends.density.run_s": density_s,
        "backends.density.circuits": circuits,
        "backends.density.template_batches": tracer.counters.get(
            "density.template_batches", 0
        ),
        "backends.density.circuits_per_s": _ratio(circuits, density_s),
        "backends.statevector.run_s": seconds.get("backends.statevector", 0.0),
        "backends.statevector.batches": tracer.counters.get("statevector.batches", 0),
    })

    g = _stat_sum(
        tracer.instances["gradient_engines"].values(), "stats",
        ("rows_evaluated", "template_rows", "fallback_rows"),
    )
    steps = len(tracer.gradient_steps)
    metrics.update({
        "gradients.step_s": sum(tracer.gradient_steps),
        "gradients.steps": steps,
        "gradients.rows_evaluated": g["rows_evaluated"],
        "gradients.template_rows": g["template_rows"],
        "gradients.fallback_rows": g["fallback_rows"],
        "gradients.template_row_share": _ratio(
            g["template_rows"], g["template_rows"] + g["fallback_rows"]
        ),
        "gradients.train_steps_per_s": _ratio(
            steps, seconds.get("core.train_subcircuit", 0.0)
        ) if steps else 0.0,
    })

    s = _stat_sum(engines, "scheduler_stats", (
        "shards_dispatched", "sharded_generations", "in_process_generations",
        "adopted_bound_entries", "adopted_structures", "adopted_parametric_bound",
        "retried_shards", "worker_failures", "degraded_generations",
    ))
    busy = tracer.counters.get("scheduler.worker_busy_s", 0.0)
    metrics.update({
        "execution.scheduler.shards_dispatched": s["shards_dispatched"],
        "execution.scheduler.sharded_generations": s["sharded_generations"],
        "execution.scheduler.in_process_generations": s["in_process_generations"],
        "execution.scheduler.worker_busy_s": busy,
        "execution.scheduler.parallel_efficiency": _ratio(
            busy, tracer.sharded_worker_seconds
        ),
        "execution.scheduler.adopted_entries": (
            s["adopted_bound_entries"] + s["adopted_structures"]
            + s["adopted_parametric_bound"]
        ),
        "execution.resilience.retried_shards": s["retried_shards"],
        "execution.resilience.worker_failures": s["worker_failures"],
        "execution.resilience.degraded_generations": s["degraded_generations"],
    })

    services = list(tracer.instances["services"].values())
    metrics.update({
        "service.rounds": sum(service.rounds for service in services),
        "service.admission_wait_rounds": sum(
            handle.activated_round - handle.submitted_round
            for service in services
            for handle in service.handles.values()
            if handle.activated_round is not None
        ),
        "service.simulator_s": sum(
            stats.simulator_seconds
            for service in services
            for stats in service.tenant_stats.values()
        ),
    })

    rows = tracer.ledger()
    metrics["ledger.wall_s"] = tracer.wall
    for layer, value in rows.items():
        metrics[f"ledger.{layer}_s"] = value
    metrics["ledger.unattributed_share"] = _ratio(rows["unattributed"], tracer.wall)
    return {name: float(value) for name, value in metrics.items()}
