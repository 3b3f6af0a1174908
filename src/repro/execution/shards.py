"""The shard runtime behind both sharded engines.

The co-search scores a population's structure groups
(:class:`~repro.execution.scheduler.ShardedExecutionEngine`) and SubCircuit
training evaluates the shifted weight rows of every parameter-shift step
(:class:`~repro.gradients.sharded.ShardedGradientEngine`) on persistent
worker processes.  Both engines are small workload adapters on
:class:`ShardRuntime`, which owns everything that does not depend on the
workload.  Each worker context keeps its own caches warm across dispatches,
and after every dispatch each worker's *new* cache entries and counter
deltas merge back into the parent through the explicit
:class:`~repro.execution.stats.MergeableStats` protocol.

Determinism contract
--------------------
Results are bit-for-bit independent of the worker count.  Three rules make
that hold:

1. **The unit of evaluation is the same everywhere.**  A structure group
   (candidates sharing one SubCircuit genome) or a weight row (one shifted
   weight vector, all samples) is always evaluated through one in-process
   engine call — inside a worker, inside the parent when the dispatch does
   not shard, and inside the parent again when it degrades — so the
   simulation batches, transpile requests, template binds and cache-state
   evolution a unit sees are identical no matter where (or alongside what)
   it runs.  Changing the worker count only moves units between processes.
   The same hermeticity is what makes *retrying* a failed shard on a
   different pool bitwise safe.
2. **Shard assignment is a pure function of the dispatch.**  Structure
   groups are ordered stably (sorted genome genes) and assigned greedily
   (largest group first, key as tie-break) to the least-loaded shard; rows
   are split by ``np.array_split`` over their global indices.  Never by pool
   state, population order or prior dispatches.
3. **Randomness is pinned.**  Every shard task carries the seed
   ``stable_seed((seed, tag, i))``, and workers re-seed from the task, so a
   task retried on a surviving pool samples exactly what its home pool
   would have.  Gradient shot-job seeds and measured VQE reseeds derive
   from the *global* row labels each task ships, so a row samples the same
   under any partition; the parent and every worker gradient engine start
   from fresh caches with the step's center weights as template witness, so
   cold-compiled template variants match across processes.  No sharded
   population mode consumes the shard streams today (``real_qc``, the only
   rng-consuming estimator mode, always takes the sequential parent path),
   so that seed is defensive.

Resilience (see :mod:`repro.execution.resilience`)
--------------------------------------------------
Shard failures are classified.  *Infrastructure* faults — a broken pool, a
worker crash, a deadline timeout flagged by the watchdog — are retried with
capped exponential backoff, rebalancing the failed shard's units onto
surviving workers while every healthy shard's output is kept; killed pools
respawn in the background so later dispatches return to full width.  *Task
errors* (the evaluation itself raised) are confirmed by one in-process
re-run of the shard's unit: a transient error recovers with a warning, a
reproducing error is re-raised as the real bug it is.  Whole-dispatch
in-process degradation (``degraded_generations`` / ``degraded_steps``)
remains only as the last resort when retries are exhausted — and even then
cache entries already returned by healthy shards are adopted first, so the
retry is warm, and a fault can delay a dispatch but never change a result.

Fault injection for all of the above is first-class and deterministic:
``REPRO_FAULTS`` (see :mod:`repro.execution.faults`) injects crash / hang /
slow / flaky behavior at named worker lifecycle points in chosen shards and
dispatches of the ``execution`` or ``gradient`` engine.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..telemetry.spans import SpanRecord
from .cache import ParametricCacheStats, TranspileCacheStats, stable_seed
from .faults import FaultInjector, FaultPlan
from .resilience import (
    ResilientDispatcher,
    RetriesExhausted,
    RetryPolicy,
    WorkerPoolGroup,
)
from .stats import MergeableStats

__all__ = ["ShardContext", "ShardRuntime", "ShardStats"]


@dataclass
class ShardStats(MergeableStats):
    """The counters every sharded engine keeps.

    Subclasses add four counters named after the runtime's ``dispatch_unit``
    (``<unit>s``, ``sharded_<unit>s``, ``in_process_<unit>s`` and
    ``degraded_<unit>s``), which :meth:`ShardRuntime._count` increments.
    :class:`~repro.execution.resilience.ResilientDispatcher` increments the
    resilience fields (``worker_failures`` … ``watchdog_wait_seconds``).
    """

    shards_dispatched: int = 0
    worker_failures: int = 0
    #: infrastructure-failed shard tasks re-dispatched (retry rounds)
    retried_shards: int = 0
    #: retried tasks that ran on a pool other than their home pool
    rebalanced_shards: int = 0
    #: dead pools brought back in the background after a dispatch
    respawned_pools: int = 0
    #: shards the watchdog declared hung past their deadline
    deadline_timeouts: int = 0
    #: wall time the watchdog spent gathering deadline-bounded rounds
    watchdog_wait_seconds: float = 0.0
    #: worker task errors re-run once in-process for confirmation
    task_error_confirmations: int = 0
    #: confirmations that succeeded — transient faults recovered in place
    flaky_recoveries: int = 0
    adopted_bound_entries: int = 0
    adopted_structures: int = 0
    adopted_parametric_bound: int = 0


# ---------------------------------------------------------------------------
# Task / result payloads crossing the process boundary
# ---------------------------------------------------------------------------


# repro: pickle-boundary
@dataclass
class _ShardTask:
    """One shard's slice of a dispatch."""

    shard_index: int
    seed: int
    #: the adapter's shard unit (a ``# repro: pickle-boundary`` payload of
    #: the adapter module: structure groups or weight rows)
    work: object
    #: 0-based dispatch index (generation or step), the ``gen`` coordinate
    #: of deterministic fault scoping
    generation: int = 0
    #: dispatch attempt of this task (0 = first dispatch, +1 per retry)
    attempt: int = 0
    #: deterministic fault-injection trigger (None outside chaos runs)
    injector: Optional[FaultInjector] = None
    #: owning tenant name when dispatched through a service-shared pool
    #: (None for engine-owned pools, whose workers hold a single context)
    tenant: Optional[str] = None
    #: zero-argument factory (a ``functools.partial`` of a
    #: :class:`ShardContext` subclass) for lazily building this tenant's
    #: worker-side context.  Ships with every tenant task so a retried or
    #: rebalanced task can rebuild the context on whichever pool it lands on.
    context_spec: Optional[functools.partial] = None


# repro: pickle-boundary
@dataclass
class _ShardResult:
    """One shard's output plus the accounting deltas it produced."""

    shard_index: int
    #: the adapter's output for the unit (same form as a parent-side
    #: confirmation run of that unit produces)
    output: object
    engine_stats: object
    #: deltas of the context's counters outside any stats dataclass
    #: (see :meth:`ShardContext.counters`)
    counters: Dict[str, int]
    bound_stats: TranspileCacheStats
    parametric_stats: ParametricCacheStats
    bound_entries: list
    parametric_entries: dict
    elapsed_seconds: float = 0.0
    attempt: int = 0
    #: the worker-side telemetry spans for this shard (always captured —
    #: the parent re-ids them into its tracer when tracing is active and
    #: drops them otherwise; see ``ShardContext.run``)
    spans: List[SpanRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------


class ShardContext:
    """A worker's engine stack plus its cache-export bookkeeping.

    Subclasses build the engine, pass it and its two caches here, and
    implement :meth:`evaluate`.  ``span_name`` names the root span of every
    shard; ``dispatch_unit`` names the attribute carrying the dispatch index.
    """

    def __init__(self, engine, transpile_cache, parametric_cache) -> None:
        self.engine = engine
        self.transpile_cache = transpile_cache
        self.parametric_cache = parametric_cache
        self.exported_bound: set = set()
        self.exported_structures: set = set()
        self.exported_parametric_bound: set = set()

    def evaluate(self, task: _ShardTask) -> object:
        """The output of ``task.work``; fires ``mid_evaluation`` on the way."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Monotonic counters outside the engine stats, shipped as deltas."""
        return {}

    def fire(self, task: _ShardTask, point: str) -> None:
        if task.injector is not None:
            task.injector.fire(
                point, task.shard_index, task.generation, task.attempt
            )

    def run(self, task: _ShardTask) -> _ShardResult:
        """Evaluate one shard task, always under a telemetry capture.

        The capture runs whether or not tracing was requested — the traced
        and untraced paths are the same code, which is what makes the
        on/off bitwise determinism matrix hold by construction.  The root
        span's duration doubles as the shard's ``elapsed_seconds`` report.
        """
        self.fire(task, "task_receive")
        tracer = telemetry.get_tracer()
        with tracer.capture() as spans:
            with tracer.span(
                self.span_name,
                shard=task.shard_index,
                attempt=task.attempt,
                tenant=task.tenant,
                **{self.dispatch_unit: task.generation},
            ):
                result = self._execute(task)
        # observation-only payload riding home on the result: the parent
        # adopts the spans (or drops them) and reports elapsed_seconds —
        # nothing here feeds results, seeds or scheduling
        result.spans = spans
        result.elapsed_seconds = spans[-1].duration
        self.fire(task, "result_send")
        return result  # repro: ignore[telemetry-flow] -- span buffer + root-span elapsed ride the shard result as its observational timing report

    def _execute(self, task: _ShardTask) -> _ShardResult:
        engine_before = self.engine.stats.copy()
        bound_before = self.transpile_cache.stats.copy()
        parametric_before = self.parametric_cache.stats.copy()
        counters_before = self.counters()

        output = self.evaluate(task)

        counters = {
            name: value - counters_before[name]
            for name, value in self.counters().items()
        }
        bound_entries = self.transpile_cache.export_entries(self.exported_bound)
        parametric_entries = self.parametric_cache.export_entries(
            self.exported_structures, self.exported_parametric_bound
        )
        # Exclusion sets are refreshed from the caches (not accumulated): an
        # entry evicted worker-side and recompiled later must ship again, and
        # the sets must stay bounded by the cache sizes.
        self.exported_bound = self.transpile_cache.export_keys()
        self.exported_structures, self.exported_parametric_bound = (
            self.parametric_cache.export_keys()
        )
        return _ShardResult(
            shard_index=task.shard_index,
            output=output,
            engine_stats=self.engine.stats.diff(engine_before),
            counters=counters,
            bound_stats=self.transpile_cache.stats.diff(bound_before),
            parametric_stats=self.parametric_cache.stats.diff(parametric_before),
            bound_entries=bound_entries,
            parametric_entries=parametric_entries,
            attempt=task.attempt,
        )


#: the worker's contexts: one under ``None`` for an engine-owned pool (built
#: at spawn), one per tenant for a service-shared pool (built lazily from the
#: tasks' ``context_spec``), so tenants sharing a worker never share caches
_CONTEXTS: Dict[Optional[str], ShardContext] = {}


def _init_worker(context_spec=None, spawn_probe=None) -> None:
    """Initializer of every shard worker process.

    An engine-owned pool passes its ``context_spec`` here; a pool shared by
    many tenants (:mod:`repro.service`) passes none, and each tenant's
    context is built from its first task instead.
    """
    if spawn_probe is not None:
        injector, shard_index, generation, attempt = spawn_probe
        injector.fire("pool_spawn", shard_index, generation, attempt)
    _CONTEXTS.clear()
    if context_spec is not None:
        _CONTEXTS[None] = context_spec()


def _run_task(task: _ShardTask) -> _ShardResult:
    """The worker entry point of every shard task."""
    context = _CONTEXTS.get(task.tenant)
    if context is None:
        if task.context_spec is None:
            raise RuntimeError(
                f"shard worker has no context for tenant {task.tenant!r} and "
                "the task carries no context_spec to build one from"
            )
        context = _CONTEXTS[task.tenant] = task.context_spec()
    return context.run(task)


def _release_context(tenant: str) -> None:
    """Drop a retired tenant's context (and its caches) from this worker."""
    _CONTEXTS.pop(tenant, None)


def _ping(value: int) -> int:
    """No-op task used by warm-up pings and background pool respawns."""
    return value


# ---------------------------------------------------------------------------
# Parent-process runtime
# ---------------------------------------------------------------------------


class ShardRuntime:
    """Parent-side shard runtime, mixed into both sharded engines.

    An adapter sets ``fault_engine`` (its ``REPRO_FAULTS`` engine name),
    ``dispatch_span`` (the span opened around every dispatch, sharded or
    in-process), ``dispatch_unit`` (what one dispatch is called: span
    attribute, stats field names, warnings) and ``seed_tag`` (mixed into
    every per-shard seed, contract rule 3); implements
    :meth:`_context_spec`, :meth:`_confirm` and :meth:`_report`; calls
    :meth:`_init_shards` from its constructor; and runs each dispatch
    through :meth:`_run_dispatch`.  ``workers <= 1`` never creates a pool.

    ``pools`` + ``tenant`` put the runtime on an externally-owned
    :class:`~repro.execution.resilience.WorkerPoolGroup` (the multi-tenant
    service, spawned with :func:`_init_worker` and no context spec): shard
    tasks then carry the tenant name and the context spec, so shared workers
    keep one lazily-built context per tenant.  Results are unchanged by the
    sharing — the determinism contract makes every unit hermetic with
    respect to which process (and alongside which tenants) it runs.

    ``fault_plan`` (default: parsed from ``REPRO_FAULTS``) drives the
    deterministic chaos harness; assign a :class:`~repro.execution.faults.
    FaultPlan` before evaluating to inject faults programmatically.

    Call :meth:`close` (or use the engine's context-manager protocol) to
    shut the worker pools down.
    """

    def _init_shards(
        self,
        workers: int,
        config,
        stats: ShardStats,
        caches: Tuple[object, object],
        fault_plan: Optional[FaultPlan] = None,
        pools: Optional[WorkerPoolGroup] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.workers = int(workers)
        self.scheduler_stats = stats
        self.last_shard_reports: List[dict] = []
        self.retry_policy = RetryPolicy.from_config(config)
        self.fault_plan = (
            FaultPlan.from_env() if fault_plan is None else fault_plan
        )
        self._shard_config = config
        #: the parent's (transpile cache, parametric cache) shards merge into
        self._shard_caches = caches
        self._dispatch_index = 0
        self._released = False
        if pools is not None:
            # Externally-owned pool group: the owner closes the pools; this
            # engine never does.
            if tenant is None:
                raise ValueError(
                    "an externally-owned pool group needs a tenant name so "
                    "shared workers can keep this engine's context separate"
                )
            self.tenant = str(tenant)
            self._owns_pools = False
            self._pools = pools
            # never plan more shards than the shared group has slots;
            # size 0 keeps every dispatch on the in-process path
            self.workers = min(self.workers, pools.size)
        else:
            self.tenant = None
            self._owns_pools = True
            # One single-process pool per shard slot, so shard i always runs
            # in the same worker process: its caches stay warm across
            # dispatches (ProcessPoolExecutor's shared task queue would hand
            # a shard to whichever process grabbed it first, leaving warm
            # caches behind).
            self._pools = WorkerPoolGroup(
                max(0, self.workers), _init_worker, self._spawn_initargs
            )

    # -- adapter hooks ---------------------------------------------------------

    def _context_spec(self) -> functools.partial:
        """The factory a worker builds its :class:`ShardContext` from."""
        raise NotImplementedError

    def _confirm(self, unit) -> object:
        """Evaluate one shard unit in-process (task-error confirmation)."""
        raise NotImplementedError

    def _report(self, unit, result: _ShardResult) -> dict:
        """Adapter-specific fields of one shard's report."""
        raise NotImplementedError

    def _merge_counters(self, counters: Dict[str, int]) -> None:
        """Fold a shard's :meth:`ShardContext.counters` deltas in."""

    # -- lifecycle -----------------------------------------------------------

    def _spawn_initargs(self, shard_index: int, spawn_attempt: int) -> tuple:
        injector = self.fault_plan.injector(self.fault_engine)
        probe = (
            (injector, shard_index, self._dispatch_index, spawn_attempt)
            if injector is not None
            else None
        )
        return (self._context_spec(), probe)

    @property
    def _executors(self):
        """The per-shard pool slots (None = not spawned / killed)."""
        return self._pools.slots

    def warm_up(self) -> None:
        """Start the worker pools ahead of time.

        Benchmarks call this before timing a cold dispatch so process
        startup and worker-context construction are not mistaken for
        evaluation cost.
        """
        if self.workers > 1:
            # submit every ping before gathering so the worker startups (and
            # their context construction) overlap instead of serializing
            futures = [
                self._pools.ensure(shard_index).submit(_ping, shard_index)
                for shard_index in range(self.workers)
            ]
            for future in futures:
                future.result()

    def close(self) -> None:
        """Shut every owned worker pool down (idempotent).

        Safe to call repeatedly, from ``__exit__`` and from ``__del__`` —
        including on a partially constructed instance whose ``__init__``
        raised before the pool group existed — so interrupted benchmarks and
        aborted searches never leak worker processes.  Externally-owned
        (service-shared) pool groups are left running for their owner, but
        every live worker is told to drop this tenant's context: a retired
        tenant's estimator and caches must not outlive it there.
        """
        pools = getattr(self, "_pools", None)
        if pools is None:
            return
        if self._owns_pools:
            pools.close()
        elif not self._released:
            # Fire and forget: a slot runs its tasks in submission order, so
            # anything submitted later already sees the context gone.
            self._released = True
            for index in pools.alive_indices():
                try:
                    pools.slots[index].submit(_release_context, self.tenant)
                except (BrokenExecutor, RuntimeError):
                    pass  # a broken or shut-down worker holds no context

    def __del__(self) -> None:  # best-effort; close()/__exit__ is the real API
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------------

    def _run_dispatch(
        self,
        units: list,
        in_process: Callable[[], object],
        assemble: Callable[[Dict[int, object]], object],
        **span_attributes,
    ):
        """Run one dispatch: shard ``units`` out, or stay in-process.

        A single unit means "not worth a dispatch" and runs ``in_process()``
        in the parent, as does a dispatch whose retries were exhausted.
        Otherwise every unit's output — from its worker, or from the
        in-process confirmation of a worker task error — is handed to
        ``assemble`` by shard index.
        """
        index = self._dispatch_index = self._count("")
        with telemetry.span(
            self.dispatch_span,
            shards=len(units),
            tenant=self.tenant,
            **{self.dispatch_unit: index},
            **span_attributes,
        ):
            if len(units) <= 1:
                self._count("in_process_")
                self.last_shard_reports = []
                return in_process()
            try:
                outputs = self._run_resilient(units, index)
            except RetriesExhausted as exc:
                self._degrade(exc)
                return in_process()
            self._count("sharded_")
            return assemble(outputs)

    def _count(self, prefix: str) -> int:
        """Increment ``<prefix><dispatch_unit>s``; returns its prior value."""
        name = f"{prefix}{self.dispatch_unit}s"
        value = getattr(self.scheduler_stats, name)
        setattr(self.scheduler_stats, name, value + 1)
        return value

    def _run_resilient(self, units: list, index: int) -> Dict[int, object]:
        """Dispatch one sharded dispatch under the retry/deadline policy.

        Worker task errors get one in-process confirmation run of their
        unit; an error that reproduces in-process is re-raised: it is a real
        bug, not a fault.  Healthy results are merged into the parent.
        """
        seed = getattr(self._shard_config, "seed", 0)
        injector = self.fault_plan.injector(self.fault_engine)
        context_spec = None if self._owns_pools else self._context_spec()
        tasks = {
            shard_index: _ShardTask(
                shard_index=shard_index,
                seed=stable_seed((seed, self.seed_tag, shard_index)),
                work=unit,
                generation=index,
                injector=injector,
                tenant=self.tenant,
                context_spec=context_spec,
            )
            for shard_index, unit in enumerate(units)
        }
        stats = self.scheduler_stats
        stats.shards_dispatched += len(tasks)
        retried_before = stats.retried_shards
        dispatcher = ResilientDispatcher(
            self._pools, self.retry_policy, _run_task, _ping, stats
        )
        results, task_errors = dispatcher.run(tasks)

        outputs: Dict[int, object] = {}
        for shard_index in sorted(task_errors):
            stats.task_error_confirmations += 1
            try:
                outputs[shard_index] = self._confirm(units[shard_index])
            except Exception as confirmed_exc:
                # the error reproduces without the worker machinery: a
                # deterministic task bug — surface it, never retry it away
                raise confirmed_exc from task_errors[shard_index]
            stats.flaky_recoveries += 1
        recovered = stats.retried_shards - retried_before
        if recovered or task_errors:
            warnings.warn(
                f"sharded {self.dispatch_unit} recovered from worker faults "
                f"(retried_shards={recovered}, "
                f"confirmed_task_errors={len(task_errors)}); results unchanged",
                RuntimeWarning,
                stacklevel=5,
            )

        reports: List[dict] = []
        for shard_index in sorted(results):
            result = results[shard_index]
            outputs[shard_index] = result.output
            self._merge_shard(units[shard_index], result, reports)
        self.last_shard_reports = reports
        return outputs

    # -- merging -------------------------------------------------------------

    def _merge_shard(self, unit, result: _ShardResult, reports: List[dict]) -> None:
        if result.spans:
            # re-id the worker's span buffer into the parent tracer, hanging
            # its roots under the open dispatch span (a no-op when tracing
            # is inactive — the buffer is simply dropped)
            telemetry.adopt_spans(result.spans)
        self.stats.merge(result.engine_stats)
        self._merge_counters(result.counters)
        transpile_cache, parametric_cache = self._shard_caches
        transpile_cache.stats.merge(result.bound_stats)
        parametric_cache.stats.merge(result.parametric_stats)
        self._adopt_entries(result)
        reports.append(
            {
                "shard": result.shard_index,
                **self._report(unit, result),
                "attempts": result.attempt + 1,
                "elapsed_seconds": result.elapsed_seconds,
            }
        )

    def _adopt_entries(self, result: _ShardResult) -> None:
        transpile_cache, parametric_cache = self._shard_caches
        stats = self.scheduler_stats
        stats.adopted_bound_entries += transpile_cache.adopt_entries(
            result.bound_entries
        )
        structures, bound = parametric_cache.adopt_entries(
            result.parametric_entries
        )
        stats.adopted_structures += structures
        stats.adopted_parametric_bound += bound

    # -- degradation ----------------------------------------------------------

    def _degrade(self, exc: RetriesExhausted) -> None:
        """Account a failed dispatch and prepare the in-process retry.

        Reached only when the resilient dispatcher exhausted every retry
        round — the last resort, not the first response to a fault.
        """
        # adopt what the healthy shards compiled so the retry is warm;
        # their stats/outputs are dropped — the retry recounts everything
        for shard_index in sorted(exc.results):
            self._adopt_entries(exc.results[shard_index])
        self._count("degraded_")
        self.last_shard_reports = []
        warnings.warn(
            f"sharded {self.dispatch_unit} degraded to "
            "the in-process path after exhausting shard retries: "
            f"{exc.cause!r}",
            RuntimeWarning,
            stacklevel=5,
        )
