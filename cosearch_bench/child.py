"""One repetition of one workload, in a fresh process.

Usage (the benchmark's ``run.py`` spawns this; it is not meant to be run by
hand)::

    python3 cosearch_bench/child.py WORKLOAD SEED MODE

``MODE`` is ``fast`` (timed, untraced), ``traced`` (timers wrapped around the
program's public functions) or ``oracle`` (the sequential reference paths).
Times are CPU seconds of this process and the workers it has joined: set-up
runs from the start of the process to the first stage, and the repetition
from the first stage to the last result.  The last line of standard output
is one JSON object describing the repetition.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

from ledger import SAMPLED_SPANS, Tracer, layer_metrics
from workloads import Timeline, run_workload


def zgemm_gflops(n: int = 256, calls: int = 8, trials: int = 5) -> float:
    """Best complex128 matmul rate over a few trials: the host's peak."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            a @ a
        best = min(best, time.perf_counter() - start)
    return calls * 8.0 * n**3 / best / 1e9


def cpu_seconds() -> float:
    """User and system CPU seconds of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def peak_rss_mb() -> float:
    """Largest RSS of this process or any worker it has reaped (KiB -> MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv) -> dict:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = Tracer().install() if mode == "traced" else None
    try:
        timeline = Timeline(
            cpu_seconds,
            on_begin=tracer.start if tracer else None,
            on_end=tracer.stop if tracer else None,
        )
        summary = run_workload(workload, seed, mode == "oracle", timeline)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "setup_s": timeline.begin_at,
        "cpu_s": timeline.elapsed,
        "stages": timeline.stages,
        "peak_rss_mb": peak_rss_mb(),
        "summary": summary,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, summary["candidates"], zgemm_gflops()
        )
        record["samples"] = {
            span: tracer.durations.get(span, []) for span in SAMPLED_SPANS
        }
        record["samples"]["gradients.step"] = tracer.gradient_steps
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
