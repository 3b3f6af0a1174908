"""End-to-end co-search benchmark: run one workload for a fixed time.

Usage, from the root of the repository::

    python3 cosearch_bench/run.py --workload qml_noise_sim --seed 0 \\
        --seconds 30 --trace 0

The oracle (the sequential reference paths) runs once for the seed, and
repetitions run back to back, each in a fresh process, until ``--seconds``
have passed; every repetition's outputs are checked against the oracle.  A
single-process workload runs one repetition per core side by side (at most
two), with the oracle overlapping them on the last core; the service
workload, whose workers use every core, runs its oracle first and its
repetitions one at a time.

With ``--trace 0`` the end-to-end metrics are means over the repetitions.
Their times are CPU seconds of the repetition's process and its workers: on
a shared host the wall clock of the same run moves by a factor of two with
the neighbours' load, CPU seconds do not.  With ``--trace 1`` every other
repetition is traced (timers wrapped around the program's public
functions), the per-layer ledger is printed, and the per-layer metrics are
medians over the traced repetitions.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ledger import LAYERS, PER_LAYER, SAMPLED_SPANS
from workloads import PROCESSES, WORKLOADS, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a repetition that has not finished after this long is killed and failed
CHILD_TIMEOUT_S = 60.0
#: oversubscription guard: one BLAS thread per process, since the service
#: workload runs two workers on a two-core host
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: cores that run repetitions of a single-process workload side by side,
#: one pinned to each.  Each core of a shared host switches between a fast
#: and a slow speed every few seconds, independently of the others, so a run
#: on one core measures that core's luck; side by side, every run averages
#: the cores at every moment.  At most two, which bounds memory.
CORES = sorted(os.sched_getaffinity(0))[:2]

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "search_candidates_per_cpu_s": "1/s",
}


def child_env() -> Dict[str, str]:
    """The environment every repetition runs in.

    Every ``REPRO_*`` variable (workers, backend override, tracing, fault
    injection, sanitizer) is removed, so a shell set up for a CI lane cannot
    make the benchmark measure a different program.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


#: repetitions running now; when the benchmark exits it sets ``STOPPING``
#: and kills what is left, and no repetition starts after that
LIVE: Set[subprocess.Popen] = set()
LIVE_LOCK = threading.Lock()
STOPPING = threading.Event()


def kill(process: subprocess.Popen) -> None:
    """Kill a repetition's whole process group, workers included, and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def run_child(
    workload: str, seed: int, mode: str, core: Optional[int] = None
) -> Optional[dict]:
    """One repetition in a fresh process, pinned to ``core`` if one is given;
    ``None`` when it failed."""
    with LIVE_LOCK:
        if STOPPING.is_set():
            return None
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        LIVE.add(process)
    try:
        if core is not None:
            os.sched_setaffinity(process.pid, {core})
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[bench] {mode} repetition timed out", file=sys.stderr)
        return None
    finally:
        # a timed-out or interrupted repetition is killed, workers included
        if process.returncode is None:
            kill(process)
        with LIVE_LOCK:
            LIVE.discard(process)
    if process.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        print(f"[bench] {mode} repetition exited {process.returncode}",
              file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (>= the median)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """Means over repetitions; search throughput pools the run's searches.

    A repetition's CPU seconds are bimodal: its core ran fast or slow (about
    35% apart) for most of it.  A run's median jumps between the two modes
    with the share of fast repetitions, while its mean follows that share
    smoothly, so timings are means.
    """
    candidates = sum(rep["summary"]["candidates"] for rep in reps)
    search_s = sum(rep["stages"]["search"] for rep in reps)
    return {
        "cpu_s": statistics.fmean(rep["cpu_s"] for rep in reps),
        "setup_s": statistics.fmean(rep["setup_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "search_candidates_per_cpu_s": candidates / search_s,
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Medians over traced repetitions, with pooled duration percentiles.

    The ``ledger.*`` rows come from the traced repetition with the median
    CPU seconds, so they still sum to its traced wall exactly.
    """
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    middle = sorted(traced, key=lambda rep: rep["cpu_s"])[(len(traced) - 1) // 2]
    metrics.update(
        (name, value) for name, value in middle["layers"].items()
        if name.startswith("ledger.")
    )
    pooled = {
        span: [d for rep in traced for d in rep["samples"][span]]
        for span in SAMPLED_SPANS + ("gradients.step",)
    }
    metrics["execution.population_ms_p50"] = 1e3 * percentile(
        pooled["execution.population"], 50
    )
    metrics["service.round_ms_p50"] = 1e3 * percentile(pooled["service.round"], 50)
    steps = pooled["gradients.step"]
    tail = tail_percentile(len(steps))
    metrics["gradients.step_ms_p50"] = 1e3 * percentile(steps, 50)
    metrics["gradients.step_ms_tail"] = 1e3 * percentile(steps, tail)
    metrics["gradients.step_ms_tail_pct"] = tail
    metrics["gradients.step_samples"] = len(steps)
    metrics["ledger.tracing_overhead"] = (
        statistics.median(rep["cpu_s"] for rep in traced)
        / statistics.median(rep["cpu_s"] for rep in untraced)
    )
    return metrics


def print_ledger(workload: str, metrics: Dict[str, float]) -> None:
    wall = metrics["ledger.wall_s"]
    print(f"ledger for {workload} (exclusive seconds, traced repetition "
          "with the median CPU seconds)")
    for layer in LAYERS + ("unattributed",):
        seconds = metrics[f"ledger.{layer}_s"]
        print(f"  {layer:<22s} {seconds:9.4f} s  {100 * seconds / wall:6.2f} %")
    print(f"  {'traced wall':<22s} {wall:9.4f} s")


class Repetitions:
    """The repetitions of one run, taken by one or more slots side by side.

    A slot starts repetitions one after another until ``deadline`` has
    passed and the run has what it reports: an untraced repetition, and
    with tracing a traced one too (every other repetition started is
    traced).  A slot may first run the oracle, so that it overlaps the
    other slots' repetitions; outputs are checked once every slot is done.
    """

    def __init__(self, workload: str, seed: int, trace: bool,
                 seconds: float) -> None:
        self.workload, self.seed, self.trace = workload, seed, trace
        self.deadline = time.monotonic() + seconds
        #: past this, a run still lacking a usable repetition gives up
        self.give_up = self.deadline + 2 * seconds
        self.lock = threading.Lock()
        self.oracle: Optional[dict] = None
        #: (mode, record or None when it failed) in the order they ended
        self.ended: List[Tuple[str, Optional[dict]]] = []
        self.started = {"traced": 0, "fast": 0}
        self.overran = False

    def finished(self, mode: str) -> List[dict]:
        return [rep for m, rep in self.ended if m == mode and rep is not None]

    def _next_mode(self) -> Optional[str]:
        now = time.monotonic()
        ready = self.finished("fast") and (self.finished("traced") or not self.trace)
        if STOPPING.is_set() or (now >= self.deadline and ready):
            return None
        if now >= self.give_up:
            self.overran = True
            return None
        tracing = self.trace and self.started["fast"] > self.started["traced"]
        mode = "traced" if tracing else "fast"
        self.started[mode] += 1
        return mode

    def slot(self, core: Optional[int], oracle_first: bool = False) -> None:
        if oracle_first:
            self.oracle = run_child(self.workload, self.seed, "oracle", core)
        while True:
            with self.lock:
                mode = self._next_mode()
            if mode is None:
                return
            rep = run_child(self.workload, self.seed, mode, core)
            with self.lock:
                self.ended.append((mode, rep))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated benchmark still stops the repetition it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"[bench] no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    # single-process repetitions run one per core, and the oracle overlaps
    # them on the last core; the service's repetitions use every core, so
    # its oracle runs before them
    slots = CORES if PROCESSES[args.workload] == 1 else [None]
    overlap = len(slots) > 1
    try:
        oracle = None if overlap else run_child(args.workload, args.seed, "oracle")
        if overlap or oracle is not None:
            run = Repetitions(args.workload, args.seed, bool(args.trace),
                              args.seconds)
            threads = [
                threading.Thread(target=run.slot, daemon=True,
                                 args=(core, overlap and core == slots[-1]))
                for core in slots
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            oracle = oracle or run.oracle
    finally:
        with LIVE_LOCK:
            STOPPING.set()
            left = list(LIVE)
        for process in left:
            kill(process)
    if oracle is None:
        print("[bench] the oracle run failed; nothing to check against",
              file=sys.stderr)
        return 1
    if run.overran:
        print("[bench] no usable repetition finished", file=sys.stderr)
        return 1

    attempted = failed = 0
    for _, rep in run.ended:
        problems = check(args.workload, rep and rep["summary"], oracle["summary"])
        attempted += len(problems)
        for unit, found in problems.items():
            if found:
                failed += 1
                print(f"[bench] {unit}: " + "; ".join(found), file=sys.stderr)
    traced, untraced = run.finished("traced"), run.finished("fast")

    if args.trace:
        values = per_layer(traced, untraced)
        print_ledger(args.workload, values)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER
        }
    else:
        values = end_to_end(untraced)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
