"""Tests of the benchmark itself (not of the program it measures).

Run from the root of the repository::

    python3 -m pytest cosearch_bench/bench_selftest.py -q

The file name keeps these tests out of a bare ``pytest`` collection of the
repository; the last test runs real traced repetitions (about half a minute).
"""

from __future__ import annotations

import copy
import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- the ledger partitions a nested call tree exactly -----------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def synthetic_tree():
    """A module whose calls advance a fake clock by known amounts."""
    clock = FakeClock()
    module = types.ModuleType("synthetic_tree")

    def leaf(depth=0):
        clock.advance(2.0)
        if depth:
            module.leaf(depth - 1)

    def middle():
        clock.advance(1.0)
        module.leaf()
        clock.advance(3.0)
        module.leaf(depth=1)

    class Top:
        def run(self):
            clock.advance(5.0)
            middle_ref()

    module.leaf, module.middle, module.Top = leaf, middle, Top

    def middle_ref():
        # resolves through the module namespace, as a caller's global would
        module.middle()

    sys.modules[module.__name__] = module
    targets = (
        ("t.top", "top", "synthetic_tree", "Top.run"),
        ("t.middle", "middle", "synthetic_tree", "middle"),
        ("t.leaf", "leaf", "synthetic_tree", "leaf"),
    )
    yield module, clock, targets
    del sys.modules[module.__name__]


def test_ledger_partitions_nested_calls_exactly(synthetic_tree):
    module, clock, targets = synthetic_tree
    tracer = ledger.Tracer(clock=clock)
    with tracer.install(targets):
        tracer.start()
        clock.advance(0.5)
        module.Top().run()
        clock.advance(0.25)
        tracer.stop()
    rows = tracer.ledger()
    assert tracer.wall == 15.75
    assert rows["top"] == 5.0
    assert rows["middle"] == 4.0
    assert rows["leaf"] == 6.0
    assert rows["unattributed"] == 0.75
    assert sum(rows.values()) == tracer.wall
    # the nested leaf call is timed for the ledger but not counted twice
    assert tracer.durations["t.leaf"] == [2.0, 4.0]
    assert tracer.durations["t.top"] == [15.0]


def test_calls_outside_the_window_are_not_recorded(synthetic_tree):
    module, clock, targets = synthetic_tree
    tracer = ledger.Tracer(clock=clock)
    with tracer.install(targets):
        module.leaf()
    assert not tracer.durations and not tracer.exclusive


# -- wrappers are removed after a traced run ---------------------------------


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _bindings(originals):
    """Every (module, name) that binds one of the original functions."""
    ids = {id(fn) for fn in originals}
    return {
        (module.__name__, name)
        for module in list(sys.modules.values())
        for name, value in list(getattr(module, "__dict__", {}).items())
        if id(value) in ids
    }


def test_wrappers_are_removed_after_the_traced_run():
    importlib.import_module("repro.service")
    originals = [_resolve(m, p) for _s, _l, m, p in ledger.TARGETS]
    bound_before = _bindings(originals)
    tracer = ledger.Tracer().install()
    assert _resolve("repro.vqe.vqe", "adjoint_gradient") is not originals[
        [p for *_x, p in ledger.TARGETS].index("adjoint_gradient")
    ]
    tracer.uninstall()
    for (_s, _l, module, path), original in zip(ledger.TARGETS, originals):
        assert _resolve(module, path) is original, path
    assert _bindings(originals) == bound_before
    tracer.uninstall()  # idempotent


# -- the output check catches a perturbed score ------------------------------


def _qml_summary():
    return {
        "history": [[1.2, 1.2, 1.4], [1.1, 1.1, 1.3]],
        "best_gene": [2, 4, 4, 1, 0, 3, 2],
        "best_score": 1.1,
        "evaluated": 30,
        "noise_free": {"loss": 1.0, "accuracy": 0.5, "n_samples": 8.0},
        "measured": {"loss": 1.3, "accuracy": 0.375, "n_samples": 8.0},
        "measured_pruned": {"loss": 1.35, "accuracy": 0.375, "n_samples": 8.0},
        "candidates": 30,
    }


def _vqe_summary():
    summary = _qml_summary()
    for key in ("noise_free", "measured", "measured_pruned"):
        del summary[key]
    summary.update(
        energies=[-0.3, -0.4, -0.5], noise_free_energy=-0.5, pruned_energy=-0.45,
        measured_energy=-0.48, measured_energy_pruned=-0.44, ground_energy=-1.85,
        shot_tolerance=0.3,
    )
    return summary


@pytest.mark.parametrize("workload, make, path", [
    ("qml_noise_sim", _qml_summary, ("best_score",)),
    ("qml_noise_sim", _qml_summary, ("history", 1, 2)),
    ("qml_noise_sim", _qml_summary, ("measured", "loss")),
    ("vqe_pshift", _vqe_summary, ("energies", 2)),
    ("vqe_pshift", _vqe_summary, ("measured_energy",)),
])
def test_a_perturbed_score_is_caught(workload, make, path):
    oracle = make()
    assert workloads.check(workload, copy.deepcopy(oracle), oracle) == {workload: []}
    rep = copy.deepcopy(oracle)
    target = rep
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += 1e-6
    assert workloads.check(workload, rep, oracle)[workload]


def test_physics_sanity_and_crashes_fail_units():
    oracle = _vqe_summary()
    below = copy.deepcopy(oracle)
    below["energies"][2] = oracle["energies"][2] = -2.0
    assert workloads.check("vqe_pshift", below, oracle)["vqe_pshift"]
    crashed = workloads.check("service_success_rate", None, {})
    assert sorted(crashed) == sorted(workloads.SERVICE_TENANTS)
    assert all(crashed.values())


# -- the benchmark's own contract --------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        ledger.PER_LAYER
    )


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "qml_noise_sim", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


# -- counters repeat exactly between two traced runs -------------------------


def _traced(workload: str) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, "0", "traced"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=run.CHILD_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload, counters", [
    ("vqe_pshift", ("transpile.fallbacks", "gradients.rows_evaluated",
                    "gradients.steps", "gradients.fallback_rows",
                    "execution.scheduler.shards_dispatched")),
    ("service_success_rate", ("execution.scheduler.shards_dispatched",
                              "service.rounds", "core.candidates_evaluated")),
])
def test_counters_repeat_between_traced_runs(workload, counters):
    first, second = _traced(workload), _traced(workload)
    for name in counters:
        assert first[name] == second[name], name
    if workload == "vqe_pshift":
        assert first["transpile.fallbacks"] > 0
        assert first["execution.scheduler.shards_dispatched"] == 0
    else:
        assert first["execution.scheduler.shards_dispatched"] > 0
    assert first["ledger.unattributed_share"] < 0.10
