"""Parameter-shift rows that cross a template branch stay template-bound.

The single-qubit-run re-synthesis of optimization level 2 turns a run of RY
rotations into one U3 whose real matrix gives ``phi`` either 0 or pi, so a
rotation angle changing sign flips the emitted gate sequence.  Once training
moves the center weights across such a branch, most shifted rows of a step
are rejected by the structure's first template variant.  They must still be
served by templates — never a concrete transpile — with the numbers of a
fresh concrete transpile of each row, identically under any worker count.
"""

import numpy as np
import pytest

from repro.devices import QuantumBackend
from repro.gradients import (
    BatchedGradientEngine,
    GradientEngineConfig,
    ShardedGradientEngine,
)
from repro.quantum.circuit import ParameterizedCircuit
from repro.vqe import VQEModel, load_molecule

LAYOUT = (2, 1)
#: first step's center: every rotation angle positive
WARM_CENTER = np.array([0.7, 0.4, 0.9, 0.5])
#: second step's center: both qubit-0 rotation angles changed sign
CROSSING_CENTER = np.array([-0.7, 0.4, -0.9, 0.5])


@pytest.fixture(scope="module")
def model():
    ansatz = ParameterizedCircuit(2)
    ansatz.add_trainable("ry", (0,))
    ansatz.add_trainable("ry", (1,))
    ansatz.add_fixed("cx", (0, 1))
    ansatz.add_trainable("ry", (0,))
    ansatz.add_trainable("ry", (1,))
    return VQEModel(ansatz, load_molecule("h2"))


def step_rows(engine, model, center):
    plan = engine.shift_plan(model.ansatz)
    return np.concatenate([center[None, :], plan.shifted_weight_rows(center)])


def two_steps(engine, model):
    """Energies of a warm-up step and of the branch-crossing step."""
    energies = []
    for center in (WARM_CENTER, CROSSING_CENTER):
        energies.append(
            engine.vqe_energy_rows(
                model.ansatz, model.measurement_plan,
                step_rows(engine, model, center), witness_weights=center,
            )
        )
    return energies


def test_crossing_rows_are_template_bound_and_exact(model, yorktown):
    engine = BatchedGradientEngine(
        yorktown, GradientEngineConfig(shots=0), initial_layout=LAYOUT
    )
    cache = engine.parametric_transpile_cache
    _warm, crossing = two_steps(engine, model)

    # the crossing step really did leave the first variants' branches
    assert cache.stats.variants_compiled > len(cache)
    assert engine.stats.fallback_rows == 0
    assert cache.stats.fallbacks == 0
    assert engine.stats.template_rows == 2 * len(cache) * (
        1 + 2 * model.num_weights
    )

    backend = QuantumBackend(yorktown, shots=0, seed=0)
    rows = step_rows(engine, model, CROSSING_CENTER)
    reference = [
        model.measure_energy(row, backend, initial_layout=LAYOUT) for row in rows
    ]
    np.testing.assert_allclose(crossing, reference, rtol=0, atol=1e-9)


def test_crossing_rows_bitwise_equal_across_workers(model, yorktown):
    config = GradientEngineConfig(shots=0)
    results = {}
    for workers in (1, 2):
        with ShardedGradientEngine(
            yorktown, config, initial_layout=LAYOUT, workers=workers
        ) as engine:
            results[workers] = two_steps(engine, model)
    for one, two in zip(results[1], results[2]):
        assert np.array_equal(one, two)
