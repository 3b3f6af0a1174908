"""The density backend's fused per-slot program against the sequential oracle.

Both runner paths — template batches and compiled structure groups — lower
every slot to one fused local superoperator (or an RZ phase plus deferred
noise).  Three properties lock that down on random basis circuits under
real device noise models:

* every row matches :class:`DensityMatrixSimulator` within ``1e-12``;
* every output is a density matrix (trace 1, Hermitian, PSD to ``1e-12``);
* a row's floats are **bitwise** the same alone or inside a 4-row batch —
  the pure-function-of-the-row property the worker-count and shard
  determinism contracts rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.density import BatchedDensityRunner
from repro.devices import get_device
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.density_matrix import (
    DensityMatrixSimulator,
    NoisySlotProgram,
    slot_superoperator,
)
from repro.transpile.parametric import TemplateBatchBinding

ATOL = 1e-12
ROWS = 4
DEVICES = {name: get_device(name) for name in ("yorktown", "santiago")}


class _Compiled:
    """The two members of a compiled circuit the density runner reads."""

    def __init__(self, circuit: QuantumCircuit, used_physical):
        self._reduced = (circuit, tuple(used_physical))

    def reduced_circuit(self):
        return self._reduced


class _Template:
    """The members of a parametric template a batch binding reads."""

    def __init__(self, used_qubits):
        self.used_qubits = tuple(used_qubits)


@st.composite
def noisy_cases(draw):
    """(device, used physical qubits, template slots, per-row circuits)."""
    device = DEVICES[draw(st.sampled_from(sorted(DEVICES)))]
    n = draw(st.integers(1, 5))
    used = draw(st.permutations(range(5)))[:n]
    kinds = ["sx", "x", "rz"] + (["cx"] if n > 1 else [])
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    slots, circuits = [], [QuantumCircuit(n) for _ in range(ROWS)]
    for _ in range(draw(st.integers(1, 24))):
        gate = draw(st.sampled_from(kinds))
        if gate == "cx":
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        if gate == "rz" and draw(st.booleans()):
            angles = np.array([[draw(angle)] for _ in range(ROWS)])
            slots.append((gate, qubits, angles))
            for row, circuit in enumerate(circuits):
                circuit.instructions.append(
                    Instruction(gate, qubits, (angles[row, 0],))
                )
            continue
        params = (draw(angle),) if gate == "rz" else ()
        instruction = Instruction(gate, qubits, params)
        slots.append(instruction)
        for circuit in circuits:
            circuit.instructions.append(instruction)
    return device, used, slots, circuits


def _row_slots(slots, rows):
    return [
        slot if type(slot) is Instruction else (slot[0], slot[1], slot[2][rows])
        for slot in slots
    ]


def _run_template(device, used, slots, rows=slice(None)):
    runner = BatchedDensityRunner(device, max_density_qubits=5)
    row_slots = _row_slots(slots, rows)
    n_rows = len(np.arange(ROWS)[rows])
    binding = TemplateBatchBinding(_Template(used), np.arange(n_rows), row_slots)
    job = runner.submit_template(binding)
    runner.run()
    return job.rhos


def _run_group(device, used, circuits):
    runner = BatchedDensityRunner(device, max_density_qubits=5)
    jobs = [runner.submit(_Compiled(circuit, used)) for circuit in circuits]
    runner.run()
    assert runner.batches_run == 1  # one structurally aligned group
    return np.stack([job.rho for job in jobs])


def _assert_density_matrix(rho):
    dim = int(round(np.sqrt(rho.size)))
    matrix = rho.reshape(dim, dim)
    assert abs(np.trace(matrix) - 1.0) <= ATOL
    assert np.max(np.abs(matrix - matrix.conj().T)) <= ATOL
    assert np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T)).min() >= -ATOL


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(noisy_cases())
def test_fused_runners_match_sequential_oracle(case):
    device, used, slots, circuits = case
    oracle = DensityMatrixSimulator(
        len(used), device.noise_model().reduced(used)
    )
    template = _run_template(device, used, slots)
    group = _run_group(device, used, circuits)
    for row, circuit in enumerate(circuits):
        expected = oracle.run(circuit)
        np.testing.assert_allclose(template[row], expected, rtol=0, atol=ATOL)
        np.testing.assert_allclose(group[row], expected, rtol=0, atol=ATOL)
        _assert_density_matrix(template[row])
        _assert_density_matrix(group[row])


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(noisy_cases())
def test_row_is_bitwise_independent_of_its_batch(case):
    device, used, slots, circuits = case
    batched = _run_template(device, used, slots)
    grouped = _run_group(device, used, circuits)
    for row in range(ROWS):
        alone = _run_template(device, used, slots, slice(row, row + 1))
        assert np.array_equal(alone[0], batched[row])
        assert np.array_equal(
            _run_group(device, used, circuits[row: row + 1])[0], grouped[row]
        )


def test_parametric_slot_other_than_rz_is_rejected():
    """RZ is the only parametric gate of the compiled basis."""
    noise = DEVICES["yorktown"].noise_model().reduced((0,))
    slots = [("rx", (0,), np.array([[0.3], [-1.1]]))]
    with pytest.raises(ValueError, match="only rz"):
        NoisySlotProgram(1, 2, slots, noise)


def test_fused_superoperators_are_memoized_read_only():
    noise = DEVICES["santiago"].noise_model().reduced((0, 1))
    instruction = Instruction("cx", (0, 1))
    channels = noise.channels_for(instruction)
    first = slot_superoperator("cx", (), (0, 1), channels)
    again = slot_superoperator("cx", (), (0, 1), noise.channels_for(instruction))
    assert again is first
    assert first.shape == (16, 16)
    assert not first.flags.writeable


def test_non_trace_preserving_channel_raises():
    leaky = (np.diag([1.0, 0.9]).astype(complex),)
    with pytest.raises(ValueError, match=r"sx on qubits \(0,\).*not trace"):
        slot_superoperator("sx", (), (0,), [(leaky, (0,))])


def test_program_rejects_a_non_trace_preserving_noise_model():
    leaky = (0.5 * np.eye(4, dtype=complex),)

    class LeakyTwoQubitNoise:
        def channels_for(self, instruction):
            if len(instruction.qubits) == 2:
                return [(leaky, instruction.qubits)]
            return []

    slots = [Instruction("sx", (1,)), Instruction("cx", (1, 0))]
    with pytest.raises(ValueError) as raised:
        NoisySlotProgram(2, 1, slots, LeakyTwoQubitNoise())
    message = str(raised.value)
    assert "cx on qubits (1, 0)" in message
    assert "1-operator Kraus channel on qubits (1, 0)" in message
