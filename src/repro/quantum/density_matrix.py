"""Density-matrix simulation with noise channels.

This is the backend used by the performance estimator's "simulator with a
noise model from real devices" mode and by the shot-based device backend.
Density matrices are stored as tensors of shape ``(2,) * n + (2,) * n`` so
that gates and Kraus operators are applied locally without building full
``2**n x 2**n`` unitaries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .circuit import Instruction, QuantumCircuit
from .gates import gate_matrix, gate_num_params
from .operators import PauliSum

__all__ = [
    "zero_density_matrix",
    "zero_density_matrices",
    "apply_unitary",
    "apply_unitary_batch",
    "apply_kraus",
    "apply_kraus_batch",
    "slot_superoperator",
    "NoisySlotProgram",
    "density_probabilities",
    "density_probabilities_batch",
    "expectation_pauli_sum_dm",
    "expectation_z_all_dm",
    "purity",
    "DensityMatrixSimulator",
]


def zero_density_matrix(n_qubits: int) -> np.ndarray:
    """``|0..0><0..0|`` as a rank-2n tensor."""
    rho = np.zeros((2,) * (2 * n_qubits), dtype=complex)
    rho[(0,) * (2 * n_qubits)] = 1.0
    return rho


def _apply_left(rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], n: int):
    """Apply ``matrix`` to the row (ket) indices of ``rho``."""
    k = len(qubits)
    reshaped = matrix.reshape((2,) * (2 * k))
    axes = list(qubits)
    out = np.tensordot(reshaped, rho, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _apply_right(rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], n: int):
    """Apply ``matrix``'s conjugate transpose to the column (bra) indices."""
    k = len(qubits)
    conj = matrix.conj().reshape((2,) * (2 * k))
    axes = [n + q for q in qubits]
    out = np.tensordot(conj, rho, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def apply_unitary(rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]):
    """``U rho U†`` applied on ``qubits``."""
    n = rho.ndim // 2
    return _apply_right(_apply_left(rho, matrix, qubits, n), matrix, qubits, n)


def kraus_to_superoperator(kraus_operators: Sequence[np.ndarray]) -> np.ndarray:
    """Superoperator ``S[(a,b),(a',b')] = sum_i K_i[a,a'] conj(K_i)[b,b']``."""
    dim = kraus_operators[0].shape[0]
    superop = np.zeros((dim, dim, dim, dim), dtype=complex)
    for kraus in kraus_operators:
        superop += np.einsum("ac,bd->abcd", kraus, kraus.conj())
    return superop


#: superoperators memoized by Kraus-tuple identity.  The channel constructors
#: in repro.noise.channels are themselves memoized, so the identical tuple
#: object arrives once per gate position of every circuit — rebuilding the
#: superoperator each time dominated the batched noise_sim hot loop.  Entries
#: keep a strong reference to the operators so CPython cannot recycle the id.
_SUPEROP_CACHE: dict = {}


def _cached_superoperator(kraus_operators: Sequence[np.ndarray]) -> np.ndarray:
    key = id(kraus_operators)
    entry = _SUPEROP_CACHE.get(key)
    if entry is None or entry[0] is not kraus_operators:
        if len(_SUPEROP_CACHE) >= 1024:
            _SUPEROP_CACHE.clear()
        superop = kraus_to_superoperator(kraus_operators)
        superop.flags.writeable = False
        _SUPEROP_CACHE[key] = (kraus_operators, superop)
        return superop
    return entry[1]


def apply_kraus(
    rho: np.ndarray, kraus_operators: Sequence[np.ndarray], qubits: Sequence[int]
) -> np.ndarray:
    """``sum_i K_i rho K_i†`` applied on ``qubits``.

    Channels with many Kraus operators (e.g. two-qubit depolarizing) are
    applied through their precomputed superoperator, which contracts the
    density matrix once instead of once per Kraus term.
    """
    n = rho.ndim // 2
    if len(kraus_operators) <= 2:
        out = np.zeros_like(rho)
        for kraus in kraus_operators:
            out = out + _apply_right(
                _apply_left(rho, kraus, qubits, n), kraus, qubits, n
            )
        return out
    k = len(qubits)
    superop = _cached_superoperator(kraus_operators)
    reshaped = superop.reshape((2,) * (4 * k))
    axes = [q for q in qubits] + [n + q for q in qubits]
    moved = np.tensordot(reshaped, rho, axes=(list(range(2 * k, 4 * k)), axes))
    return np.moveaxis(moved, list(range(2 * k)), axes)


# ---------------------------------------------------------------------------
# Batched density matrices
#
# Batched density matrices are stored as tensors of shape
# ``(batch,) + (2,) * 2n`` so a stack of noisy circuits that share their gate
# *structure* (same gate names and qubits at every position, possibly with
# per-sample parameters) evolves through one sequence of contractions.  This
# is the density-matrix analogue of the batched statevector layout and is the
# hot loop of the population execution engine's ``noise_sim`` mode.
# ---------------------------------------------------------------------------


def zero_density_matrices(n_qubits: int, batch: int = 1) -> np.ndarray:
    """``|0..0><0..0|`` replicated ``batch`` times, shape ``(batch,) + (2,)*2n``."""
    rhos = np.zeros((batch,) + (2,) * (2 * n_qubits), dtype=complex)
    rhos[(slice(None),) + (0,) * (2 * n_qubits)] = 1.0
    return rhos


@lru_cache(maxsize=4096)
def _front_permutation(
    ndim: int, axes: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Permutation bringing ``axes`` to the front, and its inverse.

    Cached per ``(ndim, axes)``: the batched hot loop applies the same
    handful of gate/channel positions thousands of times, and recomputing
    the axis bookkeeping (as ``tensordot``/``moveaxis`` do per call)
    dominated the contraction cost on small registers.
    """
    perm = tuple(axes) + tuple(a for a in range(ndim) if a not in axes)
    inverse = tuple(int(i) for i in np.argsort(perm))
    return perm, inverse


def _apply_front_matrix(
    tensor: np.ndarray, operator: np.ndarray, axes: Tuple[int, ...]
) -> np.ndarray:
    """Contract a ``(D, D)`` operator against ``axes`` of a tensor via BLAS."""
    perm, inverse = _front_permutation(tensor.ndim, axes)
    moved = tensor.transpose(perm)
    flat = moved.reshape(operator.shape[0], -1)
    out = operator @ flat
    return out.reshape(moved.shape).transpose(inverse)


def _apply_rowwise_matrix(
    rhos: np.ndarray, operator: np.ndarray, axes: Tuple[int, ...]
) -> np.ndarray:
    """:func:`_apply_front_matrix` as one ``(D, D) @ (D, rest)`` per batch row.

    Every BLAS call sees the same shapes whatever the batch size, so a row's
    floats do not depend on the rows stacked beside it.
    """
    perm, inverse = _front_permutation(rhos.ndim, (0,) + axes)
    moved = rhos.transpose(perm)
    flat = moved.reshape(rhos.shape[0], operator.shape[0], -1)
    return (operator @ flat).reshape(moved.shape).transpose(inverse)


def _apply_side_batch(
    rhos: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], side: str
) -> np.ndarray:
    """Apply ``matrix`` to the ket (``side="left"``) or bra axes of a batch.

    ``matrix`` is either ``(2**k, 2**k)`` (shared across the batch) or
    ``(batch, 2**k, 2**k)`` (per-sample parameters).
    """
    n = (rhos.ndim - 1) // 2
    k = len(qubits)
    dim = 2**k
    if side == "left":
        axes = tuple(1 + q for q in qubits)
    else:
        matrix = matrix.conj()
        axes = tuple(1 + n + q for q in qubits)

    if matrix.ndim == 2:
        return _apply_front_matrix(rhos, matrix, axes)

    if matrix.ndim != 3:
        raise ValueError("matrix must have 2 or 3 dimensions")
    batch = rhos.shape[0]
    if matrix.shape[0] != batch:
        raise ValueError("batched matrix leading dimension must equal the batch size")
    moved = np.moveaxis(rhos, axes, list(range(1, 1 + k)))
    tail_shape = moved.shape[1 + k:]
    flat = moved.reshape(batch, dim, -1)
    out = np.einsum("bij,bjr->bir", matrix, flat)
    out = out.reshape((batch,) + (2,) * k + tail_shape)
    return np.moveaxis(out, list(range(1, 1 + k)), axes)


def apply_unitary_batch(
    rhos: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """``U rho U†`` on every density matrix of a batch.

    ``matrix`` may be shared (2-D) or per-sample (3-D); the latter carries the
    per-sample gate parameters of structurally aligned circuits.
    """
    return _apply_side_batch(
        _apply_side_batch(rhos, matrix, qubits, "left"), matrix, qubits, "right"
    )


def apply_kraus_batch(
    rhos: np.ndarray, kraus_operators: Sequence[np.ndarray], qubits: Sequence[int]
) -> np.ndarray:
    """``sum_i K_i rho K_i†`` on every density matrix of a batch.

    The Kraus operators are shared across the batch (noise channels depend on
    the gate's qubits, never on its parameters).  Like :func:`apply_kraus`,
    channels with many operators go through the precomputed superoperator.
    """
    n = (rhos.ndim - 1) // 2
    if len(kraus_operators) <= 2:
        out = np.zeros_like(rhos)
        for kraus in kraus_operators:
            out = out + _apply_side_batch(
                _apply_side_batch(rhos, kraus, qubits, "left"), kraus, qubits, "right"
            )
        return out
    k = len(qubits)
    dim = 2**k
    superop = _cached_superoperator(kraus_operators)
    axes = tuple(1 + q for q in qubits) + tuple(1 + n + q for q in qubits)
    return _apply_front_matrix(rhos, superop.reshape(dim * dim, dim * dim), axes)


# ---------------------------------------------------------------------------
# Fused noisy slot programs
#
# A noisy circuit is a sequence of *slots*: one gate plus the Kraus channels
# the noise model attaches after it.  Every channel of a slot acts on the
# gate's own qubits, so the whole slot is one local superoperator on the
# (ket, bra) axes of those 1-2 qubits.  :class:`NoisySlotProgram` lowers a
# slot sequence to one contraction per fixed slot, and lowers each
# parametric RZ to an elementwise per-row phase on ``vec(rho)``; the noise of
# an RZ is deferred into the next fixed superoperator on its qubit (exact:
# the slots in between act on other qubits).
# ---------------------------------------------------------------------------

#: fused slot superoperators memoized process-wide by (gate, params, qubits,
#: Kraus-tuple identities of the deferred and the slot's own channels).  The
#: channel constructors in repro.noise.channels are memoized, so a device
#: yields a few dozen distinct keys.  Entries keep strong references to the
#: channel lists so CPython cannot recycle a keyed id; values are read-only.
_SLOT_SUPEROP_CACHE: dict = {}

#: tolerance of the trace-preservation invariant checked on every build
TRACE_PRESERVING_ATOL = 1e-12

Channels = Sequence[Tuple[Sequence[np.ndarray], Tuple[int, ...]]]


def _channels_key(channels: Channels) -> Tuple:
    return tuple((id(kraus_ops), tuple(qubits)) for kraus_ops, qubits in channels)


def _check_trace_preserving(
    superop: np.ndarray, gate: Optional[str], qubits: Tuple[int, ...],
    channels: Channels,
) -> None:
    """Raise unless ``sum_a S[(a,a),(a',b')] == delta_{a'b'}``."""
    dim = 2 ** len(qubits)
    traced = np.trace(superop.reshape(dim, dim, dim, dim), axis1=0, axis2=1)
    deviation = float(np.max(np.abs(traced - np.eye(dim))))
    if deviation <= TRACE_PRESERVING_ATOL:
        return
    culprit = f"gate {gate!r}"
    for kraus_ops, channel_qubits in channels:
        local = kraus_ops[0].shape[1]
        completeness = sum(kraus.conj().T @ kraus for kraus in kraus_ops)
        if np.max(np.abs(completeness - np.eye(local))) > TRACE_PRESERVING_ATOL:
            culprit = (
                f"{len(kraus_ops)}-operator Kraus channel on qubits "
                f"{tuple(channel_qubits)}"
            )
            break
    raise ValueError(
        f"fused superoperator of {gate or 'noise'} on qubits {qubits} is not "
        f"trace-preserving (deviation {deviation:.3g}): {culprit}"
    )


def slot_superoperator(
    gate: Optional[str],
    params: Tuple[float, ...],
    qubits: Tuple[int, ...],
    channels: Channels,
    pre_channels: Channels = (),
) -> np.ndarray:
    """The ``(4**k, 4**k)`` superoperator of one noisy slot on ``qubits``.

    Applies ``pre_channels``, then the gate (skipped when ``gate`` is
    ``None``), then ``channels`` — every channel must act within ``qubits``.
    Built once per memo key by evolving the basis ``|a'><b'|`` of the
    slot's own register through :func:`apply_unitary_batch` /
    :func:`apply_kraus_batch`, so ``S[:, (a', b')]`` is the image of that
    basis element and the matrix contracts ``(ket..., bra...)`` axes in
    ``qubits`` order.  Raises ``ValueError`` if the result is not
    trace-preserving.
    """
    key = (gate, params, qubits, _channels_key(pre_channels), _channels_key(channels))
    entry = _SLOT_SUPEROP_CACHE.get(key)
    if entry is not None:
        return entry[1]
    k = len(qubits)
    dim = 2**k
    local = {qubit: index for index, qubit in enumerate(qubits)}
    basis = np.eye(dim * dim, dtype=complex).reshape((dim * dim,) + (2,) * (2 * k))
    for kraus_ops, channel_qubits in pre_channels:
        basis = apply_kraus_batch(
            basis, kraus_ops, tuple(local[q] for q in channel_qubits)
        )
    if gate is not None:
        basis = apply_unitary_batch(basis, gate_matrix(gate, params), tuple(range(k)))
    for kraus_ops, channel_qubits in channels:
        basis = apply_kraus_batch(
            basis, kraus_ops, tuple(local[q] for q in channel_qubits)
        )
    superop = np.ascontiguousarray(basis.reshape(dim * dim, dim * dim).T)
    _check_trace_preserving(
        superop, gate, qubits, tuple(pre_channels) + tuple(channels)
    )
    superop.flags.writeable = False
    if len(_SLOT_SUPEROP_CACHE) >= 1024:
        _SLOT_SUPEROP_CACHE.clear()
    _SLOT_SUPEROP_CACHE[key] = ((pre_channels, channels), superop)
    return superop


class NoisySlotProgram:
    """A noisy circuit lowered to one batched step per slot.

    ``slots`` is a sequence of shared :class:`~repro.quantum.circuit.
    Instruction` objects (the same gate on every row) or ``(gate, qubits,
    params)`` triples whose ``(n_rows, k)`` ``params`` hold one row of
    angles per batch row.  ``noise_model`` supplies ``channels_for``.  Steps:

    * a fixed gate and its channels (plus any RZ noise deferred onto its
      qubits) become one memoized :func:`slot_superoperator` contraction;
    * an RZ becomes the elementwise phase ``[[1, e^{-i theta}], [e^{i theta},
      1]]`` on its (ket, bra) axes; its noise is deferred to the next fixed
      slot on the qubit, or applied alone before the qubit's next RZ or at
      the end.  RZ is the one parametric gate of the CX/SX/RZ/X basis every
      compiled circuit is lowered to; other parametric slots are rejected.

    Every step acts on each row independently, so a row's result does not
    depend on which other rows share its batch.
    """

    __slots__ = ("n_qubits", "n_rows", "steps")

    def __init__(
        self, n_qubits: int, n_rows: int, slots: Sequence, noise_model
    ) -> None:
        n = self.n_qubits = int(n_qubits)
        self.n_rows = int(n_rows)
        self.steps: list = []
        channel_memo: dict = {}
        # program-local memo in front of the process-wide one: a hit skips
        # building the Kraus-identity key
        superop_memo: dict = {}
        deferred: set = set()  # qubits whose last RZ's noise is not applied yet
        thetas: list = []  # per RZ step: (step index, qubit, angle or angles)

        def channels(gate: str, qubits: Tuple[int, ...]):
            found = channel_memo.get((gate, qubits))
            if found is None:
                found = tuple(noise_model.channels_for(
                    Instruction(gate, qubits, (0.0,) * gate_num_params(gate))
                ))
                channel_memo[(gate, qubits)] = found
            return found

        def add_superop(gate, params, qubits, pre_qubits) -> None:
            key = (gate, params, qubits, pre_qubits)
            superop = superop_memo.get(key)
            if superop is None:
                pre = tuple(
                    channel for q in pre_qubits for channel in channels("rz", (q,))
                )
                own = channels(gate, qubits) if gate is not None else ()
                superop = slot_superoperator(gate, params, qubits, own, pre)
                superop_memo[key] = superop
            axes = tuple(1 + q for q in qubits) + tuple(1 + n + q for q in qubits)
            self.steps.append((superop, axes))

        def flush(qubit: int) -> None:
            if qubit in deferred:
                deferred.discard(qubit)
                if channels("rz", (qubit,)):
                    add_superop(None, (), (qubit,), (qubit,))

        for slot in slots:
            if type(slot) is Instruction:
                gate, qubits, params = slot.gate, slot.qubits, None
            else:
                gate, qubits, params = slot
                qubits = tuple(qubits)
            if gate == "rz":
                flush(qubits[0])
                angle = slot.params[0] if params is None else params[:, 0]
                thetas.append((len(self.steps), qubits[0], angle))
                self.steps.append(None)
                deferred.add(qubits[0])
            elif params is None:
                pre_qubits = tuple(q for q in qubits if q in deferred)
                deferred.difference_update(qubits)
                add_superop(gate, slot.params, qubits, pre_qubits)
            else:
                raise ValueError(f"parametric {gate!r} slot: only rz may vary per row")
        for qubit in sorted(deferred):
            flush(qubit)

        # every RZ phase of the program in one vectorized pass
        angles = np.empty((len(thetas), self.n_rows))
        for index, (_, _, angle) in enumerate(thetas):
            angles[index] = angle
        phases = np.ones((len(thetas), self.n_rows, 2, 2), dtype=complex)
        phases[:, :, 0, 1] = np.exp(-1j * angles)
        phases[:, :, 1, 0] = phases[:, :, 0, 1].conj()
        for index, (position, qubit, _) in enumerate(thetas):
            shape = [self.n_rows] + [1] * (2 * n)
            shape[1 + qubit] = shape[1 + n + qubit] = 2
            self.steps[position] = (phases[index].reshape(shape), None)

    def run(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Evolve ``|0..0><0..0|`` for rows ``start:stop``; ``(rows,) + (2,)*2n``."""
        stop = self.n_rows if stop is None else stop
        rhos = zero_density_matrices(self.n_qubits, stop - start)
        for operand, axes in self.steps:
            if axes is None:  # an RZ phase, one per row
                rhos *= operand[start:stop]
            else:
                rhos = _apply_rowwise_matrix(rhos, operand, axes)
        return rhos


def density_probabilities_batch(rhos: np.ndarray) -> np.ndarray:
    """Per-sample computational-basis probabilities, shape ``(batch, 2**n)``.

    Matches :func:`density_probabilities` applied to every batch entry
    (diagonal, clipped to be non-negative, renormalized).
    """
    batch = rhos.shape[0]
    n = (rhos.ndim - 1) // 2
    dim = 2**n
    matrices = rhos.reshape(batch, dim, dim)
    probs = np.real(np.einsum("bii->bi", matrices)).copy()
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    return probs / safe


def density_probabilities(rho: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities (the diagonal of rho)."""
    n = rho.ndim // 2
    dim = 2**n
    matrix = rho.reshape(dim, dim)
    probs = np.real(np.diag(matrix)).copy()
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total > 0:
        probs /= total
    return probs


def expectation_z_all_dm(rho: np.ndarray) -> np.ndarray:
    """Z expectation on every qubit computed from the diagonal of rho."""
    n = rho.ndim // 2
    probs = density_probabilities(rho).reshape((2,) * n)
    out = np.zeros(n)
    for qubit in range(n):
        axes = tuple(a for a in range(n) if a != qubit)
        marginal = probs.sum(axis=axes)
        out[qubit] = marginal[0] - marginal[1]
    return out


def expectation_pauli_sum_dm(rho: np.ndarray, observable: PauliSum) -> float:
    """``Tr(H rho)`` for a Pauli-sum observable."""
    n = rho.ndim // 2
    total = 0.0
    for term in observable.terms:
        if term.is_identity:
            total += term.coefficient
            continue
        transformed = rho
        for qubit, pauli in term.paulis:
            transformed = _apply_left(
                transformed, gate_matrix(pauli.lower()), (qubit,), n
            )
        dim = 2**n
        total += term.coefficient * float(
            np.real(np.trace(transformed.reshape(dim, dim)))
        )
    return total


def purity(rho: np.ndarray) -> float:
    """``Tr(rho^2)`` — 1 for pure states, < 1 for mixed states."""
    n = rho.ndim // 2
    dim = 2**n
    matrix = rho.reshape(dim, dim)
    return float(np.real(np.trace(matrix @ matrix)))


class DensityMatrixSimulator:
    """Runs concrete circuits with an optional noise model.

    The noise model (see :mod:`repro.noise.models`) supplies Kraus channels to
    insert after each instruction plus per-qubit readout confusion matrices.
    """

    def __init__(self, n_qubits: int, noise_model=None) -> None:
        self.n_qubits = int(n_qubits)
        self.noise_model = noise_model

    def run(
        self, circuit: QuantumCircuit, initial: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if circuit.n_qubits != self.n_qubits:
            raise ValueError("circuit size does not match simulator size")
        rho = zero_density_matrix(self.n_qubits) if initial is None else initial.copy()
        for instruction in circuit.instructions:
            rho = apply_unitary(rho, instruction.matrix(), instruction.qubits)
            if self.noise_model is not None:
                for kraus_ops, qubits in self.noise_model.channels_for(instruction):
                    rho = apply_kraus(rho, kraus_ops, qubits)
        return rho

    def probabilities(
        self, circuit: QuantumCircuit, with_readout_error: bool = True
    ) -> np.ndarray:
        """Final measurement probabilities, including readout confusion."""
        rho = self.run(circuit)
        probs = density_probabilities(rho)
        if with_readout_error and self.noise_model is not None:
            probs = self.noise_model.apply_readout_error(probs, self.n_qubits)
        return probs

    def expectation_z_all(
        self, circuit: QuantumCircuit, with_readout_error: bool = True
    ) -> np.ndarray:
        """Per-qubit Z expectations of the noisy output distribution."""
        probs = self.probabilities(circuit, with_readout_error).reshape(
            (2,) * self.n_qubits
        )
        out = np.zeros(self.n_qubits)
        for qubit in range(self.n_qubits):
            axes = tuple(a for a in range(self.n_qubits) if a != qubit)
            marginal = probs.sum(axis=axes)
            out[qubit] = marginal[0] - marginal[1]
        return out
