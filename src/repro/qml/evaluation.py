"""Noisy evaluation of QNNs and hardware-style (parameter-shift) training.

``evaluate_on_backend`` is the "measured accuracy on the real quantum
computer" path of the paper: every test sample's circuit is compiled with the
chosen qubit mapping and executed on the shot-based noisy backend.
``make_parameter_shift_gradient_fn`` provides the on-device training mode used
for Table V and Fig. 16.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..devices.backend import QuantumBackend
from ..gradients import gradient_engine
from ..quantum.autodiff import parameter_shift_jacobian
from ..quantum.statevector import expectation_z_all, run_parameterized
from ..transpile.compiler import transpile
from ..utils.stats import accuracy, cross_entropy_with_logits, nll_loss, softmax
from .qnn import QNNModel

__all__ = [
    "evaluate_on_backend",
    "noisy_expectations",
    "ParameterShiftGradient",
    "make_parameter_shift_gradient_fn",
]


def noisy_expectations(
    model: QNNModel,
    weights: np.ndarray,
    features: np.ndarray,
    backend: QuantumBackend,
    initial_layout=None,
    optimization_level: int = 2,
    shots: Optional[int] = None,
) -> np.ndarray:
    """Per-sample Z expectations measured on the noisy backend.

    Every sample shares one circuit structure, so this goes through
    :meth:`QuantumBackend.run_parameterized` — a backend carrying a
    parametric transpile cache (e.g. the search estimator's, handed down by
    the pipeline) compiles the structure once and re-binds angles per sample.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    expectations = np.zeros((len(features), model.n_qubits))
    for index, row in enumerate(features):
        result = backend.run_parameterized(
            model.circuit,
            weights,
            row,
            initial_layout=initial_layout,
            optimization_level=optimization_level,
            shots=shots,
        )
        expectations[index] = result.expectation_z_all()
    return expectations


def evaluate_on_backend(
    model: QNNModel,
    weights: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    backend: QuantumBackend,
    initial_layout=None,
    optimization_level: int = 2,
    shots: Optional[int] = None,
    max_samples: Optional[int] = None,
) -> Dict[str, float]:
    """Measured loss / accuracy of a trained QNN on a noisy device."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if max_samples is not None:
        features = features[:max_samples]
        labels = labels[:max_samples]
    expectations = noisy_expectations(
        model,
        weights,
        features,
        backend,
        initial_layout=initial_layout,
        optimization_level=optimization_level,
        shots=shots,
    )
    logits = model.logits_from_expectations(expectations)
    probs = softmax(logits)
    return {
        "loss": nll_loss(probs, labels),
        "accuracy": accuracy(logits, labels),
        "n_samples": float(len(labels)),
    }


class ParameterShiftGradient:
    """A ``gradient_fn`` for :func:`repro.qml.training.train_qnn` that routes
    the full shift-rule gradient through the batched engines.

    Without a backend, gradients come from the parameter-shift rule evaluated
    on the noise-free simulator (the paper's classical-simulation check of
    parameter-shift training).  With a backend, every shifted expectation is
    evaluated under the device noise model (``shots == 0``, the batched
    density path) or measured with finite shots (the fully on-hardware
    training mode, per-job pinned sampling seeds).

    ``engine`` selects the evaluation strategy:

    * ``"auto"``/``"batched"`` — all ``2 * num_weights + 1`` weight rows fuse
      into one dispatched evaluation (matches sequential to batching
      tolerance, see :mod:`repro.gradients`);
    * ``"sequential"`` — one engine call per row, the bitwise row-unit the
      sharded path reproduces;
    * ``"legacy"`` — the historical closure over
      :func:`~repro.quantum.autodiff.parameter_shift_jacobian` /
      :func:`noisy_expectations`, kept as the equivalence-test baseline.

    ``workers`` (default: the ``REPRO_WORKERS`` environment variable) > 1
    shards the rows of every step across persistent worker processes with
    bit-for-bit identical results; sharded engines always evaluate rows
    sequentially, so ``engine`` is ignored apart from ``"legacy"``.
    Instances are context managers — :meth:`close` shuts worker pools down.
    """

    def __init__(
        self,
        backend: Optional[QuantumBackend] = None,
        initial_layout=None,
        shots: Optional[int] = None,
        *,
        engine: str = "auto",
        workers: Optional[int] = None,
        seed: int = 0,
        optimization_level: int = 2,
    ) -> None:
        if engine == "auto":
            engine = "batched"
        if engine not in ("batched", "sequential", "legacy"):
            raise ValueError(f"unknown gradient engine {engine!r}")
        self.backend = backend
        self.initial_layout = initial_layout
        self.shots = shots
        self._engine = None
        self._stats_snapshot = None
        self._scheduler_snapshot = None
        if engine == "legacy":
            return
        self._engine = gradient_engine(
            backend, initial_layout=initial_layout, shots=shots,
            engine=engine, workers=workers, seed=seed,
            optimization_level=optimization_level,
        )
        self._stats_snapshot = self._engine.stats.copy()
        scheduler_stats = getattr(self._engine, "scheduler_stats", None)
        if scheduler_stats is not None:
            self._scheduler_snapshot = scheduler_stats.copy()

    # -- gradient_fn protocol -------------------------------------------------

    def __call__(self, model: QNNModel, weights, features, labels):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=int)
        weights = np.asarray(weights, dtype=float)
        if self._engine is None:
            return self._legacy(model, weights, features, labels)
        plan = self._engine.shift_plan(model.circuit)
        rows = np.concatenate(
            [weights[None, :], plan.shifted_weight_rows(weights)]
        )
        expectations = self._engine.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        logits = model.logits_from_expectations(expectations[0])
        loss, grad_logits = cross_entropy_with_logits(logits, labels)
        if plan.num_weights == 0:
            return loss, np.zeros(0)
        grad_expectations = grad_logits @ model.readout  # (batch, n_qubits)
        jacobian = plan.jacobian_from_shifted(expectations[1:])
        grads = np.einsum("bq,bqw->w", grad_expectations, jacobian)
        return loss, grads

    def _legacy(self, model: QNNModel, weights, features, labels):
        """The historical sequential path (equivalence-test baseline)."""

        def expectations_fn(weight_vector: np.ndarray) -> np.ndarray:
            if self.backend is None:
                states = run_parameterized(model.circuit, weight_vector, features)
                return expectation_z_all(states)
            return noisy_expectations(
                model,
                weight_vector,
                features,
                self.backend,
                initial_layout=self.initial_layout,
                shots=self.shots,
            )

        expectations = expectations_fn(weights)
        logits = model.logits_from_expectations(expectations)
        loss, grad_logits = cross_entropy_with_logits(logits, labels)
        grad_expectations = grad_logits @ model.readout  # (batch, n_qubits)
        jacobian = parameter_shift_jacobian(
            expectations_fn, model.circuit, weights
        )  # (batch, n_qubits, n_weights)
        grads = np.einsum("bq,bqw->w", grad_expectations, jacobian)
        return loss, grads

    # -- reporting / lifecycle ------------------------------------------------

    def epoch_report(self) -> Dict[str, float]:
        """Per-epoch counter deltas, merged into training history records."""
        if self._engine is None:
            return {}
        report: Dict[str, float] = {}
        stats = self._engine.stats
        delta = stats.diff(self._stats_snapshot)
        self._stats_snapshot = stats.copy()
        for key, value in delta.to_dict().items():
            report[f"gradient_{key}"] = float(value)
        scheduler_stats = getattr(self._engine, "scheduler_stats", None)
        if scheduler_stats is not None:
            delta = scheduler_stats.diff(self._scheduler_snapshot)
            self._scheduler_snapshot = scheduler_stats.copy()
            for key, value in delta.to_dict().items():
                report[f"gradient_{key}"] = float(value)
        return report

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "ParameterShiftGradient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_parameter_shift_gradient_fn(
    backend: Optional[QuantumBackend] = None,
    initial_layout=None,
    shots: Optional[int] = None,
    *,
    engine: str = "auto",
    workers: Optional[int] = None,
    seed: int = 0,
) -> Callable:
    """Build a ``gradient_fn`` for :func:`repro.qml.training.train_qnn`.

    Returns a :class:`ParameterShiftGradient`; see its docstring for the
    engine/worker knobs.  Kept as a function for backwards compatibility
    with callers of the original closure-based API.
    """
    return ParameterShiftGradient(
        backend,
        initial_layout=initial_layout,
        shots=shots,
        engine=engine,
        workers=workers,
        seed=seed,
    )
