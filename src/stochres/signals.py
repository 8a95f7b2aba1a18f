"""Readout signal matrices.

A :class:`SignalMatrix` is a T x d array of reservoir readouts in one of
three modes: exact bitstring probabilities, empirical shot frequencies, or
product moments indexed by subset masks. Rows may carry probability weights
(used for quadrature input grids); columns carry integer labels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import MissingShotMetadata, MixedDimensions
from .fileio import csv_text, read_raw, write_atomic, write_raw
from .reservoir import (
    EXACT_MODE_MAX_BITS,
    BitstringDistribution,
    InputSequence,
    Reservoir,
    TrajectoryEnsemble,
    _check_shots,
    _count_frequencies,
)

logger = logging.getLogger(__name__)

MODE_EXACT = "exact-probability"
MODE_EMPIRICAL = "empirical-frequency"
MODE_MOMENT = "moment"


@dataclass
class SignalMatrix:
    """T x d readout signals with mode and column labels."""

    data: np.ndarray
    mode: str
    n: int
    labels: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    shots: Optional[int] = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("signal data must be 2-D (time x columns)")
        if self.mode not in (MODE_EXACT, MODE_EMPIRICAL, MODE_MOMENT):
            raise ValueError(f"unknown signal mode: {self.mode!r}")
        if self.labels is None:
            self.labels = np.arange(self.data.shape[1], dtype=np.int64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.size != self.data.shape[1]:
                raise ValueError("one label per column required")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.data.shape[0],):
                raise ValueError("one weight per row required")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def columns(self) -> int:
        return self.data.shape[1]

    def row_weights(self) -> np.ndarray:
        """Per-row probability weights (uniform when none were given)."""
        if self.weights is None:
            return np.full(self.rows, 1.0 / self.rows)
        return self.weights / self.weights.sum()

    def validate(self) -> None:
        if self.mode == MODE_EXACT:
            if np.any(self.data < -1e-12) or np.any(self.data > 1 + 1e-12):
                raise ValueError("probabilities outside [0, 1]")
            if np.max(np.abs(self.data.sum(axis=1) - 1.0)) > 1e-10:
                raise ValueError("probability rows must sum to 1 within 1e-10")
        elif self.mode == MODE_EMPIRICAL:
            if self.shots is None:
                raise MissingShotMetadata("empirical mode requires a shot count")
            scaled = self.data * self.shots
            if np.max(np.abs(scaled - np.round(scaled))) > 1e-6:
                raise ValueError("frequencies must be multiples of 1/shots")
            if np.max(np.abs(self.data.sum(axis=1) - 1.0)) > 1e-10:
                raise ValueError("frequency rows must sum to 1")
        else:
            empty = np.where(self.labels == 0)[0]
            if empty.size and np.max(np.abs(self.data[:, empty[0]] - 1.0)) > 1e-12:
                raise ValueError("moment column for the empty mask must be 1")


def probability_signals(dists) -> SignalMatrix:
    """Stack exact distributions into an exact-probability SignalMatrix.

    ``dists`` may be a sequence of :class:`BitstringDistribution` or a
    (T, 2**n) array.
    """
    if isinstance(dists, np.ndarray):
        data = np.atleast_2d(np.asarray(dists, dtype=float))
    else:
        rows = []
        n0 = None
        for d in dists:
            vec = d.probs if isinstance(d, BitstringDistribution) else np.asarray(d, dtype=float)
            if n0 is None:
                n0 = vec.size
            elif vec.size != n0:
                raise MixedDimensions("distributions have mixed register sizes")
            rows.append(vec)
        data = np.asarray(rows)
    n = int(round(np.log2(data.shape[1])))
    if 2 ** n != data.shape[1]:
        raise MixedDimensions("column count must be a power of two")
    sm = SignalMatrix(data, MODE_EXACT, n)
    sm.validate()
    return sm


def _check_dense(n: int) -> None:
    if n > EXACT_MODE_MAX_BITS:
        raise ValueError(
            f"dense frequencies limited to n <= {EXACT_MODE_MAX_BITS}; use mask moments")


def empirical_probabilities(ensemble: TrajectoryEnsemble) -> SignalMatrix:
    """Per-step bitstring frequencies of a trajectory ensemble."""
    _check_dense(ensemble.n)
    dim = 2 ** ensemble.n
    counts = np.zeros((ensemble.steps, dim))
    for t in range(ensemble.steps):
        counts[t] = np.bincount(ensemble.samples[:, t], minlength=dim)
    sm = SignalMatrix(counts / ensemble.shots, MODE_EMPIRICAL, ensemble.n,
                      shots=ensemble.shots)
    sm.validate()
    return sm


def sample_frequencies(reservoir: Reservoir, inputs: InputSequence, shots: int,
                       seed: int) -> SignalMatrix:
    """Per-step bitstring frequencies of ``shots`` sampled trajectories.

    An empirical-frequency SignalMatrix whose row ``t`` holds, for every
    bitstring, the share of shots in it after drive ``washout_length + t``,
    for ``n`` up to ``EXACT_MODE_MAX_BITS``. No shot's own path is kept, so
    the count vector is propagated as a Markov chain at any shot count (see
    ``reservoir._count_frequencies``), on the stream ``(seed,
    rng.COUNTS)``: the law of ``shots`` independent trajectories, drawn
    otherwise than :func:`~stochres.reservoir.sample_trajectories` draws
    them, with the same bits for a seed on every run. ``shots`` and the
    drives are checked as ``sample_trajectories`` checks them.
    """
    _check_shots(shots)
    _check_dense(reservoir.n)
    sm = SignalMatrix(_count_frequencies(reservoir, inputs, shots, seed), MODE_EMPIRICAL,
                      reservoir.n, shots=int(shots))
    sm.validate()
    return sm


def noise_floor_mask(sm: SignalMatrix) -> np.ndarray:
    """Flag cells below 1/(10 * shots). Informational only; values are kept."""
    if sm.shots is None:
        raise MissingShotMetadata("noise floor is defined relative to a shot count")
    return sm.data < 1.0 / (10.0 * sm.shots)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_csv(sm: SignalMatrix, path) -> None:
    """Labels as the header line, then one line of 17-digit floats per row.

    The format has no weight column, so a weighted matrix raises ValueError
    rather than losing its weights; use :func:`write_binary` for one.
    """
    if sm.weights is not None:
        raise ValueError("CSV has no weight column; write a weighted matrix with write_binary")
    write_atomic(path, csv_text([str(int(l)) for l in sm.labels], sm.data))


def read_csv(path, mode: str, n: int, shots: Optional[int] = None) -> SignalMatrix:
    path = Path(path)
    lines = path.read_text().strip().split("\n")
    labels = np.array([int(x) for x in lines[0].split(",")], dtype=np.int64)
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return SignalMatrix(data, mode, n, labels=labels, shots=shots)


def write_binary(sm: SignalMatrix, path) -> None:
    """Raw little-endian float64 rows plus a JSON sidecar at ``<path>.json``
    (mode, n, shape, labels, shots and the row weights, null when none)."""
    write_raw(path, sm.data, "<f8", {
        "mode": sm.mode,
        "n": sm.n,
        "rows": sm.rows,
        "columns": sm.columns,
        "labels": sm.labels,
        "shots": sm.shots,
        "weights": sm.weights,
    })


def read_binary(path) -> SignalMatrix:
    """Read a :func:`write_binary` file; a sidecar without weights (written
    before they were recorded) reads as unweighted."""
    data, sidecar = read_raw(path, "<f8", ("rows", "columns"))
    return SignalMatrix(data, sidecar["mode"], sidecar["n"],
                        labels=np.asarray(sidecar["labels"]),
                        weights=sidecar.get("weights"), shots=sidecar["shots"])
