"""Readout signal matrices.

A :class:`SignalMatrix` is a T x d array of reservoir readouts in one of
three modes: exact bitstring probabilities, empirical shot frequencies, or
product moments indexed by subset masks. Rows may carry probability weights
(used for quadrature input grids); column ``k`` is bitstring ``k``, or the
moment of mask ``k``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Interval, InvalidInput, MissingShotMetadata, MixedDimensions
from .fileio import read_raw, write_raw
from .reservoir import (
    SHOTS,
    BitstringDistribution,
    InputSequence,
    Reservoir,
    TrajectoryEnsemble,
    _check_dense,
    _check_weights,
    _count_frequencies,
)

logger = logging.getLogger(__name__)

MODE_EXACT = "exact-probability"
MODE_EMPIRICAL = "empirical-frequency"
MODE_MOMENT = "moment"


@dataclass
class SignalMatrix:
    """T x d readout signals; column ``k`` is bitstring or mask ``k``."""

    data: np.ndarray
    mode: str
    n: int
    weights: Optional[np.ndarray] = None
    shots: Optional[int] = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("signal data must be 2-D (time x columns)")
        if self.mode not in (MODE_EXACT, MODE_EMPIRICAL, MODE_MOMENT):
            raise ValueError(f"unknown signal mode: {self.mode!r}")
        Interval(0, integer=True).check("n", self.n)
        if self.shots is not None:
            SHOTS.check("shots", self.shots)
        self.weights = _check_weights(self.weights, self.data.shape[0])

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
        """Check the data against the mode (:class:`InvalidInput`): finite
        probabilities in [0, 1], or frequencies on the ``1/shots`` grid, in
        rows that sum to 1; or a moment of 1 for the empty mask, column 0."""
        if self.mode == MODE_EXACT:
            # min and max make no T x d temporaries; NaN fails them too
            if self.data.size and not (self.data.min() >= -1e-12 and self.data.max() <= 1 + 1e-12):
                raise InvalidInput("probabilities outside [0, 1]")
            if not np.max(np.abs(self.data.sum(axis=1) - 1.0)) <= 1e-10:
                raise InvalidInput("probability rows must sum to 1 within 1e-10")
        elif self.mode == MODE_EMPIRICAL:
            if self.shots is None:
                raise MissingShotMetadata("empirical mode requires a shot count")
            if not np.max(np.abs(self.data.sum(axis=1) - 1.0)) <= 1e-10:  # NaN fails too
                raise InvalidInput("frequency rows must sum to 1")
            # count / shots * shots is off its count by up to about
            # count * eps, which passes 1e-6 near 10**10 shots
            scaled = self.data * self.shots
            grid_tol = max(1e-6, 2 * self.shots * np.finfo(float).eps)
            if np.max(np.abs(scaled - np.round(scaled))) > grid_tol:
                raise InvalidInput("frequencies must be multiples of 1/shots")
        elif self.columns and not np.max(np.abs(self.data[:, 0] - 1.0)) <= 1e-12:
            raise InvalidInput("moment column for the empty mask must be 1")


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


def empirical_probabilities(ensemble: TrajectoryEnsemble) -> SignalMatrix:
    """Per-step bitstring frequencies of a trajectory ensemble."""
    _check_dense(ensemble.n, "dense frequencies")
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
    SHOTS.check("shots", shots)
    _check_dense(reservoir.n, "dense frequencies")
    sm = SignalMatrix(_count_frequencies(reservoir, inputs, shots, seed), MODE_EMPIRICAL,
                      reservoir.n, shots=int(shots))
    sm.validate()
    return sm


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_binary(sm: SignalMatrix, path) -> None:
    """Raw little-endian float64 rows plus a JSON sidecar at ``<path>.json``
    (mode, n, shape, shots and the row weights, null when none)."""
    write_raw(path, sm.data, "<f8", {
        "mode": sm.mode,
        "n": sm.n,
        "rows": sm.rows,
        "columns": sm.columns,
        "shots": sm.shots,
        "weights": sm.weights,
    })


def read_binary(path) -> SignalMatrix:
    """Read a :func:`write_binary` file; a sidecar without weights (written
    before they were recorded) reads as unweighted, and the ``labels`` key
    of older sidecars is ignored."""
    data, sidecar = read_raw(path, "<f8", ("rows", "columns"))
    return SignalMatrix(data, sidecar["mode"], sidecar["n"],
                        weights=sidecar.get("weights"), shots=sidecar["shots"])
