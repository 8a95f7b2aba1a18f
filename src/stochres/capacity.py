"""Reconstruction capacities, eigentask spectra, and total processing capacity.

Three routes to the same quantity are implemented and cross-checkable:

- ``ReadoutFit`` / ``capacity`` / ``total_capacity``: least-squares
  reconstruction of target functions from the readout signals, one
  factorization for all targets, summed over an orthonormal target basis
  ("basis-sum").
- ``eigentask_decomposition`` + ``ipc_spectral``: the spectrum of the
  generalized noise-to-signal matrix of the input-averaged first and second
  moments (G1, G2) of the readouts ("spectral"). One-hot signals are
  decomposed directly, with G2 diagonal; ``gram_matrices`` forms the pair
  for the general route.
- ``ipc_probability_rep``: the trace shortcut available when the signals
  are the bitstring probabilities themselves ("probability-trace").

On exact probabilities the one-hot spectral route sums the eigenvalues of
a matrix whose trace is the probability-trace capacity, so the two routes
agree by construction, to rounding plus the eigenvalues below the rank
tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BasisNotOrthonormal,
    DegenerateSignals,
    EmptyRank,
    InvalidInput,
    Interval,
    MissingShotMetadata,
    NotPSD,
    NumericCheckFailure,
    ZeroTarget,
)
from .reservoir import SHOTS, _check_weights
from .signals import MODE_EMPIRICAL, MODE_EXACT, SignalMatrix

logger = logging.getLogger(__name__)

# eigenvalues below this share of the largest count as zero rank
RANK_TOLERANCE = 1e-10
NUMERICAL_SLACK = 1e-9
# largest deviation of a target basis Gram matrix from the identity
ORTHONORMALITY_TOL = 1e-6


def finite_time_threshold(rows: int) -> float:
    """Capacity floor 4/sqrt(T) below which estimates are treated as noise."""
    return 4.0 / math.sqrt(rows)


def _finite(g, name: str) -> np.ndarray:
    """``g`` as a float array; a non-finite entry raises NumericCheckFailure."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericCheckFailure(f"non-finite entries in {name}")
    return g


# ---------------------------------------------------------------------------
# reconstruction capacity
# ---------------------------------------------------------------------------

@dataclass
class CapacityReport:
    """Result of reconstructing one target from the signals."""

    capacity: float
    weights: np.ndarray
    rows: int
    threshold: float
    below_threshold: bool
    clipped_by: float = 0.0
    dropped_columns: int = 0


def _resolve_signals(signals, weights):
    """The data of ``signals`` and its row weights: ``weights``, checked as
    a :class:`SignalMatrix` checks its own and divided by their sum, else a
    :class:`SignalMatrix`'s own ``row_weights()`` as they are (already
    normalized, as the one-hot routes take them), else uniform."""
    matrix = isinstance(signals, SignalMatrix)
    data = signals.data if matrix else np.asarray(signals, dtype=float)
    if weights is not None:
        weights = _check_weights(weights, data.shape[0])
        weights = weights / weights.sum()
    elif matrix:
        weights = signals.row_weights()
    else:
        weights = np.full(data.shape[0], 1.0 / data.shape[0])
    return data, _finite(weights, "row weights")


class ReadoutScores(NamedTuple):
    """Capacities of a batch of targets scored against one :class:`ReadoutFit`.

    Entry ``k`` of each vector, and column ``k`` of ``weights`` (one row per
    signal column, zero on dropped columns), belongs to target column ``k``.
    """

    capacities: np.ndarray
    weights: np.ndarray
    clipped_by: np.ndarray
    threshold: float
    below_threshold: np.ndarray


class ReadoutFit:
    """Weighted least-squares readout of the signal columns, factored once.

    Resolves the signals and row weights (a non-finite entry raises
    NumericCheckFailure), drops identically zero columns (logged), and
    takes one thin SVD of ``sqrt(w) * X``. Singular values at or below
    ``eps * max(rows, cols) * s_max`` count as zero, the cutoff of
    ``np.linalg.lstsq(rcond=None)``, so every target gets the minimum-norm
    least-squares readout. :meth:`score` then reconstructs any number of
    targets from this one factorization.
    """

    def __init__(self, signals, weights: Optional[np.ndarray] = None):
        data, self.w = _resolve_signals(signals, weights)
        _finite(data, "signals")
        self.rows, self.columns = data.shape
        self.keep = np.max(np.abs(data), axis=0) > 0.0
        self.dropped_columns = int(np.sum(~self.keep))
        if self.dropped_columns:
            logger.info("capacity: dropping %d all-zero signal columns", self.dropped_columns)
        if not np.any(self.keep):
            raise DegenerateSignals("all signal columns are identically zero")
        xw = data[:, self.keep]  # a copy, weighted in place
        if self.rows < xw.shape[1]:
            logger.warning("capacity: %d rows < %d columns, estimate will overfit",
                           self.rows, xw.shape[1])
        sw = np.sqrt(self.w)
        xw *= sw[:, None]
        u, s, vt = np.linalg.svd(xw, full_matrices=False)
        rank = s > np.finfo(float).eps * max(xw.shape) * s[0]
        # orthonormal basis of the weighted signal span, with sqrt(w) folded
        # in so that span.T @ y projects sqrt(w) * y; back maps span
        # coordinates to the minimum-norm readout weights
        self.span = u[:, rank] * sw[:, None]
        self.back = vt[rank].T / s[rank]

    def score(self, targets) -> ReadoutScores:
        """Capacities ``1 - SSE/SST``, clipped into [0, 1], of the columns of
        the ``(rows, K)`` matrix ``targets``.

        The weighted residual energy SSE is SST minus the energy of the
        projection onto the signal span. A target column with zero weighted
        energy raises ZeroTarget, and a non-finite target NumericCheckFailure;
        a clip larger than ``NUMERICAL_SLACK`` is logged as a warning. The
        threshold is the finite-time threshold of the row count.
        """
        y = _finite(targets, "targets")
        if y.ndim != 2 or y.shape[0] != self.rows:
            raise ValueError("targets must be a (rows, K) matrix matching the signal rows")
        sst = np.einsum("i,ik,ik->k", self.w, y, y)
        if np.any(sst <= 0.0):
            raise ZeroTarget(f"target column {int(np.argmax(sst <= 0.0))} has zero weighted energy")
        proj = self.span.T @ y
        raw = np.einsum("rk,rk->k", proj, proj) / sst
        caps = np.clip(raw, 0.0, 1.0)
        clipped_by = raw - caps
        for by in clipped_by[np.abs(clipped_by) > NUMERICAL_SLACK]:
            logger.warning("capacity clipped by %.3g", by)
        weights = np.zeros((self.columns, y.shape[1]))
        weights[self.keep] = self.back @ proj
        thr = finite_time_threshold(self.rows)
        return ReadoutScores(caps, weights, clipped_by, thr, caps < thr)


def capacity(signals, target) -> CapacityReport:
    """Capacity to reconstruct ``target`` linearly from the signal columns.

    Fits a :class:`ReadoutFit` and scores the one target against it: the
    least-squares capacity ``1 - SSE/SST``, under a :class:`SignalMatrix`'s
    row weights, clipped into [0, 1]. Columns that are identically zero are
    dropped (and logged); a target with zero weighted energy raises
    ZeroTarget. To score many targets against the same signals, fit once
    and call :meth:`ReadoutFit.score`.
    """
    y = np.asarray(target, dtype=float)
    fit = ReadoutFit(signals)
    if y.shape != (fit.rows,):
        raise ValueError("target length must match signal rows")
    scores = fit.score(y[:, None])
    return CapacityReport(
        capacity=float(scores.capacities[0]), weights=scores.weights[:, 0],
        rows=fit.rows, threshold=scores.threshold,
        below_threshold=bool(scores.below_threshold[0]),
        clipped_by=float(scores.clipped_by[0]), dropped_columns=fit.dropped_columns,
    )


# ---------------------------------------------------------------------------
# gram matrices and eigentasks
# ---------------------------------------------------------------------------

def _one_hot_readout(signals: SignalMatrix):
    """Row weights and data of signals with one-hot single-shot readout:
    exact probabilities, or empirical frequencies with their shot count.
    A non-finite entry in either raises NumericCheckFailure."""
    if signals.mode not in (MODE_EXACT, MODE_EMPIRICAL):
        raise ValueError("one-hot moments need probability or frequency signals")
    if signals.mode == MODE_EMPIRICAL and signals.shots is None:
        raise MissingShotMetadata("empirical one-hot moments need the shot count")
    return _finite(signals.row_weights(), "row weights"), _finite(signals.data, "signals")


def gram_matrices(signals: SignalMatrix):
    """Input-averaged first and second moment matrices (G1, G2).

    G1 is the input average of <X><X>^T and G2 the input average of <X X^T>
    under single-shot one-hot readout semantics: a single shot x is one-hot,
    so <x x^T> = diag(<x>). Exact mode uses the true probabilities;
    empirical mode plugs the observed frequencies into the same formulas
    (shot metadata required), so both estimates converge to the exact pair
    as shots and rows grow. G1 is returned as the product computes it,
    symmetric up to rounding; :func:`eigentask_decomposition` symmetrizes
    its input. The one-hot spectrum itself needs neither matrix:
    ``eigentask_decomposition(signals)`` takes it from the signals.
    """
    w, x = _one_hot_readout(signals)
    g1 = (x * w[:, None]).T @ x
    g2 = np.diag(w @ x)
    return g1, g2


def shot_averaged_second_moment(g1: np.ndarray, g2: np.ndarray, shots: int) -> np.ndarray:
    """Second moment of an S-shot averaged readout.

    Averaging S one-hot shots divides the Bernoulli variance term by S:
    <f f^T> = G1 + (G2 - G1) / S. With shots = 1 this is G2 itself; as
    S grows the readout becomes noiseless and the pair (G1, result)
    approaches zero noise-to-signal ratios. G1 and G2 must be finite
    (NumericCheckFailure).
    """
    SHOTS.check("shots", shots)
    g1, g2 = _finite(g1, "G1"), _finite(g2, "G2")
    return g1 + (g2 - g1) / float(shots)


@dataclass(eq=False)
class EigentaskDecomposition:
    """Spectrum of the generalized noise-to-signal matrix of (G1, G2).

    ``sigma_sq`` are the noise-to-signal ratios sorted ascending;
    ``eigentasks`` holds the matching orthonormal eigenvectors (columns) in
    the whitened signal basis; ``whitener`` (``signal_dim`` rows) maps
    whitened coordinates back to signal space, so signal-space readout
    weights for eigentask k are ``whitener @ eigentasks[:, k]``. Stacked as
    the columns of ``V``, these weights satisfy ``V.T @ G1 @ V = I`` and
    ``V.T @ G2 @ V = diag(1 + sigma_sq)``. The one-hot route returns the
    readout weights themselves as ``whitener``, one ``eigh`` on first read
    that raises NumericCheckFailure if the signals changed since, and the
    identity as ``eigentasks``. ``dropped_count`` is ``signal_dim -
    retained_rank``. ``repr`` leaves out ``eigentasks`` and ``whitener``, so
    it never runs that ``eigh``, and ``==`` is identity: a field-wise
    compare would run it and then fail on array fields.
    """

    sigma_sq: np.ndarray
    eigentasks: np.ndarray = field(repr=False)
    retained_rank: int
    dropped_count: int
    signal_dim: int
    whitener: np.ndarray = field(repr=False)
    clipped_negatives: int = 0

    def readout_weights(self, k: int) -> np.ndarray:
        return self.whitener @ self.eigentasks[:, k]


def _sorted_ratios(sigma_sq: np.ndarray):
    """Ratios in [-1e-10, 0) set to zero, sorted ascending, with the number
    set to zero and the sorting order; a ratio still negative is logged."""
    clip = (sigma_sq < 0.0) & (sigma_sq >= -1e-10)
    sigma_sq = np.where(clip, 0.0, sigma_sq)
    if np.any(sigma_sq < 0.0):
        logger.warning("noise-to-signal ratio below -1e-10: G2 does not dominate G1")
    order = np.argsort(sigma_sq)
    return sigma_sq[order], int(np.sum(clip)), order


def eigentask_decomposition(source, g2: Optional[np.ndarray] = None) -> EigentaskDecomposition:
    """Diagonalize the noise-to-signal matrix of one-hot signals or of a
    pair (G1, G2).

    ``eigentask_decomposition(signals)`` takes a :class:`SignalMatrix` of
    exact probabilities or empirical frequencies (shot count required), whose
    one-hot readout has the diagonal G2 = diag(m) of the weighted column
    means m. Columns with m = 0 are dropped; the rest form
    ``Y = sqrt(w) X diag(m)^-1/2``. The squared singular values b of Y are
    the eigenvalues of G1 relative to G2, b = 1/(1 + sigma_sq); one
    ``eigvalsh`` of the smaller of ``Y Y^T`` (rows x rows) and ``Y^T Y``
    gives them, without eigenvectors, and neither G1 nor G2 is formed.
    Values b >= ``RANK_TOLERANCE`` * max(b) are retained and sigma_sq =
    1/b - 1. The b sum to the trace of ``Y Y^T``, which is the
    probability-trace capacity, so :func:`ipc_spectral` and
    :func:`ipc_probability_rep` agree by construction. The readout weights
    ``diag(m)^-1/2 Y^T u / b`` of the left singular vectors u of the
    ``retained_rank`` largest b are computed from ``source`` with one
    ``eigh`` when ``whitener`` is first read, and returned as ``whitener``
    (zero on dropped columns), largest b first, which is the order of
    ``sigma_sq``; ``eigentasks`` is the identity. That read raises
    NumericCheckFailure if ``source`` changed, so that the ``eigh`` finds a
    b off by more than 1e-9 * max(b). A non-finite signal or row weight
    raises NumericCheckFailure.

    ``eigentask_decomposition(g1, g2)`` takes any pair, such as a G2 from
    :func:`shot_averaged_second_moment`. G1 is spectrally decomposed;
    directions below ``RANK_TOLERANCE`` times its top eigenvalue are
    dropped; G2 is whitened by the retained part of G1; the eigenvalues of
    the whitened matrix minus one are the ratios. A non-finite entry in
    either matrix raises NumericCheckFailure.

    Both routes set ratios in [-1e-10, 0) to zero, counting them in
    ``clipped_negatives``, warn about any ratio still negative, and sort the
    ratios ascending.
    """
    if isinstance(source, SignalMatrix):
        if g2 is not None:
            raise ValueError("pass a SignalMatrix alone or the pair (G1, G2)")
        return _OneHotEigentasks(source)
    if g2 is None:
        raise ValueError("G1 needs its G2")
    g1, g2 = _finite(source, "G1"), _finite(g2, "G2")
    if g1.shape != g2.shape or g1.shape[0] != g1.shape[1]:
        raise ValueError("G1 and G2 must be square matrices of equal size")
    g1 = 0.5 * (g1 + g1.T)
    g2 = 0.5 * (g2 + g2.T)

    evals, vecs = np.linalg.eigh(g1)
    top = float(evals[-1])
    if top <= 0.0:
        raise EmptyRank("G1 has no positive eigenvalues")
    if evals[0] < -1e-8 * top:
        raise NotPSD(f"G1 eigenvalue {evals[0]:.3g} below -1e-8 * max")
    g2_evals = np.linalg.eigvalsh(g2)
    if g2_evals[0] < -1e-8 * max(g2_evals[-1], 1e-300):
        raise NotPSD(f"G2 eigenvalue {g2_evals[0]:.3g} below -1e-8 * max")

    keep = evals >= RANK_TOLERANCE * top
    whitener = vecs[:, keep] / np.sqrt(evals[keep])
    m = whitener.T @ g2 @ whitener
    mu, tasks = np.linalg.eigh(0.5 * (m + m.T))
    sigma_sq, clipped, order = _sorted_ratios(mu - 1.0)
    return EigentaskDecomposition(
        sigma_sq=sigma_sq,
        eigentasks=tasks[:, order],
        retained_rank=int(np.sum(keep)),
        dropped_count=int(np.sum(~keep)),
        signal_dim=g1.shape[0],
        whitener=whitener,
        clipped_negatives=clipped,
    )


def _scaled_one_hot(signals: SignalMatrix):
    """``Y = sqrt(w) X diag(m)^-1/2`` over the columns of mean m > 0, the
    mask of those columns, their ``m^-1/2``, and the Gram matrix of Y on
    its smaller side: ``Y Y^T`` (rows x rows) or ``Y^T Y``."""
    w, x = _one_hot_readout(signals)
    means = w @ x
    keep = means > 0.0
    if not np.any(keep):
        raise EmptyRank("no signal column has a positive mean")
    scale = 1.0 / np.sqrt(means[keep])
    y = x[:, keep]  # a copy, scaled in place
    y *= np.sqrt(w)[:, None]
    y *= scale
    gram = y @ y.T if y.shape[0] < y.shape[1] else y.T @ y
    return y, keep, scale, gram


class _OneHotEigentasks(EigentaskDecomposition):
    """The one-hot route of :func:`eigentask_decomposition`: the spectrum is
    taken from ``signals`` at construction, the readout weights on first
    read of ``whitener``."""

    def __init__(self, signals: SignalMatrix):
        _, keep, _, gram = _scaled_one_hot(signals)
        beta = np.linalg.eigvalsh(gram)
        beta = beta[beta >= RANK_TOLERANCE * beta[-1]]
        self.sigma_sq, self.clipped_negatives, _ = _sorted_ratios(1.0 / beta - 1.0)
        self.retained_rank = beta.size
        self.dropped_count = keep.size - beta.size
        self.signal_dim = keep.size
        self._signals = signals

    @cached_property
    def eigentasks(self) -> np.ndarray:
        return np.eye(self.retained_rank)

    @cached_property
    def whitener(self) -> np.ndarray:
        """``diag(m)^-1/2 Y^T u / b`` for the ``retained_rank`` largest b,
        largest first, from one ``eigh`` of the Gram matrix of Y."""
        y, keep, scale, gram = _scaled_one_hot(self._signals)
        beta, vecs = np.linalg.eigh(gram)
        top = slice(-1, -self.retained_rank - 1, -1)
        beta, vecs = beta[top], vecs[:, top]
        spectrum = 1.0 / (1.0 + self.sigma_sq)
        if beta.shape != spectrum.shape or np.any(np.abs(beta - spectrum) > 1e-9 * spectrum[0]):
            raise NumericCheckFailure("the signals changed after their spectrum was taken")
        if gram.shape[0] < y.shape[1]:
            # V / sqrt(b), with the right singular vectors V = Y^T u / sqrt(b)
            weights = (y.T @ vecs) / beta
        else:
            weights = vecs / np.sqrt(beta)
        whitener = np.zeros((keep.size, beta.size))
        whitener[keep] = scale[:, None] * weights
        return whitener


# ---------------------------------------------------------------------------
# total capacity / IPC
# ---------------------------------------------------------------------------

@dataclass
class IPCReport:
    """Aggregate processing capacity with method provenance."""

    ipc_value: float
    method: str
    components: np.ndarray
    signal_count: int
    retained_rank: Optional[int] = None
    skipped_columns: int = 0
    truncation: Optional[dict] = None
    threshold: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "ipc": self.ipc_value,
            "method": self.method,
            "components": [float(c) for c in self.components],
            "signal_count": self.signal_count,
            "retained_rank": self.retained_rank,
            "skipped_columns": self.skipped_columns,
            "truncation": self.truncation,
            "threshold": self.threshold,
        }


def ipc_spectral(decomp: EigentaskDecomposition) -> IPCReport:
    """Total capacity from the eigentask spectrum: sum of 1/(1 + ratio)."""
    comps = 1.0 / (1.0 + decomp.sigma_sq)
    return IPCReport(
        ipc_value=float(np.sum(comps)),
        method="spectral",
        components=comps,
        signal_count=decomp.signal_dim,
        retained_rank=decomp.retained_rank,
    )


def ipc_probability_rep(signals: SignalMatrix) -> IPCReport:
    """Trace formula on probability signals: sum_k avg(p_k^2)/avg(p_k),
    averaged under the signals' own row weights.

    Columns whose mean is exactly zero are skipped (and counted); nothing
    else is thresholded or zeroed. A non-finite signal or row weight raises
    NumericCheckFailure.
    """
    if signals.mode != MODE_EXACT:
        raise ValueError("probability-trace needs exact-probability signals")
    data, w = _resolve_signals(signals, None)
    means = w @ data
    # a non-finite signal makes its column's sum non-finite, at no extra pass
    seconds = _finite(w @ (data * data), "signals")
    keep = means > 0.0
    skipped = int(np.sum(~keep))
    if skipped:
        logger.info("probability-trace: skipping %d zero-mean columns", skipped)
    comps = seconds[keep] / means[keep]
    return IPCReport(
        ipc_value=float(np.sum(comps)),
        method="probability-trace",
        components=comps,
        signal_count=int(np.sum(keep)),
        skipped_columns=skipped,
    )


# ---------------------------------------------------------------------------
# orthonormal target basis
# ---------------------------------------------------------------------------

def _legendre_orthonormal(degree: int, x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Legendre polynomial of ``degree`` normalized to unit L2 norm under the
    uniform measure on [lo, hi]."""
    xin = (2.0 * x - (hi + lo)) / (hi - lo)
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    return math.sqrt(2 * degree + 1) * np.polynomial.legendre.legval(xin, coeffs)


@dataclass
class TargetBasis:
    """Products of per-delay orthonormal polynomials of the drive history.

    Each generator is a multi-index ``(g_0, ..., g_D)``: the target at time
    t is the product over delays d of the degree-``g_d`` orthonormal
    polynomial evaluated at u(t - d). Indices are ordered graded
    lexicographically and truncated at ``max_delay`` and total degree
    ``max_degree``, and set at construction as ``indices``. ``measure_kind``
    is ``iid-uniform-interval`` or ``iid-uniform-binary``.
    """

    max_delay: int
    max_degree: int
    measure_kind: str
    lo: float = -1.0
    hi: float = 1.0
    indices: list = field(init=False)

    def __post_init__(self):
        if self.measure_kind not in ("iid-uniform-interval", "iid-uniform-binary"):
            raise InvalidInput(f"unknown basis measure kind: {self.measure_kind!r}")
        Interval(0, integer=True).check("max_delay", self.max_delay)
        binary = self.measure_kind == "iid-uniform-binary"  # whose u^2 = u: degree <= 1
        Interval(0, 1 if binary else None, integer=True).check("max_degree", self.max_degree)
        Interval().check("lo", self.lo)
        Interval(self.lo, open_lo=True).check("hi", self.hi)
        self.indices = self._enumerate_indices()

    def _enumerate_indices(self):
        slots = self.max_delay + 1
        found = []

        def rec(prefix, remaining):
            if len(prefix) == slots:
                found.append(tuple(prefix))
                return
            for g in range(remaining + 1):
                rec(prefix + [g], remaining - g)

        rec([], self.max_degree)
        found.sort(key=lambda idx: (sum(idx), idx))
        return found

    def __len__(self) -> int:
        return len(self.indices)

    def _phi(self, degree: int, x: np.ndarray) -> np.ndarray:
        if degree == 0:
            return np.ones_like(x)
        if self.measure_kind == "iid-uniform-binary":
            # fair coin on {0, 1}: the centered, unit-variance coordinate
            return 2.0 * x - 1.0
        return _legendre_orthonormal(degree, x, self.lo, self.hi)

    def evaluate(self, drives: np.ndarray) -> np.ndarray:
        """Target matrix with one row per time t >= max_delay.

        Row r corresponds to absolute time ``max_delay + r`` of ``drives``.
        """
        drives = np.asarray(drives, dtype=float)
        t_count = drives.size - self.max_delay
        if t_count < 1:
            raise ValueError("drive sequence shorter than max_delay")
        # cache per (delay, degree)
        cols = {}
        for idx in self.indices:
            for d, g in enumerate(idx):
                if g > 0 and (d, g) not in cols:
                    lagged = drives[self.max_delay - d:drives.size - d]
                    cols[(d, g)] = self._phi(g, lagged)
        out = np.ones((t_count, len(self.indices)))
        for j, idx in enumerate(self.indices):
            for d, g in enumerate(idx):
                if g > 0:
                    out[:, j] *= cols[(d, g)]
        return out

    def gram_error(self) -> float:
        """Max deviation of the basis Gram matrix from the identity.

        Orthonormality factorizes over delays for iid drives, so it is
        checked through one-dimensional quadrature (or exact enumeration for
        the binary drive) rather than Monte Carlo.
        """
        degrees = range(self.max_degree + 1)
        if self.measure_kind == "iid-uniform-binary":
            xs = np.array([0.0, 1.0])
            ws = np.array([0.5, 0.5])
        else:
            x, w = np.polynomial.legendre.leggauss(2 * self.max_degree + 2)
            xs = 0.5 * (self.hi + self.lo) + 0.5 * (self.hi - self.lo) * x
            ws = w / w.sum()
        vals = np.stack([self._phi(g, xs) for g in degrees])
        one_d = vals @ (ws[:, None] * vals.T)
        # gram[a, b] is the product over delays of one_d[ia[d], ib[d]]
        idx = np.asarray(self.indices)
        gram = np.ones((len(idx), len(idx)))
        for col in idx.T:
            gram *= one_d[col[:, None], col[None, :]]
        return float(np.max(np.triu(np.abs(gram - np.eye(len(idx))))))


def build_target_basis(measure, max_delay: int, max_degree: int) -> TargetBasis:
    """Target basis matched to an :class:`InputMeasure`."""
    kind = measure.kind
    if kind == "quadrature-grid":
        kind = "iid-uniform-interval"
    return TargetBasis(max_delay, max_degree, kind, lo=measure.lo, hi=measure.hi)


def total_capacity(signals, basis: TargetBasis, drives: np.ndarray,
                   start: int) -> IPCReport:
    """Sum of capacities over the truncated orthonormal target basis.

    ``drives`` is the full drive sequence; ``start`` is the absolute time of
    the first signal row (the washout length), at least
    ``basis.max_delay``. All targets are scored against one
    :class:`ReadoutFit` of the signals. Capacities below the finite-time
    threshold 4/sqrt(T) are reported but excluded from the total. A basis
    whose Gram matrix is off the identity by more than
    ``ORTHONORMALITY_TOL`` raises BasisNotOrthonormal.
    """
    Interval(basis.max_delay, integer=True).check("start", start)
    gram_err = basis.gram_error()
    if gram_err > ORTHONORMALITY_TOL:
        raise BasisNotOrthonormal(
            f"basis Gram deviates from identity by {gram_err:.3g}"
        )
    fit = ReadoutFit(signals)
    targets = basis.evaluate(np.asarray(drives, dtype=float))
    offset = start - basis.max_delay
    targets = targets[offset:offset + fit.rows]
    if targets.shape[0] != fit.rows:
        raise ValueError("drive sequence does not cover the signal rows")

    return _basis_sum_report(fit.score(targets), basis, fit.columns)


def _basis_sum_report(scores: ReadoutScores, basis: TargetBasis,
                      signal_count: int) -> IPCReport:
    """The basis-sum :class:`IPCReport` of ``scores`` over ``basis``: every
    capacity as a component, the total over those at or above threshold."""
    caps = scores.capacities
    included = ~scores.below_threshold
    return IPCReport(
        ipc_value=float(np.sum(caps[included])),
        method="basis-sum",
        components=caps,
        signal_count=signal_count,
        truncation={"max_delay": basis.max_delay, "max_degree": basis.max_degree,
                    "targets": len(basis), "excluded_below_threshold": int(np.sum(~included))},
        threshold=scores.threshold,
    )
