"""Subset-lattice transforms between bitstring probabilities and product moments.

The moment for mask ``S`` is the expectation of the product of the bits in
``S``, which for a probability vector ``p`` equals ``sum_{k superset of S}
p[k]``. Computing all ``2**n`` moments at once is the superset-sum (zeta)
transform; the inverse is its Moebius transform. Both run in O(n * 2**n).

Mask convention: mask bit ``j`` (weight ``2**j``) refers to the register bit
whose weight in the bitstring index is also ``2**j``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInput, InvalidSamples, Interval, NegativeProbability
from .reservoir import _check_dense
from .signals import MODE_MOMENT, SignalMatrix

# how far below 0 rounding may take the inversion of consistent moments
NEGATIVE_PROBABILITY_TOL = 1e-10


def _superset_pass(values, n: int, combine) -> np.ndarray:
    """Along each bit axis, ``values[m] = combine(values[m], values[m | bit])``
    for every ``m`` without the bit, in place on a float copy."""
    Interval(0, integer=True).check("n", n)
    _check_dense(n, "dense transforms")
    out = np.array(values, dtype=float, copy=True)
    t = out.reshape(out.shape[:-1] + (2,) * n)
    for k in reversed(range(n)):  # bit axes first to last; the order fixes the rounding
        tail = (slice(None),) * k
        lo = t[(..., 0) + tail]  # a view, even when it holds one value
        combine(lo, t[(..., 1) + tail], out=lo)
    return out


def zeta_superset(values: np.ndarray, n: int) -> np.ndarray:
    """In O(n * 2**n), replace values[m] with sum over supersets of m.

    Works on the last axis, so a (T, 2**n) matrix transforms row-wise.
    """
    return _superset_pass(values, n, np.add)


def mobius_superset(values: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`zeta_superset`."""
    return _superset_pass(values, n, np.subtract)


def moments_from_probabilities(probs: np.ndarray, n: int) -> np.ndarray:
    """All 2**n product moments of a probability row (or rows).

    A NaN, an infinite entry or one below ``-1e-12`` (rounding) raises
    :class:`InvalidInput`, a ``ValueError``. The check is one ``min`` pass
    over ``probs``, which NaN and negatives fail, plus a look at each row's
    total, the empty-mask moment, which an infinity makes infinite.
    """
    probs = np.asarray(probs, dtype=float)
    low = float(probs.min()) if probs.size else 0.0
    if not low >= -1e-12:
        raise InvalidInput(f"probabilities must be finite and non-negative, got an entry {low!r}")
    moments = zeta_superset(probs, n)
    if not np.isfinite(moments[..., 0]).all():
        raise InvalidInput("probabilities must be finite, got an infinite entry")
    return moments


def probabilities_from_moments(moments: np.ndarray, n: int) -> np.ndarray:
    """Invert :func:`moments_from_probabilities`.

    A non-finite moment raises :class:`InvalidInput`, a ``ValueError``.
    Raises NegativeProbability when the inversion produces an entry below
    ``-NEGATIVE_PROBABILITY_TOL``, which signals an inconsistent moment
    vector.
    """
    moments = np.asarray(moments, dtype=float)
    if not np.isfinite(moments).all():
        raise InvalidInput("moments must be finite")
    empty = moments[..., 0]
    if np.max(np.abs(empty - 1.0)) > 1e-9:
        raise InvalidInput("moment for the empty mask must be 1")
    probs = mobius_superset(moments, n)
    if np.min(probs) < -NEGATIVE_PROBABILITY_TOL:
        raise NegativeProbability(
            f"inverted probabilities reach {np.min(probs):.3g}; moments inconsistent"
        )
    return probs


def moments_for_masks(probs: np.ndarray, masks: Sequence[int], n: int) -> np.ndarray:
    """Moments for an explicit mask list, without a dense 2**n vector.

    Intended for n beyond the dense limit when only a few product signals
    are needed. ``probs`` must end in an axis of 2**n entries.
    """
    Interval(0, integer=True).check("n", n)
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-1:] != (2 ** n,):
        raise InvalidInput(f"probs must end in an axis of 2**{n} entries, got shape {probs.shape}")
    idx = np.arange(probs.shape[-1], dtype=np.int64)
    out = np.empty(probs.shape[:-1] + (len(masks),))
    for j, m in enumerate(masks):
        m = int(Interval(0, 2 ** n, open_hi=True, integer=True).check("mask", m))
        sel = (idx & m) == m
        out[..., j] = probs[..., sel].sum(axis=-1)
    return out


def moments_from_samples(samples: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """Empirical product moments straight from sampled bitstrings.

    ``samples`` is any integer array of non-negative bitstring indices, read
    in its own dtype without a copy; for each mask the result is the
    fraction of samples containing that mask. A mask wider than the dtype
    is in no sample and gives 0. Non-integer, negative or no samples, and
    masks that are not integers >= 0, raise :class:`InvalidSamples`, an
    :class:`InvalidInput`.
    """
    samples = np.asarray(samples)
    if samples.dtype.kind not in "iu":
        raise InvalidSamples(f"samples must be integers, got dtype {samples.dtype}")
    if not samples.size:
        raise InvalidSamples("no samples: the fraction holding a mask is undefined")
    if samples.dtype.kind == "i" and samples.min() < 0:
        raise InvalidSamples("samples must be non-negative bitstring indices")
    widest = np.iinfo(samples.dtype).max
    out = np.empty(len(masks))
    for j, m in enumerate(masks):
        m = int(Interval(0, integer=True).check("mask", m, InvalidSamples))
        out[j] = np.mean((samples & m) == m) if m <= widest else 0.0
    return out


def signal_moments(sm: SignalMatrix) -> SignalMatrix:
    """Row-wise moment transform of a probability/frequency signal matrix."""
    data = moments_from_probabilities(sm.data, sm.n)
    out = SignalMatrix(data, MODE_MOMENT, sm.n, weights=sm.weights, shots=sm.shots)
    out.validate()
    return out
