"""Input-driven stochastic bit circuits.

A reservoir here is a fixed sequence of local stochastic gates applied once
per time step to a register of ``n`` bits, with gate kernels that may depend
on a scalar drive ``u``. The exact state is a probability vector over all
``2**n`` bitstrings; the sampled state is an ensemble of bitstring
trajectories. Construction enforces physicality budgets: gate locality,
per-step depth, and a bound on how fast kernel entries may change with the
drive.

Bit conventions: bit ``i`` of bitstring index ``k`` is the coefficient of
``2**(n-1-i)``, i.e. indices read the bitstring left to right, and the state
vector is ordered ``p[0] = p_{00...0}`` through ``p[2**n - 1] = p_{11...1}``.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import rng as _rng
from .errors import (
    DepthViolation,
    DriveBoundViolation,
    DriveDerivativeViolation,
    EmptyAfterWashout,
    ExactModeOverflow,
    InsufficientTrials,
    InvalidInput,
    InvalidSamples,
    LocalityViolation,
    MixedDimensions,
    NonfiniteDrive,
    NumericCheckFailure,
    StochasticityViolation,
)
from .fileio import read_raw, write_raw

logger = logging.getLogger(__name__)

EXACT_MODE_MAX_BITS = 14
DERIVATIVE_PROBE_POINTS = 256
ROW_SUM_TOL = 1e-12
DEFAULT_K_MAX = 2
DEFAULT_WASHOUT = 1000
# the sampler's block: shots simulated together, and the steps whose
# uniforms they draw at once
SAMPLE_BLOCK = 1024
SAMPLE_STEPS = 32
# a run of static plan ops folds into one kernel product when the product
# takes at most this many multiplications per op it replaces (see
# _fold_static_runs)
DENSE_ENTRIES_PER_OP = 8192
# the count sampler takes a block op whole, one multinomial per occupied
# state over the block's sub-states, when those draws have at most this
# many entries per op the block replaces (see _whole_block_counts_pay)
COUNT_ENTRIES_PER_OP = 64
# largest |sum / previous sum - 1| of run_exact's unnormalized state over
# one step; a gate's kernel rows may be off by ROW_SUM_TOL
RENORM_DRIFT_TOL = 1e-9


def default_depth_bound(n: int) -> int:
    """Gates allowed per step: linear in the bit count."""
    return 4 * n


def default_derivative_bound(n: int) -> float:
    """Max |d(kernel entry)/du| allowed: linear in the bit count."""
    return 4.0 * max(n, 1)


# ---------------------------------------------------------------------------
# drive-dependent kernel entries
# ---------------------------------------------------------------------------

def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def eval_drive_fn(spec: dict, u):
    """Evaluate a drive-to-probability function.

    Supported forms:

    - ``{"type": "constant", "value": v}``
    - ``{"type": "poly", "coeffs": [c0, c1, ...]}`` -- polynomial in ``u``,
      clipped into [0, 1].
    - ``{"type": "logistic", "rate": b, "center": c, "lo": l, "hi": h}`` --
      ``l + (h - l) * sigmoid(b * (u - c))``.
    """
    kind = spec["type"]
    if kind == "constant":
        return np.clip(float(spec["value"]), 0.0, 1.0) * np.ones_like(np.asarray(u, dtype=float))
    if kind == "poly":
        coeffs = np.asarray(spec["coeffs"], dtype=float)
        val = np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), coeffs)
        return np.clip(val, 0.0, 1.0)
    if kind == "logistic":
        lo = float(spec.get("lo", 0.0))
        hi = float(spec.get("hi", 1.0))
        rate = float(spec["rate"])
        center = float(spec.get("center", 0.0))
        return lo + (hi - lo) * _sigmoid(rate * (np.asarray(u, dtype=float) - center))
    raise ValueError(f"unknown drive function type: {kind!r}")


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

# each drive-dependent kind as one two-rate bit kernel: (P(0->1), P(1->0))
# from the gate's drives, evaluated by parameter name
_TWO_RATE = {
    "flip": lambda d: (d["drive"], d["drive"]),
    "set": lambda d: (d["drive"], 1.0 - d["drive"]),
    "asymmetric_flip": lambda d: (d["drive01"], d["drive10"]),
    "controlled_flip": lambda d: (d["drive"], d["drive"]),
}


@dataclass(frozen=True)
class StochasticGate:
    """A stochastic circuit element acting on a few bits.

    Parameters
    ----------
    support : tuple of int
        Bit indices the gate acts on, in kernel axis order.
    kind : str
        One of ``constant``, ``permutation``, ``flip``, ``set``,
        ``asymmetric_flip``, ``controlled_flip``.
    params : dict
        Kind-specific parameters (see the ``*_gate`` constructors).
    derivative_bound : float, optional
        Per-gate override for the max allowed |d(entry)/du|.
    """

    support: tuple
    kind: str
    params: dict
    derivative_bound: Optional[float] = None

    @property
    def arity(self) -> int:
        return len(self.support)

    @property
    def is_static(self) -> bool:
        """True when the kernel does not depend on the drive: every drive
        spec in ``params`` is constant (``constant`` and ``permutation``
        gates have none)."""
        return all(spec.get("type") == "constant"
                   for spec in self.params.values() if isinstance(spec, dict))

    def kernel(self, u) -> np.ndarray:
        """Row-stochastic transition matrix of shape (2**arity, 2**arity).

        For an array of drives ``u`` the result is the stack of kernels, of
        shape ``u.shape + (2**arity, 2**arity)``, built entry by entry with
        the same arithmetic as one drive at a time. Every drive-dependent
        kind is the two-rate bit kernel ``[[1 - a, a], [b, 1 - b]]`` of
        :data:`_TWO_RATE` on the last support bit, applied when every other
        support bit is 1: the whole kernel of a 1-bit gate, and the
        lower-right block of the identity for ``controlled_flip``, whose
        support is (control, target).
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "constant":
            k = np.asarray(self.params["matrix"], dtype=float)
            return np.broadcast_to(k, u.shape + k.shape)
        if self.kind == "permutation":
            perm = self.params["perm"]
            dim = len(perm)
            k = np.zeros((dim, dim))
            k[np.arange(dim), perm] = 1.0
            return np.broadcast_to(k, u.shape + k.shape)
        if self.kind not in _TWO_RATE:
            raise ValueError(f"unknown gate kind: {self.kind!r}")
        a, b = _TWO_RATE[self.kind]({name: eval_drive_fn(spec, u)
                                     for name, spec in self.params.items()})
        dim = 2 ** self.arity
        k = np.zeros(u.shape + (dim, dim))
        held = np.arange(dim - 2)
        k[..., held, held] = 1.0
        k[..., -2, -2], k[..., -2, -1] = 1.0 - a, a
        k[..., -1, -2], k[..., -1, -1] = b, 1.0 - b
        return k


def _drive_spec(drive) -> dict:
    """A drive spec dict as given, or a number as a constant drive."""
    return drive if isinstance(drive, dict) else {"type": "constant", "value": float(drive)}


def constant_gate(support, matrix) -> StochasticGate:
    return StochasticGate(tuple(support), "constant", {"matrix": np.asarray(matrix, dtype=float).tolist()})


def permutation_gate(support, perm) -> StochasticGate:
    return StochasticGate(tuple(support), "permutation", {"perm": [int(i) for i in perm]})


def identity_gate(bit: int) -> StochasticGate:
    return permutation_gate((bit,), [0, 1])


def flip_gate(bit: int, drive) -> StochasticGate:
    """Flip ``bit`` with probability given by ``drive`` (dict or constant)."""
    return StochasticGate((int(bit),), "flip", {"drive": _drive_spec(drive)})


def set_gate(bit: int, drive) -> StochasticGate:
    """Resample ``bit`` to 1 with probability given by ``drive``."""
    return StochasticGate((int(bit),), "set", {"drive": _drive_spec(drive)})


def asymmetric_flip_gate(bit: int, drive01, drive10) -> StochasticGate:
    """1-bit kernel with separate 0->1 and 1->0 transition probabilities.

    The state feeds back: the chain has memory whenever the two
    probabilities do not sum to one.
    """
    return StochasticGate((int(bit),), "asymmetric_flip",
                          {"drive01": _drive_spec(drive01), "drive10": _drive_spec(drive10)})


def controlled_flip_gate(control: int, target: int, drive) -> StochasticGate:
    return StochasticGate((int(control), int(target)), "controlled_flip",
                          {"drive": _drive_spec(drive)})


def swap_gate(i: int, j: int) -> StochasticGate:
    return permutation_gate((i, j), [0, 2, 1, 3])


def cnot_gate(control: int, target: int) -> StochasticGate:
    return permutation_gate((control, target), [0, 1, 3, 2])


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

@dataclass
class BitstringDistribution:
    """Probability vector over the 2**n bitstrings of an n-bit register."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 1 or self.probs.size < 1:
            raise ValueError("probs must be a 1-D vector")
        n = int(round(math.log2(self.probs.size)))
        if 2 ** n != self.probs.size:
            raise ValueError("probs length must be a power of two")

    @property
    def n(self) -> int:
        return int(round(math.log2(self.probs.size)))

    def validate(self, tol: float = 1e-12) -> None:
        if np.any(self.probs < -tol):
            raise ValueError("negative probability entry")
        if abs(self.probs.sum() - 1.0) > tol:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}, not 1")

    @classmethod
    def uniform(cls, n: int) -> "BitstringDistribution":
        return cls(np.full(2 ** n, 1.0 / 2 ** n))

    @classmethod
    def point_mass(cls, n: int, index: int) -> "BitstringDistribution":
        """All mass on bitstring ``index``, an integer (not a bool) in
        [0, 2**n); any other index raises :class:`InvalidInput`, a
        ``ValueError``."""
        if (isinstance(index, bool) or not isinstance(index, numbers.Integral)
                or not 0 <= index < 2 ** n):
            raise InvalidInput(
                f"point mass index must be an integer in [0, {2 ** n}), got {index!r}")
        p = np.zeros(2 ** n)
        p[index] = 1.0
        return cls(p)


@dataclass(frozen=True)
class InputMeasure:
    """Distribution of the scalar drive, with its own seed.

    Kinds: ``iid-uniform-interval`` on [lo, hi], ``iid-uniform-binary`` on
    {0, 1}, and ``quadrature-grid`` (Gauss-Legendre nodes on [lo, hi] with
    probability weights), the latter used for exact input averages.
    """

    kind: str
    lo: float = -1.0
    hi: float = 1.0
    order: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("iid-uniform-interval", "iid-uniform-binary", "quadrature-grid"):
            raise ValueError(f"unknown measure kind: {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.kind == "quadrature-grid" and self.order < 2:
            raise ValueError("quadrature order must be >= 2")

    def quadrature(self):
        """Nodes and probability weights (weights sum to 1)."""
        x, w = np.polynomial.legendre.leggauss(self.order)
        nodes = 0.5 * (self.hi + self.lo) + 0.5 * (self.hi - self.lo) * x
        return nodes, w / w.sum()

    def draw(self, length: int, generator) -> np.ndarray:
        """Sample ``length`` iid drive values using ``generator``."""
        if self.kind == "iid-uniform-interval":
            return generator.uniform(self.lo, self.hi, size=length)
        if self.kind == "iid-uniform-binary":
            return generator.integers(0, 2, size=length).astype(float)
        nodes, weights = self.quadrature()
        return generator.choice(nodes, size=length, p=weights)

    def sequence(self, length: int, washout_length: int = DEFAULT_WASHOUT) -> "InputSequence":
        """Build an :class:`InputSequence` of scalar drives from this measure,
        drawn from the stream of its ``seed``.

        For ``quadrature-grid`` the sequence is the node grid itself (with
        per-row weights), so ``length`` must be ``order`` and
        ``washout_length`` 0; anything else raises ``ValueError``.
        """
        if self.kind == "quadrature-grid":
            if length != self.order or washout_length != 0:
                raise ValueError(
                    f"a quadrature-grid sequence is its {self.order} nodes with no washout; "
                    f"got length {length} and washout_length {washout_length}")
            nodes, weights = self.quadrature()
            return InputSequence(nodes[:, None], washout_length=0, weights=weights)
        gen = _rng.stream(self.seed)
        values = self.draw(length, gen)[:, None]
        return InputSequence(values, washout_length=washout_length)


@dataclass
class InputSequence:
    """Ordered scalar drive inputs with a washout length and optional row weights.

    ``values`` is a 1-D array of T drives or a (T, 1) column of them, and is
    held as the column; any other shape, such as (T, m) with m > 1, is
    rejected rather than reduced to a scalar per step. ``washout_length``
    must be an integer (not a bool), else :class:`InvalidInput`, a
    ``ValueError``, is raised.
    """

    values: np.ndarray
    washout_length: int = DEFAULT_WASHOUT
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.ndim != 2 or self.values.shape[1] != 1:
            raise ValueError(f"values must be 1-D (T,) or (T, 1), got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise NonfiniteDrive("input values must be finite")
        if (isinstance(self.washout_length, bool)
                or not isinstance(self.washout_length, numbers.Integral)):
            raise InvalidInput(f"washout_length must be an integer, got {self.washout_length!r}")
        if self.washout_length < 0:
            raise ValueError("washout_length must be >= 0")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (len(self),):
                raise ValueError("weights must have one entry per step")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def drives(self) -> np.ndarray:
        return self.values[:, 0]


@dataclass
class ReservoirSpec:
    """Declarative description of one reservoir: register size, the gate
    sequence applied every step, and physicality budgets."""

    n: int
    gates: list
    initial_state: Optional[BitstringDistribution] = None
    k_max: int = DEFAULT_K_MAX
    depth_bound: Optional[int] = None
    derivative_bound: Optional[float] = None
    drive_domain: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one bit")
        if self.initial_state is None:
            self.initial_state = BitstringDistribution.uniform(self.n)
        if self.depth_bound is None:
            self.depth_bound = default_depth_bound(self.n)
        if self.derivative_bound is None:
            self.derivative_bound = default_derivative_bound(self.n)

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "k_max": self.k_max,
            "depth_bound": self.depth_bound,
            "derivative_bound": self.derivative_bound,
            "drive_domain": list(self.drive_domain),
            "gates": [
                {
                    "support": list(g.support),
                    "kernel_kind": g.kind,
                    "params": g.params,
                    "derivative_bound": g.derivative_bound,
                }
                for g in self.gates
            ],
            "initial_state": self.initial_state.probs.tolist(),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReservoirSpec":
        doc = json.loads(text)
        gates = [
            StochasticGate(
                tuple(g["support"]), g["kernel_kind"], g["params"],
                g.get("derivative_bound"),
            )
            for g in doc["gates"]
        ]
        return cls(
            n=doc["n"],
            gates=gates,
            initial_state=BitstringDistribution(np.asarray(doc["initial_state"])),
            k_max=doc.get("k_max", DEFAULT_K_MAX),
            depth_bound=doc.get("depth_bound"),
            derivative_bound=doc.get("derivative_bound"),
            drive_domain=tuple(doc.get("drive_domain", (-1.0, 1.0))),
        )


@dataclass
class TrajectoryEnsemble:
    """Sampled bitstring trajectories: ``samples[s, t]`` is the register
    state of shot ``s`` after post-washout step ``t``.

    ``samples`` must be a 2-D integer array with at least one shot and one
    step, every entry in [0, 2**n); anything else raises
    :class:`InvalidSamples`, a ``ValueError``. It is held in the register's
    own width, ``np.min_scalar_type(2**n - 1)`` (``uint8`` through n = 8,
    ``uint16`` through n = 16), without a copy when it already has that
    dtype; :meth:`save` writes ``int64``.
    """

    samples: np.ndarray
    n: int
    seed_root: int
    washout_length: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "iu":
            raise InvalidSamples(f"samples must be integers, got dtype {samples.dtype}")
        if samples.ndim != 2 or samples.size == 0:
            raise InvalidSamples("samples must be a (shots, steps) array with at least "
                                 f"one of each, got shape {samples.shape}")
        if int(samples.min()) < 0 or int(samples.max()) >= 2 ** self.n:
            raise InvalidSamples("sample indices out of range for n bits")
        self.samples = samples.astype(np.min_scalar_type(2 ** self.n - 1), copy=False)

    @property
    def shots(self) -> int:
        return self.samples.shape[0]

    @property
    def steps(self) -> int:
        return self.samples.shape[1]

    def save(self, path) -> None:
        """Persist as raw row-major int64 plus a JSON sidecar at ``<path>.json``;
        :meth:`load` narrows the samples back to the register's width."""
        write_raw(path, self.samples, "<i8", {
            "n": self.n,
            "S": self.shots,
            "T": self.steps,
            "seed": self.seed_root,
            "washout": self.washout_length,
            "dtype": "<i8",
        })

    @classmethod
    def load(cls, path) -> "TrajectoryEnsemble":
        raw, sidecar = read_raw(path, "<i8", ("S", "T"))
        return cls(raw, sidecar["n"], sidecar["seed"], sidecar.get("washout", 0))


# ---------------------------------------------------------------------------
# compiled step plan
# ---------------------------------------------------------------------------

def _bit_shifts(support, n: int) -> list:
    """Right shifts that bring each support bit to position 0."""
    return [n - 1 - b for b in support]


def _read_bits(states: np.ndarray, shifts) -> np.ndarray:
    """Sub-register index of the bits at ``shifts``, first one most significant."""
    if not shifts:
        return np.zeros_like(states)
    sub = (states >> shifts[0]) & 1
    for sh in shifts[1:]:
        sub = (sub << 1) | ((states >> sh) & 1)
    return sub


def _flip_bits(states: np.ndarray, diff: np.ndarray, shifts) -> None:
    """XOR the sub-register bits ``diff`` into ``states``, in place."""
    for sh in reversed(shifts):
        states ^= (diff & 1) << sh
        diff = diff >> 1


def _cdf_columns(kernel: np.ndarray) -> np.ndarray:
    """Cumulative kernel rows, column-major, without the last column.

    ``cols[j, sub]`` is the probability that row ``sub`` selects an index
    ``<= j``. The last column would be 1, which no uniform in [0, 1)
    reaches, so it never counts and is left out. A stack of kernels gives
    the stack of their tables.
    """
    return np.ascontiguousarray(np.swapaxes(np.cumsum(kernel, axis=-1)[..., :-1], -1, -2))


def _is_bijection(gate: StochasticGate) -> bool:
    return (gate.kind == "permutation"
            and sorted(gate.params["perm"]) == list(range(2 ** gate.arity)))


class _GatherOp:
    """A run of adjacent bijective permutation gates, fused into one index map.

    ``fwd[k]`` is where bitstring ``k`` lands after the run, so sampled
    states step to ``fwd[states]``; ``src`` is its inverse, so an exact
    distribution steps to ``vec[src]``. Both are exact: a permutation
    moves probability without arithmetic, and a one-hot kernel row's CDF
    selects its column for every uniform in [0, 1).
    """

    def __init__(self, gates, n: int):
        self.gates = gates
        dim = 2 ** n
        fwd = np.arange(dim, dtype=np.int64)
        for gate in gates:
            shifts = _bit_shifts(gate.support, n)
            sub = _read_bits(fwd, shifts)
            _flip_bits(fwd, sub ^ np.asarray(gate.params["perm"], dtype=np.int64)[sub], shifts)
        self.fwd = fwd
        self.src = np.empty_like(fwd)
        self.src[fwd] = np.arange(dim, dtype=np.int64)

    varies = False  # with the drive

    def kernel(self, u):
        return None

    def exact(self, vec: np.ndarray, kernel) -> np.ndarray:
        return vec[..., self.src]


class _KernelOp:
    """One gate applied through its kernel, with the tensor axes precomputed.

    The register is viewed with each support bit as its own axis and each
    run of other bits merged into one; the support axes are moved to the
    front, the kernel acts on them as a matrix product, and the inverse
    transpose puts them back. The element order, and so the arithmetic, is
    that of moving the support axes of the full ``(2,) * n`` tensor. States
    are the rows of a ``(batch, 2**n)`` array, whose batch axis moves in
    right behind the support axes, so that a whole batch is one matrix
    product.
    """

    def __init__(self, index: int, gate: StochasticGate, n: int):
        self.index = index  # the gate's column in the sampler's uniforms
        self.gate = gate
        self.gates = (gate,)
        self._set_axes(gate.support, n)
        self.varies = not gate.is_static
        self.static = None if self.varies else gate.kernel(0.0)

    def _set_axes(self, support, n: int) -> None:
        self.shifts = _bit_shifts(support, n)
        # axis label: the support bit, or None for a merged run of other bits
        runs = [(label, len(list(bits))) for label, bits in itertools.groupby(
            range(n), lambda b: b if b in support else None)]
        labels = [label for label, _ in runs]
        dims = [2 ** size for _, size in runs]
        # the batch axis (0) goes right behind the support axes
        axes = [labels.index(b) + 1 for b in support] + [0]
        axes += [i + 1 for i, label in enumerate(labels) if label is None]
        self.rows = 2 ** len(support)
        self.shape = (-1, *dims)
        self.axes = tuple(axes)
        self.moved = tuple(dims[a - 1] if a else -1 for a in axes)
        self.inverse = tuple(np.argsort(axes).tolist())

    def kernel(self, u) -> np.ndarray:
        return self.gate.kernel(u) if self.varies else self.static

    def exact(self, vec: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        mat = vec.reshape(self.shape).transpose(self.axes).reshape(self.rows, -1)
        return (kernel.T @ mat).reshape(self.moved).transpose(self.inverse).reshape(vec.shape)

    def sample(self, states: np.ndarray, cdf: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Each shot's new sub-register, drawn from its kernel row by its uniform ``r``."""
        sub = _read_bits(states, self.shifts)
        # index = #{j : cdf_j <= r}: half-open buckets, so states of
        # probability zero are never selected
        new_sub = (cdf[:, sub] <= r).sum(axis=0, dtype=states.dtype)
        _flip_bits(states, sub ^ new_sub, self.shifts)
        return states


def _op_bits(op) -> set:
    """The bits that a gather or kernel op reads and writes."""
    return {b for gate in op.gates for b in gate.support}


class _BlockOp(_KernelOp):
    """A run of static ops on the bits ``bits`` folded into one kernel op.

    ``matrix`` is the run's kernel on the ``len(bits)``-bit sub-register of
    those bits, the first one most significant: row ``s`` is the
    distribution after the run from sub-register state ``s``. It is built
    on that sub-register alone, by running the parts, their bits moved into
    it, over its identity. An exact state steps by one kernel op with
    this matrix, or by one product ``vec @ matrix`` when the bits are the
    whole register. Its sums group the parts' products differently, so an
    exact step moves in the last bits. The matrix is also its static
    kernel. The per-shot sampler takes the parts themselves (see
    :func:`_op_parts`), each on its own uniforms and with the CDF table of
    its own kernel, so every stream and sample is unchanged. The count
    sampler takes the block whole, with the matrix as its kernel, where
    that pays, and by its parts otherwise (see :func:`_count_steps`).
    """

    varies = False  # with the drive

    def __init__(self, parts, bits, n: int):
        self.parts = parts
        bits = sorted(bits)
        self._set_axes(bits, n)
        self.spans = len(bits) == n
        at = {b: i for i, b in enumerate(bits)}
        rows = np.eye(self.rows)
        for part in parts:
            moved = [replace(g, support=tuple(at[b] for b in g.support)) for g in part.gates]
            local = (_GatherOp(moved, len(bits)) if isinstance(part, _GatherOp)
                     else _KernelOp(part.index, moved[0], len(bits)))
            rows = local.exact(rows, part.kernel(0.0))
        self.matrix = np.ascontiguousarray(rows)

    def kernel(self, u) -> np.ndarray:
        return self.matrix

    def exact(self, vec: np.ndarray, kernel) -> np.ndarray:
        if self.spans:
            return vec @ self.matrix
        return super().exact(vec, self.matrix)


def _product_pays(bits: int, n: int, ops: int) -> bool:
    """The fold cost rule: one kernel product on ``bits`` bits of an
    ``n``-bit register, with its ``2**(bits + n)`` multiplications, costs no
    more than the ``ops`` plan ops it replaces."""
    return 2 ** (bits + n) <= ops * DENSE_ENTRIES_PER_OP


def _fold_static_runs(ops, n: int) -> list:
    """Fold each maximal run of static ops into fewer kernel products where it pays.

    A run is cut, first op to last, into groups that each grow while one
    kernel product on the bits ``U`` they touch, with its ``2**(len(U) +
    n)`` multiplications, costs no more than the group's ops
    (:func:`_product_pays`):
    ``2**(len(U) + n) <= len(group) * DENSE_ENTRIES_PER_OP``. Each group
    of two or more ops, at least one of them a kernel op, folds into one
    :class:`_BlockOp` on ``U``. The noise flips of the scan family, one
    bit each, fold into one block of the whole register through n = 8,
    and into blocks of 6 + 3, 5 + 5 and 4 + 4 + 3 bits at n = 9, 10 and 11.
    """
    out = []
    for static, group in itertools.groupby(ops, lambda op: not op.varies):
        run = list(group)
        if not static:
            out += run
            continue
        start, bits = 0, set()
        for i, op in enumerate(run):
            grown = bits | _op_bits(op)
            if _product_pays(len(grown), n, i + 1 - start):
                bits = grown
            else:
                out += _folded(run[start:i], bits, n)
                start, bits = i, _op_bits(op)
        out += _folded(run[start:], bits, n)
    return out


def _folded(group, bits, n: int) -> list:
    """``group`` as one :class:`_BlockOp` on ``bits``, or as it is when it
    has fewer than two ops or no kernel op."""
    if len(group) < 2 or not any(isinstance(op, _KernelOp) for op in group):
        return group
    return [_BlockOp(group, bits, n)]


class StepPlan:
    """A gate sequence compiled once for exact and sampled propagation.

    Each run of adjacent bijective permutation gates (swap, cnot, identity)
    becomes one index gather; every other gate becomes a kernel op with its
    transpose axes worked out here instead of at every step. Fusion needs
    tables of ``2**n`` indices, so above the exact-mode cap every gate stays
    a kernel op (a permutation's one-hot kernel samples exactly). Up to the
    cap, runs of static ops that hold a kernel op fold into block ops, each
    one kernel op on the bits its group touches, where one product is
    cheaper than the ops it replaces (see :func:`_fold_static_runs`); on
    small registers a block spans the whole register (through n = 8 for
    the scan family) and is one matrix-vector product. Exact steps through
    a folded run agree with gate-by-gate ones within 1e-13 per entry (about
    1e-16 in practice), not bit for bit. The per-shot sampler takes block
    ops by their parts (see :func:`_op_parts`), from the ops as they are at
    the call, so its samples are those of one gate at a time.

    An exact step at drive ``u`` is one product with a whole-step
    ``2**n`` x ``2**n`` matrix when the plan ``tabulates``, that is when
    the same cost rule passes for all ``n`` bits and all the step's gates
    (``4**n <= len(gates) * DENSE_ENTRIES_PER_OP``, through n = 8 for the
    scan family), and every drive-dependent kernel at ``u`` is 0/1, as a
    ``set`` gate's is under binary drives. The rule depends on the plan
    and ``u`` alone, so every exact caller steps alike. The plan holds no
    kernels or matrices of any drive: each exact call resolves its own
    drive values (see :class:`_ExactSteps`).
    """

    def __init__(self, gates, n: int):
        fuse = n <= EXACT_MODE_MAX_BITS
        ops = []
        for gather, run in itertools.groupby(
                enumerate(gates), lambda item: fuse and _is_bijection(item[1])):
            if gather:
                ops.append(_GatherOp([gate for _, gate in run], n))
            else:
                ops += [_KernelOp(index, gate, n) for index, gate in run]
        # above the cap exact steps are refused, so a folded kernel is never used
        self.ops = _fold_static_runs(ops, n) if fuse else ops
        self.n = n
        self.tabulates = fuse and _product_pays(n, n, len(gates))


class _ExactSteps:
    """The exact steps of one call at its distinct drive ``values``.

    ``kernels`` holds each op's kernels, built once: for a drive-dependent
    op the stack of one kernel per value, else its static kernel or None.
    ``steps[i]`` is the step at value ``i`` as a pair (table, clip). When
    the plan tabulates, each value whose drive-dependent kernels are all
    0/1 has its whole-step matrix as table, built by running the ops over
    the identity, one per distinct tuple of such kernels; every other value
    has None, and its step is the ops in turn. ``clip`` is False only for a
    table with no entry whose sign bit is set: its product with a state
    that has none either has none, so clipping it at zero changes no bit.
    The object lives for one call, so its tables do too, and they see the
    ops as they are at the call.
    """

    def __init__(self, plan: StepPlan, values: np.ndarray):
        self.ops = plan.ops
        self.kernels = [op.kernel(values) for op in plan.ops]
        self.steps = [(None, True)] * len(values)
        if not plan.tabulates:
            return
        varying = [k for op, k in zip(self.ops, self.kernels) if op.varies]
        deterministic = np.ones(len(values), dtype=bool)
        for k in varying:
            deterministic &= ((k == 0.0) | (k == 1.0)).all(axis=(-2, -1))
        rows = np.flatnonzero(deterministic)
        if not rows.size:  # np.unique by rows is slow even on no rows
            return
        # each row's 0/1 kernels side by side; with no drive-dependent op,
        # every row has the one empty key
        keys = np.concatenate([np.empty((len(rows), 0))]
                              + [k.reshape(len(values), -1)[rows] for k in varying], axis=1)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        tables = [np.ascontiguousarray(self.run_ops(np.eye(2 ** plan.n), rows[i]))
                  for i in first.tolist()]
        tables = [(table, bool(np.signbit(table).any())) for table in tables]
        for i, j in zip(rows.tolist(), inverse.tolist()):
            self.steps[i] = tables[j]

    def run_ops(self, vec: np.ndarray, i: int) -> np.ndarray:
        """The rows of ``vec`` (states) through the ops with their kernels
        at value ``i``."""
        for op, kernel in zip(self.ops, self.kernels):
            vec = op.exact(vec, kernel[i] if op.varies else kernel)
        return vec

    def __call__(self, vec: np.ndarray, i: int) -> np.ndarray:
        """The rows of ``vec`` after one exact step at value ``i``."""
        table, _ = self.steps[i]
        return self.run_ops(vec, i) if table is None else vec @ table


# ---------------------------------------------------------------------------
# validated reservoir
# ---------------------------------------------------------------------------

class Reservoir:
    """A validated reservoir ready for exact or sampled propagation.

    Create via :func:`build_reservoir`; construction re-checks all
    physicality budgets and compiles the gate sequence into ``plan``.
    """

    def __init__(self, spec: ReservoirSpec):
        self.spec = spec
        self.n = spec.n
        self.dim = 2 ** spec.n
        self.plan = StepPlan(spec.gates, spec.n)

    @property
    def gates(self):
        return self.spec.gates


def _probe_grid(domain, points=DERIVATIVE_PROBE_POINTS):
    return np.linspace(domain[0], domain[1], points)


def _validate_gate(gate: StochasticGate, n: int, k_max: int,
                   derivative_bound: float, domain) -> None:
    if len(set(gate.support)) != gate.arity:
        raise LocalityViolation(f"gate support has repeated bits: {gate.support}")
    if gate.arity > k_max:
        raise LocalityViolation(
            f"gate touches {gate.arity} bits, locality budget is {k_max}"
        )
    if any(b < 0 or b >= n for b in gate.support):
        raise LocalityViolation(f"gate support {gate.support} outside register 0..{n - 1}")

    dim = 2 ** gate.arity
    grid = _probe_grid(domain)
    stack = gate.kernel(grid)
    if stack.shape[1:] != (dim, dim):
        raise StochasticityViolation(
            f"kernel shape {stack.shape[1:]} does not match support size {gate.arity}"
        )
    if np.any(stack < -ROW_SUM_TOL) or np.any(stack > 1 + ROW_SUM_TOL):
        raise StochasticityViolation("kernel entries outside [0, 1]")
    row_sums = stack.sum(axis=2)
    if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
        raise StochasticityViolation(
            f"kernel rows sum to 1 +/- {np.max(np.abs(row_sums - 1.0)):.3g}"
        )

    bound = gate.derivative_bound if gate.derivative_bound is not None else derivative_bound
    if not gate.is_static:
        # central differences over the probe grid
        du = grid[1] - grid[0]
        slopes = np.abs(stack[2:] - stack[:-2]) / (2 * du)
        max_slope = float(slopes.max()) if slopes.size else 0.0
        if max_slope > bound:
            raise DriveDerivativeViolation(
                f"kernel entry slope {max_slope:.4g} exceeds bound {bound:.4g}"
            )


def build_reservoir(spec: ReservoirSpec) -> Reservoir:
    """Validate ``spec`` against its physicality budgets (``k_max``,
    ``depth_bound``, ``derivative_bound``) and return a handle.

    Raises
    ------
    LocalityViolation, DepthViolation, DriveDerivativeViolation,
    StochasticityViolation
    """
    if len(spec.gates) > spec.depth_bound:
        raise DepthViolation(
            f"{len(spec.gates)} gates per step exceeds depth budget {spec.depth_bound}"
        )
    for gate in spec.gates:
        _validate_gate(gate, spec.n, spec.k_max, spec.derivative_bound, spec.drive_domain)
    spec.initial_state.validate(tol=1e-12)
    if spec.initial_state.n != spec.n:
        raise MixedDimensions("initial state size does not match n")
    return Reservoir(spec)


# ---------------------------------------------------------------------------
# exact propagation
# ---------------------------------------------------------------------------

def _checked_drives(reservoir: Reservoir, inputs: InputSequence) -> tuple:
    """The distinct drive values of ``inputs`` and the index of each step's
    value among them (``np.unique``), once a step is left after washout and
    every drive is finite and within the reservoir's drive domain."""
    if len(inputs) <= inputs.washout_length:
        raise EmptyAfterWashout(
            f"sequence length {len(inputs)} <= washout {inputs.washout_length}"
        )
    drives = inputs.drives
    if not np.all(np.isfinite(drives)):
        raise NonfiniteDrive("drive sequence contains non-finite values")
    lo, hi = reservoir.spec.drive_domain
    outside = (drives < lo - 1e-12) | (drives > hi + 1e-12)
    if np.any(outside):
        raise DriveBoundViolation(
            f"drive {drives[outside][0]:.6g} lies outside the drive domain [{lo:.6g}, {hi:.6g}]"
        )
    return np.unique(drives, return_inverse=True)


def _check_exact_mode(reservoir: Reservoir) -> None:
    if reservoir.n > EXACT_MODE_MAX_BITS:
        raise ExactModeOverflow(
            f"exact mode supports up to {EXACT_MODE_MAX_BITS} bits, got {reservoir.n}"
        )


def step_exact(reservoir: Reservoir, state, u: float) -> np.ndarray:
    """One exact time step: run the reservoir's compiled plan at drive ``u``.

    The step is resolved as every step of :func:`run_exact` is
    (:class:`_ExactSteps`), here for ``u`` alone: one product with its
    whole-step matrix where the plan tabulates it, built for this call,
    else the ops in turn. Gather ops permute the probability vector; kernel
    ops apply their gate kernel along the gate's bits; block ops apply
    their folded kernel along their bits, or multiply the state by it when
    they span the register. ``state`` may be a
    :class:`BitstringDistribution` or a raw probability vector; the result
    is a probability vector. ``u`` gets the checks of every drive of
    :func:`run_exact`: a non-finite drive raises :class:`NonfiniteDrive` and
    one outside the drive domain :class:`DriveBoundViolation`.
    """
    values, _ = _checked_drives(reservoir, InputSequence([float(u)], washout_length=0))
    _check_exact_mode(reservoir)
    vec = state.probs if isinstance(state, BitstringDistribution) else np.asarray(state, dtype=float)
    if vec.size != reservoir.dim:
        raise MixedDimensions("state size does not match reservoir")
    return _ExactSteps(reservoir.plan, values)(vec[None], 0)[0]


def run_exact(reservoir: Reservoir, inputs: InputSequence) -> np.ndarray:
    """Propagate the exact distribution and return post-washout states.

    Output row ``t`` is the distribution after processing drive
    ``washout_length + t``. The run's distinct drive values are resolved
    once (:class:`_ExactSteps`): one array-valued drive evaluation per gate
    for all of them, and one whole-step matrix per tabulated kernel tuple,
    built for this call and dropped when it returns. Each step is the step
    :func:`step_exact` takes at its value, written straight into its own
    output row (washout steps alternate between two scratch rows), and its
    negative entries are set to zero. The loop does nothing else: a
    row-stochastic step keeps the sum at one up to rounding, so the state
    is carried unnormalized, and each kept row is divided by its own sum
    once after the loop. The run thus equals a loop of clipped steps whose
    kept states are then each divided by their sum, bit for bit; against
    dividing after every step it moves entries by rounding alone.

    Each washout step's sum is taken as it is made, and the kept rows' sums
    in one reduction after the loop. A step's drift is ``|sum / previous
    sum - 1|``, the previous sum of step 0 being the initial state's; for
    a normalized state that is the ``|sum - 1|`` of dividing after every
    step. The first step, washout or kept, whose drift exceeds
    ``RENORM_DRIFT_TOL`` or is NaN raises :class:`NumericCheckFailure` with
    the step and its drift, instead of hiding it. An overflow to infinity
    is reported the same way, without a floating-point warning.

    The clip is skipped where it cannot change a bit: after a table
    product when no entry of the table, nor of the state it multiplies, has
    its sign bit set (``np.signbit``, so that a ``-0.0`` is clipped to
    ``+0.0`` as before). Every state after a step has none, so only the
    initial state is checked, once.
    """
    values, index = _checked_drives(reservoir, inputs)
    _check_exact_mode(reservoir)
    step = _ExactSteps(reservoir.plan, values)
    steps = step.steps
    washout = inputs.washout_length
    state = reservoir.spec.initial_state.probs[None].copy()  # one row
    dirty = bool(np.signbit(state).any())
    out = np.empty((len(inputs) - washout, 1, reservoir.dim))  # one row per kept step
    scratch = np.empty((2, 1, reservoir.dim))
    sums = np.empty(len(inputs) + 1)  # the initial state's sum, then each step's
    sums[0] = np.add.reduce(state, None)
    # a drift, an overflow or a NaN reaches the sums and is raised below
    with np.errstate(all="ignore"):
        for t, i in enumerate(index.tolist()):
            table, clip = steps[i]
            row = out[t - washout] if t >= washout else scratch[t & 1]
            if table is None:
                row[...] = step.run_ops(state, i)
            else:
                np.matmul(state, table, out=row)
            if clip or dirty:
                np.maximum(row, 0.0, out=row)
                dirty = False
            if t < washout:
                sums[t + 1] = np.add.reduce(row, None)
            state = row
        kept = sums[washout + 1:, None]
        np.add.reduce(out, axis=-1, out=kept)
        ratios = sums[1:] / sums[:-1]
        drifts = np.abs(ratios - 1.0)
    failed = np.flatnonzero(~(drifts <= RENORM_DRIFT_TOL))  # NaN fails too
    if failed.size:
        t = int(failed[0])
        raise NumericCheckFailure(
            f"exact state sums to {float(ratios[t])!r} at step {t}: renormalization "
            f"drift {drifts[t]:.3g} exceeds {RENORM_DRIFT_TOL:g}"
        )
    out /= kept[:, None]
    return out.reshape(len(out), reservoir.dim)


# ---------------------------------------------------------------------------
# sampled propagation
# ---------------------------------------------------------------------------

def _check_shots(shots) -> None:
    """A shot count must be an integer (not a bool) in [1, 2**53], above
    which the count sampler's float ``bincount`` would lose shots."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise InvalidInput(f"shots must be an integer, got {shots!r}")
    if not 1 <= shots <= 2 ** 53:
        raise InvalidInput(f"shots must be in [1, 2**53], got {shots!r}")


def _op_parts(plan: StepPlan) -> list:
    """The plan's ops with each block op given back as its parts: the ops
    that the per-shot sampler takes one by one."""
    return [part for op in plan.ops
            for part in (op.parts if isinstance(op, _BlockOp) else [op])]


def sample_trajectories(reservoir: Reservoir, inputs: InputSequence, shots: int,
                        seed: int) -> TrajectoryEnsemble:
    """Draw ``shots`` independent trajectories.

    Every shot has its own counter-based stream keyed by (seed, shot index),
    so the result is bit-identical for any tile. Shots run in blocks of
    ``SAMPLE_BLOCK`` on one thread: the loop over steps holds the GIL, so
    worker threads would add only scheduling. Per step, each gate owns
    exactly one uniform per shot, drawn for ``SAMPLE_STEPS`` steps at a
    time into one tile allocated per call, and a state of a one-hot kernel
    row takes its column whatever the uniform. Shots step gate by gate,
    block ops through their parts (:func:`_op_parts`): a gather maps states
    through its index table, and a kernel op draws each shot's new
    sub-register from its CDF table, built once for the run's distinct
    drive values, by its own column of the tile. So fusing or folding gates
    leaves every stream, and the output, unchanged. States and samples are
    held in the register's own width, ``np.min_scalar_type(2**n - 1)``.
    """
    _check_shots(shots)
    values, index = _checked_drives(reservoir, inputs)
    washout = inputs.washout_length

    # the smallest unsigned type that holds n bits, for the states and the output
    dtype = np.min_scalar_type(reservoir.dim - 1)
    out = np.empty((shots, len(inputs) - washout), dtype=dtype)
    # each op with its gather table, or with its CDF table at the drive values
    ops = [(op, op.fwd.astype(dtype) if isinstance(op, _GatherOp)
            else _cdf_columns(op.kernel(values))) for op in _op_parts(reservoir.plan)]
    # uniforms of a block: tile[i, k, gi] is its shot i's for gate gi at step k
    tile = np.empty((min(shots, SAMPLE_BLOCK), min(len(index), SAMPLE_STEPS),
                     len(reservoir.gates)))
    init_cdf = np.cumsum(reservoir.spec.initial_state.probs)
    init_cdf[-1] = 1.0
    for s0 in range(0, shots, SAMPLE_BLOCK):
        gens = [_rng.stream(seed, s) for s in range(s0, min(s0 + SAMPLE_BLOCK, shots))]
        # one uniform for the initial state, then one per (step, gate); a
        # fused gather leaves its gates' uniforms unread
        states = np.searchsorted(init_cdf, np.array([g.random() for g in gens]), side="right")
        np.clip(states, 0, reservoir.dim - 1, out=states)
        states = states.astype(dtype)
        for t0 in range(0, len(index), SAMPLE_STEPS):
            at = index[t0:t0 + SAMPLE_STEPS]
            draws = tile[:len(gens), :len(at)]
            for i, g in enumerate(gens):
                g.random(out=draws[i])
            for k, v in enumerate(at.tolist()):
                for op, table in ops:
                    if isinstance(op, _GatherOp):
                        states = table.take(states)
                    else:
                        states = op.sample(states, table[v] if op.varies else table,
                                           draws[:, k, op.index])
                if t0 + k >= washout:
                    out[s0:s0 + len(gens), t0 + k - washout] = states
        del gens, states  # before the next block's streams are built
    return TrajectoryEnsemble(out, reservoir.n, seed, washout)


# ---------------------------------------------------------------------------
# count propagation
# ---------------------------------------------------------------------------

def _pvals(probs: np.ndarray) -> np.ndarray:
    """Probability rows as ``Generator.multinomial`` takes them. An entry
    may be off by ``ROW_SUM_TOL``, so entries are clipped at zero and each
    row is divided by its sum: no entry, and no sum of a row's leading
    entries, then exceeds 1. A row with no negative entry that sums to
    exactly 1 keeps its bits."""
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


class _BitCounts:
    """A one-bit kernel op on the shot counts of all ``2**n`` states.

    The counts are viewed as ``(-1, 2, 2**shift)``, so that ``[:, b]``
    holds the states whose bit is ``b``. At value ``i``, ``m[s]`` shots of
    state ``s`` move to its partner ``s ^ bit``: one binomial draw per state
    with its move probability ``kernel[b, 1 - b]``, or, where the kernel at
    the value is 0/1 (the ``set`` gate under binary drives), the count times
    that 0 or 1 with no draw. A zero count draws nothing from the stream, so
    only occupied states draw. Move probabilities are clipped into [0, 1],
    since a kernel entry may be off by ``ROW_SUM_TOL``.
    """

    def __init__(self, op, values):
        kernel = np.broadcast_to(op.kernel(values), (len(values), 2, 2))
        move = np.clip(np.stack([kernel[:, 0, 1], kernel[:, 1, 0]], axis=1), 0.0, 1.0)
        self.fixed = ((move == 0.0) | (move == 1.0)).all(axis=1).tolist()
        self.move = move[:, None, :, None]  # per value, shaped as the view
        self.whole = self.move.astype(np.int64)
        self.shape = (-1, 2, 1 << op.shifts[0])

    def __call__(self, counts: np.ndarray, i: int, gen) -> np.ndarray:
        view = counts.reshape(self.shape)
        moved = view * self.whole[i] if self.fixed[i] else gen.binomial(view, self.move[i])
        view -= moved
        view += moved[:, ::-1]
        return counts


class _KernelCounts:
    """A multi-bit kernel op, or a whole block op, on the shot counts of
    all ``2**n`` states.

    At value ``i`` the shots of each occupied state spread over the
    ``2**k`` sub-register states of its kernel row by one multinomial draw,
    all in one call; one ``bincount`` scatters them back. Kernel rows are
    taken through :func:`_pvals`, since their entries may be off by
    ``ROW_SUM_TOL``. A static op's table is held once, and a
    drive-dependent op's as one kernel per value.
    """

    def __init__(self, op, values, n: int):
        rows = op.rows
        self.varies = op.varies
        self.kernel = _pvals(op.kernel(values))
        states = np.arange(2 ** n, dtype=np.int64)
        self.sub = _read_bits(states, op.shifts)
        spread = np.zeros(rows, dtype=np.int64)  # sub-register j as register bits
        _flip_bits(spread, np.arange(rows, dtype=np.int64), op.shifts)
        # dest[s, j]: state s with its sub-register set to j
        self.dest = (states & ~spread[-1])[:, None] | spread

    def __call__(self, counts: np.ndarray, i: int, gen) -> np.ndarray:
        occupied = np.flatnonzero(counts)
        kernel = self.kernel[i] if self.varies else self.kernel
        moved = gen.multinomial(counts[occupied], kernel[self.sub[occupied]])
        return np.bincount(self.dest[occupied].ravel(), weights=moved.ravel(),
                           minlength=len(counts)).astype(np.int64)


def _whole_block_counts_pay(op: _BlockOp, n: int) -> bool:
    """The count cost rule for a block op on ``k`` bits of an ``n``-bit
    register: one multinomial over its ``2**k`` sub-states for each of up
    to ``2**n`` occupied states, ``2**(n + k)`` entries in one call, costs
    no more than its parts drawn one by one. On the scan family's flip
    block, one whole step costs 0.55-0.86 times its parts at n = 2..4 and
    0.94-2.4 times at n = 5, from 2000 to 10**6 shots (see the README)."""
    return 2 ** n * op.rows <= len(op.parts) * COUNT_ENTRIES_PER_OP


def _count_steps(plan: StepPlan, values: np.ndarray) -> list:
    """The plan's ops on shot counts at the drive ``values``.

    A block op is taken whole where :func:`_whole_block_counts_pay`, and by
    its parts otherwise: the scan family's flip block whole through n = 4,
    and its blocks by their parts from n = 5. A gather permutes the counts;
    a one-bit kernel op, or a block op on one bit, is a :class:`_BitCounts`,
    and any other kernel or block op a :class:`_KernelCounts`. A block's
    matrix is the product of its parts' kernels, so each shot moves by the
    same Markov kernel either way: the counts have the same law, drawn
    differently.
    """
    steps = []
    for op in plan.ops:
        whole = not isinstance(op, _BlockOp) or _whole_block_counts_pay(op, plan.n)
        for part in ([op] if whole else op.parts):
            if isinstance(part, _GatherOp):
                steps.append(lambda counts, i, gen, src=part.src: counts[src])
            elif part.rows == 2:
                steps.append(_BitCounts(part, values))
            else:
                steps.append(_KernelCounts(part, values, plan.n))
    return steps


def _count_frequencies(reservoir: Reservoir, inputs: InputSequence, shots: int,
                       seed: int) -> np.ndarray:
    """Per-step frequencies of ``shots`` trajectories, propagated as counts.

    Trajectories that no one reads one by one need only their count vector
    ``N_t``, which is itself a Markov chain: the initial counts are
    ``multinomial(shots, p0)``, and each step runs the plan's ops on counts
    (:func:`_count_steps`): one multinomial call for a block op taken whole,
    which is the scan family's whole noise layer through n = 4, and else one
    binomial call per one-bit op and one multinomial call per multi-bit op,
    each over the occupied states, whatever the shot count. Every draw comes
    from the one stream ``(seed, rng.COUNTS)``, a path that no shot of
    :func:`sample_trajectories` takes.
    Kernels are built once for the run's distinct drive values. One integer
    count vector is held; each kept step is written into a float (T, 2**n)
    output, divided by ``shots`` in place at the end, which gives the bits
    of ``counts / shots``. Row ``t`` holds the frequencies after drive
    ``washout_length + t``.
    """
    values, index = _checked_drives(reservoir, inputs)
    gen = _rng.stream(seed, _rng.COUNTS)
    steps = _count_steps(reservoir.plan, values)
    counts = gen.multinomial(int(shots), _pvals(reservoir.spec.initial_state.probs))
    washout = inputs.washout_length
    out = np.empty((len(inputs) - washout, reservoir.dim))
    for t, i in enumerate(index.tolist()):
        for step in steps:
            counts = step(counts, i, gen)
        if t >= washout:
            out[t - washout] = counts
    out /= shots
    return out


# ---------------------------------------------------------------------------
# fading memory
# ---------------------------------------------------------------------------

def fading_memory_error(reservoir: Reservoir, h: int, measure: InputMeasure,
                        trials: int, resamples: int = 12,
                        total_window: Optional[int] = None, seed: int = 0) -> float:
    """Monte Carlo estimate of the error of the best h-window predictor.

    For each trial a recent h-step drive window is held fixed while the
    older history is redrawn; the spread of the resulting exact output
    probabilities is the part of the state the window fails to determine.
    Returns the mean over output components of that conditional variance,
    averaged over windows. Non-increasing in ``h`` up to Monte Carlo noise.
    Each resampled history is one :func:`run_exact` call, so it gets the
    same drive-bound and renormalization-drift checks.
    """
    if h < 1:
        raise ValueError("history window must be >= 1")
    if trials < 10:
        raise InsufficientTrials(f"need at least 10 trials, got {trials}")
    if resamples < 2:  # a sample variance needs two histories
        raise InsufficientTrials(f"need at least 2 resamples, got {resamples}")
    total = total_window if total_window is not None else max(48, h + 32)
    if total < h:
        raise ValueError("total_window must be >= h")

    acc = 0.0
    for trial in range(trials):
        gen = _rng.stream(seed, trial)
        window = measure.draw(h, gen)
        finals = np.empty((resamples, reservoir.dim))
        for r in range(resamples):
            drives = np.concatenate([measure.draw(total - h, gen), window])
            finals[r] = run_exact(reservoir, InputSequence(drives, washout_length=total - 1))[0]
        acc += float(np.mean(np.var(finals, axis=0, ddof=1)))
    return acc / trials
