"""Qubit embedding of Bernoulli bit dynamics.

Any time-varying Bernoulli parameter p can be realized by averaging two
single-qubit rotations exp(-/+ i*arccos(sqrt(p))*X). This module builds that
unitary pair, applies the averaged channel both by direct conjugation and
through the vectorized (column-stacked) form, relates probability and
amplitude rates of change, and checks the two-bit correlated-flip channel
generated by X (x) X. All matrix exponentials use the closed 2x2 / 4x4 forms
(X squares to the identity), so no general expm is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidState, Interval, OutOfRange, SingularPath

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
# the rate relation is checked on t in [RATE_GRID[0], RATE_GRID[1]) in steps of
# dt; its central differences need three points, so dt stays below RATE_DT_MAX
RATE_GRID = (0.1, 1.4)
RATE_DT_MAX = (RATE_GRID[1] - RATE_GRID[0]) / 2


def assert_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix (hermitian, unit trace, PSD)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidState("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise InvalidState("density matrix is not hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise InvalidState("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -PSD_TOL:
        raise InvalidState("density matrix has a negative eigenvalue")
    return rho


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    dim = int(round(np.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


@dataclass
class UnitaryPair:
    """The two conjugate rotations whose average realizes Bernoulli(p)."""

    u1: np.ndarray
    u2: np.ndarray
    p: float
    theta: float


def _rotations(theta, generator: np.ndarray) -> tuple:
    """exp(-/+ i*theta*G) = cos(theta) I -/+ i sin(theta) G, for a generator
    G that squares to the identity."""
    eye = np.eye(len(generator), dtype=complex)
    return (np.cos(theta) * eye - 1j * np.sin(theta) * generator,
            np.cos(theta) * eye + 1j * np.sin(theta) * generator)


def _averaged(u1: np.ndarray, u2: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The pair-averaged conjugation (u1 rho u1^dagger + u2 rho u2^dagger) / 2."""
    return 0.5 * (u1 @ rho @ u1.conj().T + u2 @ rho @ u2.conj().T)


def rotation_pair(p: float) -> UnitaryPair:
    """exp(-i*theta*X) and exp(+i*theta*X) with theta = arccos(sqrt(p))."""
    Interval(0.0, 1.0).check("p", p, OutOfRange)
    theta = float(np.arccos(np.sqrt(p)))
    return UnitaryPair(*_rotations(theta, PAULI_X), float(p), theta)


def channel_matrix(p: float) -> np.ndarray:
    """Vectorized form of the averaged channel: (U1* x U1 + U2* x U2) / 2."""
    pair = rotation_pair(p)
    return 0.5 * (np.kron(pair.u1.conj(), pair.u1) + np.kron(pair.u2.conj(), pair.u2))


def bernoulli_channel(p: float, rho: np.ndarray) -> np.ndarray:
    """Apply the pair-averaged channel to a single-qubit state.

    The result is computed by direct conjugation and cross-checked against
    the vectorized route; disagreement beyond 1e-12 raises. Applied
    to a computational basis state, the output diagonal is (p, 1-p) weighted
    and the off-diagonal terms from the two rotations cancel exactly.
    """
    rho = assert_density(rho)
    if rho.shape != (2, 2):
        raise InvalidState("bernoulli_channel expects a single-qubit state")
    pair = rotation_pair(p)
    direct = _averaged(pair.u1, pair.u2, rho)
    vectorized = unvec(channel_matrix(p) @ vec(rho))
    gap = float(np.max(np.abs(direct - vectorized)))
    if gap > 1e-12:
        raise InvalidState(f"vectorized and direct channel differ by {gap:.3g}")
    return direct


def verify_rate_relation(p_path: np.ndarray, dt: float) -> float:
    """Max relative deviation between d(sqrt(p))/dt and p'/(2*sqrt(p)).

    Both derivatives are taken by central differences on the sampled path,
    so the deviation vanishes at second order in ``dt``. The path must stay
    strictly positive. A NaN or infinity in the path raises
    :class:`InvalidInput`, a ``ValueError``.
    """
    p = np.asarray(p_path, dtype=float)
    if p.size < 3:
        raise ValueError("need at least three samples")
    if not np.isfinite(p).all():
        raise InvalidInput("the rate relation needs a finite path p(t)")
    Interval(0.0, open_lo=True).check("dt", dt)
    if np.any(p <= 0.0):
        raise SingularPath("p(t) touches zero on the grid")
    alpha = np.sqrt(p)
    dalpha = (alpha[2:] - alpha[:-2]) / (2.0 * dt)
    dp = (p[2:] - p[:-2]) / (2.0 * dt)
    rhs = dp / (2.0 * np.sqrt(p[1:-1]))
    scale = np.maximum(np.abs(rhs), np.abs(dalpha))
    scale = np.where(scale > 0, scale, 1.0)
    return float(np.max(np.abs(dalpha - rhs) / scale))


def correlated_flip_check(theta: float) -> dict:
    """Populations after the pair-averaged exp(-/+ i*theta*X(x)X) on |00><00|.

    The channel moves population only between |00> and |11>; the |01> and
    |10> populations must stay at zero.
    """
    Interval().check("theta", theta)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    out = _averaged(*_rotations(theta, np.kron(PAULI_X, PAULI_X)), rho0)
    pops = np.real(np.diag(out))
    return {
        "theta": float(theta),
        "populations": pops,
        "p00": float(pops[0]),
        "p01": float(pops[1]),
        "p10": float(pops[2]),
        "p11": float(pops[3]),
        "leakage": float(max(abs(pops[1]), abs(pops[2]))),
    }


def verification_report(tolerance: float = 1e-12, cases: int = 100,
                        dt: float = 1e-3, seed: int = 7) -> dict:
    """Run the whole embedding check suite and report residuals.

    Checks: unitarity of the rotation pair; (p, 1-p) output diagonal on
    |0><0|; agreement of the vectorized and direct channel routes on random
    states; second-order convergence of the rate relation; confinement of
    the correlated flip to the {|00>, |11>} pair.
    """
    rng = np.random.default_rng(seed)
    report = {"tolerance": tolerance, "cases": cases, "checks": {}}

    unit_res = 0.0
    for p in np.linspace(0.0, 1.0, 21):
        pair = rotation_pair(p)
        for u in (pair.u1, pair.u2):
            unit_res = max(unit_res, float(np.max(np.abs(u @ u.conj().T - np.eye(2)))))
    report["checks"]["unitarity"] = {"residual": unit_res, "passed": unit_res < tolerance}

    diag_res = 0.0
    off_res = 0.0
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    for p in (0.0, 0.25, 0.5, 1.0):
        out = bernoulli_channel(p, zero)
        diag_res = max(diag_res, abs(out[0, 0].real - p), abs(out[1, 1].real - (1 - p)))
        off_res = max(off_res, float(np.max(np.abs(out - np.diag(np.diag(out))))))
    report["checks"]["bernoulli_diagonal"] = {
        "residual": diag_res, "offdiagonal": off_res,
        "passed": diag_res < tolerance and off_res < tolerance,
    }

    roth_res = 0.0
    for _ in range(cases):
        p = float(rng.uniform(0, 1))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        pair = rotation_pair(p)
        direct = _averaged(pair.u1, pair.u2, rho)
        vecd = unvec(channel_matrix(p) @ vec(rho))
        roth_res = max(roth_res, float(np.max(np.abs(direct - vecd))))
    report["checks"]["vectorization"] = {"residual": roth_res, "passed": roth_res < tolerance}

    t = np.arange(*RATE_GRID, dt)
    dev1 = verify_rate_relation(np.cos(t) ** 2, dt)
    t2 = np.arange(*RATE_GRID, dt / 2)
    dev2 = verify_rate_relation(np.cos(t2) ** 2, dt / 2)
    order = float(np.log2(dev1 / dev2)) if dev2 > 0 else float("inf")
    report["checks"]["rate_relation"] = {
        "deviation": dev1, "deviation_half_dt": dev2, "order": order,
        "passed": 1.7 <= order <= 2.3,
    }

    leak = 0.0
    transfer_res = 0.0
    for theta in (0.0, np.pi / 6, np.pi / 3, np.pi / 2):
        res = correlated_flip_check(theta)
        leak = max(leak, res["leakage"])
        transfer_res = max(transfer_res, abs(res["p11"] - np.sin(theta) ** 2))
    report["checks"]["correlated_flip"] = {
        "leakage": leak, "transfer_residual": transfer_res,
        "passed": leak < tolerance and transfer_res < tolerance,
    }

    report["passed"] = all(c["passed"] for c in report["checks"].values())
    return report
