"""Shared test utilities: random physical reservoirs and independent oracles."""

import numpy as np

from stochres.rng import stream
from stochres.reservoir import (
    ReservoirSpec,
    cnot_gate,
    constant_gate,
    controlled_flip_gate,
    flip_gate,
    identity_gate,
    permutation_gate,
    set_gate,
    swap_gate,
)


def random_physical_reservoir(n, gen):
    """A random reservoir with full-rank signal span.

    Backbone: rotation register absorbing the drive through a random
    polynomial (slope kept away from zero so the injected bit really
    varies), random per-bit flip noise, and optional weak couplings. Every
    gate is at most 2-local with bounded drive derivatives.
    """
    gates = [swap_gate(i, i + 1) for i in range(n - 1)]
    c0 = gen.uniform(0.4, 0.6)
    c1 = gen.choice([-1.0, 1.0]) * gen.uniform(0.15, 0.3)
    c2 = gen.uniform(-0.08, 0.08)
    gates.append(set_gate(n - 1, {"type": "poly", "coeffs": [c0, c1, c2]}))
    if n >= 2 and gen.random() < 0.7:
        i, j = gen.choice(n, size=2, replace=False)
        gates.append(controlled_flip_gate(int(i), int(j), {
            "type": "logistic", "rate": gen.uniform(0.5, 2.0),
            "center": gen.uniform(-0.3, 0.3),
            "lo": 0.0, "hi": gen.uniform(0.1, 0.35),
        }))
    if n >= 2 and gen.random() < 0.5:
        i, j = gen.choice(n, size=2, replace=False)
        mu = gen.uniform(0.0, 0.2)
        kernel = (1 - mu) * np.eye(4) + mu * gen.dirichlet(np.ones(4) * 2.0, size=4)
        gates.append(constant_gate((int(i), int(j)), kernel))
    lam_hi = 0.08 if n <= 3 else 0.04
    for b in range(n):
        gates.append(flip_gate(b, gen.uniform(0.02, lam_hi)))
    return ReservoirSpec(n=n, gates=gates, drive_domain=(-1.0, 1.0),
                         depth_bound=4 * n + 4)


def _random_permutation_gate(n, gen):
    kinds = ["not", "identity"] + (["swap", "cnot", "perm2"] if n >= 2 else [])
    kind = kinds[gen.integers(len(kinds))]
    b = int(gen.integers(n))
    if kind == "not":
        return permutation_gate((b,), [1, 0])
    if kind == "identity":
        return identity_gate(b)
    # any two distinct bits, so supports are often far apart or reversed
    i, j = (int(x) for x in gen.choice(n, size=2, replace=False))
    if kind == "swap":
        return swap_gate(i, j)
    if kind == "cnot":
        return cnot_gate(i, j)
    return permutation_gate((i, j), gen.permutation(4))


def _random_stochastic_gate(n, gen):
    kinds = ["flip", "constant"] + (["controlled_flip", "constant2"] if n >= 2 else [])
    kind = kinds[gen.integers(len(kinds))]
    b = int(gen.integers(n))
    if kind == "flip":
        return flip_gate(b, {"type": "poly", "coeffs": [gen.uniform(0.2, 0.4),
                                                        gen.uniform(-0.2, 0.2)]})
    if kind == "constant":
        return constant_gate((b,), gen.dirichlet(np.ones(2), size=2))
    i, j = (int(x) for x in gen.choice(n, size=2, replace=False))
    if kind == "constant2":
        return constant_gate((i, j), gen.dirichlet(np.ones(4), size=4))
    return controlled_flip_gate(i, j, {
        "type": "logistic", "rate": gen.uniform(0.5, 2.0),
        "center": gen.uniform(-0.3, 0.3), "lo": 0.0, "hi": gen.uniform(0.1, 0.35),
    })


def random_mixed_reservoir(n, gen, permutations_only=False):
    """Chains of permutation gates broken up by stochastic gates.

    Chains mix swaps, cnots, bit inversions, identities and random 2-bit
    bijections on adjacent or distant bits, so that fused runs start and
    stop in varied places; ``constant``, ``controlled_flip`` and ``flip``
    gates sit between them unless ``permutations_only``.
    """
    gates = []
    for _ in range(int(gen.integers(1, 4))):
        gates += [_random_permutation_gate(n, gen) for _ in range(int(gen.integers(0, 4)))]
        if not permutations_only:
            gates += [_random_stochastic_gate(n, gen) for _ in range(int(gen.integers(0, 3)))]
    return ReservoirSpec(n=n, gates=gates, depth_bound=len(gates))


def dense_gate_matrix(n, support, kernel):
    """Full 2**n transition matrix of one gate, built by direct enumeration.

    Independent of the tensor-axis implementation: loops over all index
    pairs. Row-stochastic; propagation is new_p = T.T @ p.
    """
    dim = 2 ** n
    s = len(support)
    t = np.zeros((dim, dim))
    shifts = [n - 1 - b for b in support]
    for k in range(dim):
        sub = 0
        for pos, sh in enumerate(shifts):
            sub |= ((k >> sh) & 1) << (s - 1 - pos)
        for new_sub in range(2 ** s):
            k2 = k
            for pos, sh in enumerate(shifts):
                bit = (new_sub >> (s - 1 - pos)) & 1
                k2 = (k2 & ~(1 << sh)) | (bit << sh)
            t[k, k2] += kernel[sub, new_sub]
    return t


def dense_step_oracle(spec, state, u):
    """Apply one time step through dense matrices, gate by gate."""
    vec = np.asarray(state, dtype=float)
    for gate in spec.gates:
        t = dense_gate_matrix(spec.n, gate.support, gate.kernel(u))
        vec = t.T @ vec
    return vec


def reference_sample_shot(spec, drives, washout, seed, shot):
    """Shot ``shot`` of ``sample_trajectories``, drawn one gate at a time.

    Draws one uniform for the initial state from ``stream(seed, shot)``,
    then one per gate and step, in gate order. Each gate moves its
    sub-register to the number of entries of its kernel row's CDF, at the
    step's drive, that are at or below its uniform; bits are read and
    written one at a time, by integer arithmetic. Returns the states after
    the post-washout steps.
    """
    gen = stream(seed, shot)
    n = spec.n
    init_cdf = np.cumsum(spec.initial_state.probs)
    init_cdf[-1] = 1.0
    state = min(int(np.searchsorted(init_cdf, gen.random(), side="right")), 2 ** n - 1)
    states = []
    for t, u in enumerate(drives):
        for gate, r in zip(spec.gates, gen.random(len(spec.gates))):
            shifts = [n - 1 - b for b in gate.support]
            sub = 0
            for sh in shifts:
                sub = (sub << 1) | ((state >> sh) & 1)
            new_sub = int(np.sum(np.cumsum(gate.kernel(u)[sub])[:-1] <= r))
            for pos, sh in enumerate(shifts):
                bit = (new_sub >> (len(shifts) - 1 - pos)) & 1
                state = (state & ~(1 << sh)) | (bit << sh)
        if t >= washout:
            states.append(state)
    return np.array(states, dtype=np.int64)


def brute_force_moments(probs, n):
    """Superset sums by explicit incidence, one mask at a time."""
    probs = np.asarray(probs, dtype=float)
    idx = np.arange(2 ** n)
    out = np.empty(2 ** n)
    for m in range(2 ** n):
        out[m] = probs[(idx & m) == m].sum()
    return out


def subset_sum_loop(family):
    """``switching_subset_class`` one subset at a time: each row sums its members.

    Row S (a bitmask over the family's signals) is the sum of the member
    signals at the signal centers, clipped into [0, 1].
    """
    k = family.count
    center_idx = [int(np.argmin(np.abs(family.grid - c))) for c in family.centers]
    at_centers = family.signals[:, center_idx]
    out = np.zeros((2 ** k, k))
    for s in range(2 ** k):
        members = [i for i in range(k) if (s >> i) & 1]
        if members:
            out[s] = at_centers[members].sum(axis=0)
    return np.clip(out, 0.0, 1.0)


def lstsq_capacities(data, targets, weights):
    """Capacities of each target column by its own ``np.linalg.lstsq`` solve.

    The per-target reference for the factor-once readout: weights are
    normalized, all-zero columns are dropped, and each capacity is
    ``1 - SSE/SST`` of the weighted least-squares fit, clipped into [0, 1].
    """
    data = np.asarray(data, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    x = data[:, np.max(np.abs(data), axis=0) > 0.0]
    sw = np.sqrt(w)
    caps = []
    for y in np.asarray(targets, dtype=float).T:
        sol = np.linalg.lstsq(x * sw[:, None], y * sw, rcond=None)[0]
        resid = y - x @ sol
        caps.append(min(max(1.0 - np.sum(w * resid * resid) / np.sum(w * y * y), 0.0), 1.0))
    return np.array(caps)


def gram_error_loop(basis):
    """``TargetBasis.gram_error`` by a double loop over index pairs."""
    degrees = range(basis.max_degree + 1)
    if basis.measure_kind == "iid-uniform-binary":
        xs = np.array([0.0, 1.0])
        ws = np.array([0.5, 0.5])
    else:
        x, w = np.polynomial.legendre.leggauss(2 * basis.max_degree + 2)
        xs = 0.5 * (basis.hi + basis.lo) + 0.5 * (basis.hi - basis.lo) * x
        ws = w / w.sum()
    vals = np.stack([basis._phi(g, xs) for g in degrees])
    one_d = vals @ (ws[:, None] * vals.T)
    err = 0.0
    for a, ia in enumerate(basis.indices):
        for b in range(a, len(basis.indices)):
            ib = basis.indices[b]
            prod = 1.0
            for d in range(basis.max_delay + 1):
                prod *= one_d[ia[d], ib[d]]
            err = max(err, abs(prod - (1.0 if a == b else 0.0)))
    return err


def dense_eigentask_reference(g1, g2, rank_tolerance=1e-10):
    """``eigentask_decomposition`` as a dense computation that ignores structure.

    Symmetrizes both matrices and whitens G2 with two dense products.
    Returns ``(sigma_sq, eigentasks, whitener, retained_rank,
    clipped_negatives)``; the error checks are left out, so inputs must be
    valid.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    g1 = 0.5 * (g1 + g1.T)
    g2 = 0.5 * (g2 + g2.T)
    evals, vecs = np.linalg.eigh(g1)
    keep = evals >= rank_tolerance * float(evals[-1])
    whitener = vecs[:, keep] / np.sqrt(evals[keep])
    m = whitener.T @ g2 @ whitener
    m = 0.5 * (m + m.T)
    mu, tasks = np.linalg.eigh(m)
    sigma_sq = mu - 1.0
    clip = (sigma_sq < 0.0) & (sigma_sq >= -1e-10)
    sigma_sq = np.where(clip, 0.0, sigma_sq)
    order = np.argsort(sigma_sq)
    return sigma_sq[order], tasks[:, order], whitener, int(np.sum(keep)), int(np.sum(clip))
