"""Capacity, gram matrices, eigentask spectra, and total capacity."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochres as sr
from stochres.capacity import (
    ReadoutFit,
    TargetBasis,
    _legendre_orthonormal,
    build_target_basis,
    finite_time_threshold,
)
from stochres.errors import (
    BasisNotOrthonormal,
    DegenerateSignals,
    EmptyRank,
    MissingShotMetadata,
    NotPSD,
    NumericCheckFailure,
    ZeroTarget,
)
from stochres.reservoir import InputMeasure, InputSequence, ReservoirSpec, sample_trajectories, set_gate
from stochres.signals import SignalMatrix

from helpers import (
    dense_eigentask_reference,
    gram_error_loop,
    lstsq_capacities,
    random_physical_reservoir,
)


def linear_drive_signals(order=64):
    """Exact signals of the 1-bit reservoir with P(bit=1) = (1+u)/2 on the
    quadrature grid, plus the grid and weights."""
    measure = InputMeasure("quadrature-grid", -1.0, 1.0, order=order)
    spec = ReservoirSpec(n=1, gates=[set_gate(0, {"type": "poly", "coeffs": [0.5, 0.5]})])
    res = sr.build_reservoir(spec)
    seq = measure.sequence(order, washout_length=0)
    dists = sr.run_exact(res, seq)
    sm = sr.probability_signals(dists)
    sm.weights = seq.weights
    return sm, seq.drives, sm.weights


# --- capacity ----------------------------------------------------------------

def test_capacity_of_own_column_is_one():
    gen = np.random.default_rng(0)
    data = gen.dirichlet(np.ones(4), size=50)
    rep = sr.capacity(data, data[:, 2])
    assert abs(rep.capacity - 1.0) < 1e-12


def test_capacity_zero_for_orthogonal_target():
    sm, drives, weights = linear_drive_signals()
    target = _legendre_orthonormal(2, drives, -1.0, 1.0)
    rep = sr.capacity(sm, target)
    assert rep.capacity < 1e-10


def test_capacity_reconstructs_linear_drive_exactly():
    # 2*p1 - 1 equals u identically, so the drive itself has full capacity
    sm, drives, weights = linear_drive_signals()
    rep = sr.capacity(sm, drives)
    assert abs(rep.capacity - 1.0) < 1e-12
    recon = sm.data @ rep.weights
    assert np.max(np.abs(recon - drives)) < 1e-10


def test_capacity_rejects_zero_target():
    with pytest.raises(ZeroTarget):
        sr.capacity(np.ones((10, 2)), np.zeros(10))


def test_capacity_drops_zero_columns():
    gen = np.random.default_rng(1)
    x = gen.normal(size=(30, 3))
    x[:, 1] = 0.0
    y = x[:, 0] + 0.1 * gen.normal(size=30)
    rep = sr.capacity(np.abs(x) / np.abs(x).sum(1, keepdims=True), y)
    assert rep.dropped_columns == 0 or rep.dropped_columns == 1
    with pytest.raises(DegenerateSignals):
        sr.capacity(np.zeros((10, 2)), y[:10])


def test_capacity_scale_invariance():
    gen = np.random.default_rng(2)
    x = gen.dirichlet(np.ones(4), size=60)
    y = gen.normal(size=60)
    a = sr.capacity(x, y).capacity
    b = sr.capacity(1000.0 * x, y).capacity
    assert abs(a - b) < 1e-10


def test_capacity_threshold_flag():
    gen = np.random.default_rng(3)
    x = gen.dirichlet(np.ones(2), size=100)
    y = gen.normal(size=100)  # unrelated noise target
    rep = sr.capacity(x, y)
    assert rep.threshold == finite_time_threshold(100)
    assert 0.0 <= rep.capacity <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 60), st.integers(1, 12),
       st.integers(0, 3), st.integers(0, 3), st.integers(1, 6))
def test_readout_fit_matches_per_target_lstsq(seed, rows, cols, zeros, dups, k):
    # random row weights, all-zero columns, exactly repeated columns (rank
    # deficiency), rows < cols for small rows, and both reachable targets
    # and pure-noise targets that land below the finite-time threshold
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(rows, cols))
    zeros = min(zeros, cols - 1)
    for j in range(zeros, min(zeros + dups, cols - 1)):
        x[:, j] = 2.0 * x[:, -1]
    x[:, :zeros] = 0.0
    w = gen.uniform(0.1, 1.0, rows)
    y = gen.normal(size=(rows, k))
    y[:, 0] += x @ gen.normal(size=cols)
    fit = ReadoutFit(x, w)
    scores = fit.score(y)
    assert fit.dropped_columns == zeros
    assert np.max(np.abs(scores.capacities - lstsq_capacities(x, y, w))) <= 1e-12
    assert scores.threshold == finite_time_threshold(rows)
    assert np.array_equal(scores.below_threshold, scores.capacities < scores.threshold)
    assert np.all(scores.weights[:zeros] == 0.0)
    assert abs(sr.capacity(x, y[:, -1], weights=w).capacity - scores.capacities[-1]) <= 1e-12


def test_readout_fit_rejects_any_zero_energy_target():
    gen = np.random.default_rng(4)
    x = gen.normal(size=(20, 3))
    y = gen.normal(size=(20, 4))
    y[:, 2] = 0.0
    with pytest.raises(ZeroTarget):
        ReadoutFit(x).score(y)


# --- gram matrices -----------------------------------------------------------

def test_gram_constant_distribution():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    sm = sr.probability_signals(np.tile(p, (9, 1)))
    g1, g2 = sr.gram_matrices(sm)
    np.testing.assert_allclose(g1, np.outer(p, p), atol=1e-14)
    np.testing.assert_allclose(g2, np.diag(p), atol=1e-14)


def test_gram_linear_drive_closed_form():
    sm, _, _ = linear_drive_signals()
    g1, g2 = sr.gram_matrices(sm)
    np.testing.assert_allclose(g1, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)
    np.testing.assert_allclose(g2, np.diag([0.5, 0.5]), atol=1e-14)


def test_gram_empirical_requires_shots():
    sm = SignalMatrix(np.array([[1.0, 0.0]]), "empirical-frequency", 1)
    with pytest.raises(MissingShotMetadata):
        sr.gram_matrices(sm)


def test_gram_empirical_single_shot_reduces_to_diag():
    data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    sm = SignalMatrix(data, "empirical-frequency", 1, shots=1)
    g1, g2 = sr.gram_matrices(sm)
    np.testing.assert_allclose(g2, np.diag(data.mean(axis=0)), atol=1e-14)
    # one-hot rows make the plug-in first moment diagonal as well
    np.testing.assert_allclose(g1, g2, atol=1e-14)


def test_shot_averaging_interpolates_second_moment():
    from stochres.capacity import shot_averaged_second_moment

    sm, _, _ = linear_drive_signals()
    g1, g2 = sr.gram_matrices(sm)
    np.testing.assert_allclose(shot_averaged_second_moment(g1, g2, 1), g2)
    many = shot_averaged_second_moment(g1, g2, 10 ** 9)
    np.testing.assert_allclose(many, g1, atol=1e-9)
    # averaging 3 shots scales every noise-to-signal ratio by 1/3
    dec = sr.eigentask_decomposition(g1, shot_averaged_second_moment(g1, g2, 3))
    np.testing.assert_allclose(dec.sigma_sq, [0.0, 2.0 / 3.0], atol=1e-12)


def test_gram_empirical_converges_to_exact():
    gen = np.random.default_rng(11)
    spec = random_physical_reservoir(2, gen)
    res = sr.build_reservoir(spec)
    seq = InputSequence(gen.uniform(-1, 1, (1500, 1)), washout_length=60)
    exact_sm = sr.probability_signals(sr.run_exact(res, seq))
    g1_exact, g2_exact = sr.gram_matrices(exact_sm)
    shots = 4000
    emp_sm = sr.empirical_probabilities(sample_trajectories(res, seq, shots, seed=1))
    g1_emp, g2_emp = sr.gram_matrices(emp_sm)
    rel1 = np.abs(g1_emp - g1_exact).max() / np.abs(g1_exact).max()
    rel2 = np.abs(g2_emp - g2_exact).max() / np.abs(g2_exact).max()
    assert rel1 < 0.05 and rel2 < 0.05


# --- eigentask decomposition --------------------------------------------------

def test_noiseless_reservoir_has_zero_ratios():
    gen = np.random.default_rng(4)
    a = gen.normal(size=(4, 4))
    g1 = a @ a.T + 0.1 * np.eye(4)
    dec = sr.eigentask_decomposition(g1, g1.copy())
    assert np.max(np.abs(dec.sigma_sq)) < 1e-9
    assert dec.retained_rank == 4


def test_linear_drive_ratio_spectrum():
    sm, _, _ = linear_drive_signals()
    dec = sr.eigentask_decomposition(*sr.gram_matrices(sm))
    np.testing.assert_allclose(dec.sigma_sq, [0.0, 2.0], atol=1e-12)
    # eigentask vectors stay orthonormal
    gram = dec.eigentasks.T @ dec.eigentasks
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)


def test_decomposition_matches_generalized_eigenvalue_oracle():
    gen = np.random.default_rng(5)
    for _ in range(20):
        a = gen.normal(size=(4, 4))
        g1 = a @ a.T + 0.05 * np.eye(4)
        b = gen.normal(size=(4, 4))
        g2 = g1 + b @ b.T * 0.1
        dec = sr.eigentask_decomposition(g1, g2)
        oracle = np.sort(scipy.linalg.eigh(g2, g1, eigvals_only=True) - 1.0)
        oracle = np.where((oracle < 0) & (oracle > -1e-10), 0.0, oracle)
        assert np.max(np.abs(dec.sigma_sq - oracle)) < 1e-10


def test_decomposition_rejects_indefinite_input():
    g = np.diag([1.0, -0.5])
    with pytest.raises(NotPSD):
        sr.eigentask_decomposition(g, np.eye(2))
    with pytest.raises(EmptyRank):
        sr.eigentask_decomposition(np.zeros((2, 2)), np.eye(2))


def test_rank_truncation_counts_dropped_directions():
    g1 = np.diag([1.0, 1e-14])
    dec = sr.eigentask_decomposition(g1, np.diag([1.0, 1.0]))
    assert dec.retained_rank == 1 and dec.dropped_count == 1


def test_duplicated_signal_column_leaves_spectral_capacity_unchanged():
    sm, _, _ = linear_drive_signals()
    base = sr.ipc_spectral(sr.eigentask_decomposition(*sr.gram_matrices(sm))).ipc_value
    # appending a copy of column 1 transforms both grams congruently
    m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    g1, g2 = sr.gram_matrices(sm)
    g1d, g2d = m @ g1 @ m.T, m @ g2 @ m.T
    dup = sr.ipc_spectral(sr.eigentask_decomposition(g1d, g2d)).ipc_value
    assert abs(dup - base) < 1e-9


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(0, 12),
       st.integers(0, 4), st.booleans(), st.booleans())
def test_decomposition_equals_dense_reference_bit_for_bit(seed, d, rank, zeros, skew, dense):
    # G1 of any rank (zero rows included), optionally perturbed off exact
    # symmetry; G2 a non-negative diagonal with exact zeros, or that
    # diagonal plus a low-rank PSD part so the dense path runs too
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(d, min(rank, d)))
    a[:min(zeros, d - 1)] = 0.0
    g1 = a @ a.T + np.diag(gen.uniform(0.0, 1e-3, d) * (rank == 0))
    if skew:
        g1 = g1 + 1e-14 * gen.normal(size=(d, d))
    diagonal = gen.uniform(0.0, 2.0, d) * (gen.random(d) < 0.8)
    g2 = np.diag(diagonal)
    if dense:
        b = gen.normal(size=(d, 2))
        g2 = g2 + 0.1 * b @ b.T
    dec = sr.eigentask_decomposition(g1, g2)
    sigma_sq, tasks, whitener, retained, clipped = dense_eigentask_reference(g1, g2)
    assert _same_bits(dec.sigma_sq, sigma_sq)
    assert _same_bits(dec.eigentasks, tasks)
    assert _same_bits(dec.whitener, whitener)
    assert dec.retained_rank == retained
    assert dec.clipped_negatives == clipped


@pytest.mark.parametrize("dense", [False, True])
def test_decomposition_g2_psd_tolerance(dense):
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]]) if dense else np.eye(2)
    for low, rejected in ((-2e-8, True), (-1e-9, False)):
        g2 = rotation @ np.diag([1.0, low]) @ rotation.T
        assert (np.count_nonzero(g2) == 2) != dense
        if rejected:
            with pytest.raises(NotPSD, match="G2"):
                sr.eigentask_decomposition(np.eye(2), g2)
        else:
            assert sr.eigentask_decomposition(np.eye(2), g2).retained_rank == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("name", ["G1", "G2"])
def test_decomposition_rejects_non_finite_input(name, dense, bad):
    g1 = np.array([[2.0, 0.5], [0.5, 1.0]])
    g2 = np.array([[3.0, 0.2], [0.2, 2.0]]) if dense else np.diag([3.0, 2.0])
    (g1 if name == "G1" else g2)[1, 1] = bad
    with pytest.raises(NumericCheckFailure, match=name):
        sr.eigentask_decomposition(g1, g2)


# --- one-hot eigentask route ----------------------------------------------------

def _physical_signals(seed, n, steps, shots):
    """Exact (``shots == 0``) or sampled signals of a random physical reservoir."""
    gen = np.random.default_rng(seed)
    res = sr.build_reservoir(random_physical_reservoir(n, gen))
    seq = InputSequence(gen.uniform(-1, 1, (steps + 10, 1)), washout_length=10)
    if shots:
        return sr.empirical_probabilities(sample_trajectories(res, seq, shots, seed=seed))
    return sr.probability_signals(sr.run_exact(res, seq))


def _one_hot_identity_errors(sm, dec, tasks):
    """Max deviations of ``W.T G1 W`` from I and of ``W.T G2 W`` from
    diag(1 + sigma_sq), relative to that diagonal, for the readout weights W
    of eigentasks ``tasks``. Both products are taken in factored form, so
    the check adds no rounding of a formed G1."""
    w = sm.row_weights()
    v = np.column_stack([dec.readout_weights(k) for k in tasks])
    z = np.sqrt(w)[:, None] * (sm.data @ v)
    s = np.sqrt(w @ sm.data)[:, None] * v
    scale = 1.0 / np.sqrt(1.0 + dec.sigma_sq[tasks])
    eye = np.eye(len(tasks))
    return (np.max(np.abs(z.T @ z - eye)),
            np.max(np.abs(scale[:, None] * (s.T @ s) * scale - eye)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(3, 200),
       st.sampled_from([0, 1, 20, 500]))
@example(seed=0, n=4, steps=16, shots=0)  # drops one beta of 1.0e-12
def test_one_hot_route_matches_pencil_route(seed, n, steps, shots):
    sm = _physical_signals(seed, n, steps, shots)
    dec = sr.eigentask_decomposition(sm)
    assert dec.signal_dim == 2 ** n
    assert dec.retained_rank <= min(2 ** n, steps)
    assert dec.retained_rank + dec.dropped_count == dec.signal_dim
    if not shots:
        # the trace counts every beta; the rank cut drops, by design, each
        # beta below rank_tolerance * beta_max of the whitened Gram
        w = sm.row_weights()
        mean = w @ sm.data
        y = np.sqrt(w)[:, None] * sm.data[:, mean > 0] / np.sqrt(mean[mean > 0])
        every = np.linalg.eigvalsh(y.T @ y)
        dropped = every[every < dec.rank_tolerance * every[-1]].sum()
        trace = sr.ipc_probability_rep(sm).ipc_value
        assert abs(sr.ipc_spectral(dec).ipc_value + dropped - trace) <= 1e-12
    # each capacity b = 1/(1 + sigma_sq) is known to absolute rounding, so
    # sigma_sq = 1/b - 1 and the weights, normalized by b, are resolved to
    # 1e-10 only where b is not tiny
    beta = 1.0 / (1.0 + dec.sigma_sq)
    resolved = np.flatnonzero(beta >= 1e-4)
    g1_err, g2_err = _one_hot_identity_errors(sm, dec, resolved)
    assert g1_err <= 1e-10 and g2_err <= 1e-10
    pencil = sr.eigentask_decomposition(*sr.gram_matrices(sm))
    if dec.retained_rank == pencil.retained_rank == dec.signal_dim:
        assert np.max(np.abs(beta - 1.0 / (1.0 + pencil.sigma_sq))) <= 1e-12
        gap = np.abs(dec.sigma_sq - pencil.sigma_sq)[resolved]
        assert np.all(gap <= 1e-10 * (1.0 + pencil.sigma_sq[resolved]))


@pytest.mark.parametrize("n, steps", [(4, 6), (3, 40), (2, 300)])
def test_one_hot_spectral_equals_probability_trace(n, steps):
    # (4, 6) has fewer rows than columns, so at most 6 of 16 directions remain
    sm = _physical_signals(17 + n, n, steps, 0)
    dec = sr.eigentask_decomposition(sm)
    assert dec.retained_rank <= min(steps, 2 ** n)
    trace = sr.ipc_probability_rep(sm).ipc_value
    assert abs(sr.ipc_spectral(dec).ipc_value - trace) <= 1e-12


def test_one_hot_route_counts_zero_mean_columns_as_dropped():
    gen = np.random.default_rng(8)
    data = np.zeros((50, 8))
    data[:, [0, 2, 3, 6, 7]] = gen.dirichlet(np.ones(5), size=50)
    sm = sr.probability_signals(data)
    dec = sr.eigentask_decomposition(sm)
    assert dec.signal_dim == 8 and dec.retained_rank == 5 and dec.dropped_count == 3
    assert np.all(dec.whitener[[1, 4, 5]] == 0.0)
    assert abs(sr.ipc_spectral(dec).ipc_value - sr.ipc_probability_rep(sm).ipc_value) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["data", "weights"])
def test_one_hot_route_rejects_non_finite_signals(where, bad):
    data = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    weights = np.ones(3)
    (data[1] if where == "data" else weights)[1] = bad
    sm = SignalMatrix(data, "exact-probability", 1, weights=weights)
    # an infinite weight normalizes to inf / inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericCheckFailure, match="non-finite"):
        sr.eigentask_decomposition(sm)


def test_one_hot_route_needs_one_hot_signals():
    data = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="probability or frequency"):
        sr.eigentask_decomposition(SignalMatrix(data, "moment", 1))
    with pytest.raises(MissingShotMetadata):
        sr.eigentask_decomposition(SignalMatrix(data, "empirical-frequency", 1))
    sm = SignalMatrix(data, "empirical-frequency", 1, shots=2)
    with pytest.raises(ValueError, match="alone"):
        sr.eigentask_decomposition(sm, np.eye(2))
    with pytest.raises(ValueError, match="G2"):
        sr.eigentask_decomposition(np.eye(2))


def test_one_hot_weights_take_one_eigh_on_first_read(monkeypatch):
    sm = _physical_signals(5, 3, 40, 0)
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    dec = sr.eigentask_decomposition(sm)
    assert calls == []
    whitener = dec.whitener
    assert whitener.shape == (dec.signal_dim, dec.retained_rank)
    assert dec.whitener is whitener
    assert dec.eigentasks is dec.eigentasks
    assert np.array_equal(dec.eigentasks, np.eye(dec.retained_rank))
    assert calls == [(8, 8)]


# --- aggregate capacity --------------------------------------------------------

def test_spectral_capacity_of_clean_rank():
    dec = sr.EigentaskDecomposition(
        sigma_sq=np.zeros(3), eigentasks=np.eye(3), retained_rank=3,
        dropped_count=0, rank_tolerance=1e-10, signal_dim=3, whitener=np.eye(3))
    assert sr.ipc_spectral(dec).ipc_value == 3.0


def test_spectral_capacity_anchor_value():
    sm, _, _ = linear_drive_signals()
    rep = sr.ipc_spectral(sr.eigentask_decomposition(*sr.gram_matrices(sm)))
    assert abs(rep.ipc_value - 4.0 / 3.0) < 1e-12


def test_spectral_capacity_vanishes_for_huge_noise():
    dec = sr.EigentaskDecomposition(
        sigma_sq=np.full(4, 1e12), eigentasks=np.eye(4), retained_rank=4,
        dropped_count=0, rank_tolerance=1e-10, signal_dim=4, whitener=np.eye(4))
    assert sr.ipc_spectral(dec).ipc_value < 1e-11


def test_trace_capacity_uniform_distribution():
    sm = sr.probability_signals(np.full((5, 8), 1.0 / 8.0))
    assert abs(sr.ipc_probability_rep(sm).ipc_value - 1.0) < 1e-12


def test_trace_capacity_counts_visited_states_of_deterministic_signals():
    rows = np.zeros((6, 4))
    rows[[0, 1, 2, 3, 4, 5], [0, 2, 0, 3, 2, 0]] = 1.0
    sm = sr.probability_signals(rows)
    rep = sr.ipc_probability_rep(sm)
    assert rep.ipc_value == 3.0  # states 0, 2, 3 visited
    assert rep.skipped_columns == 1


def test_trace_capacity_anchor_value():
    sm, _, _ = linear_drive_signals()
    assert abs(sr.ipc_probability_rep(sm).ipc_value - 4.0 / 3.0) < 1e-12


def test_methods_agree_in_exact_mode():
    gen = np.random.default_rng(6)
    for _ in range(5):
        spec = random_physical_reservoir(int(gen.integers(2, 4)), gen)
        res = sr.build_reservoir(spec)
        seq = InputSequence(gen.uniform(-1, 1, (500, 1)), washout_length=50)
        sm = sr.probability_signals(sr.run_exact(res, seq))
        spectral = sr.ipc_spectral(sr.eigentask_decomposition(*sr.gram_matrices(sm)))
        trace = sr.ipc_probability_rep(sm)
        assert abs(spectral.ipc_value - trace.ipc_value) < 1e-8


# --- target basis and basis sums ----------------------------------------------

def test_basis_enumeration_and_orthonormality():
    basis = TargetBasis(max_delay=3, max_degree=3, measure_kind="iid-uniform-interval")
    assert len(basis) == 35  # multi-indices over 4 delays with total degree <= 3
    assert basis.indices[0] == (0, 0, 0, 0)
    assert basis.gram_error() < 1e-12


def test_binary_basis_limits_degree():
    with pytest.raises(ValueError):
        TargetBasis(max_delay=1, max_degree=2, measure_kind="iid-uniform-binary")
    basis = TargetBasis(max_delay=2, max_degree=1, measure_kind="iid-uniform-binary")
    assert basis.gram_error() < 1e-12


@pytest.mark.parametrize("kind, max_delay, max_degree", [
    ("iid-uniform-binary", 5, 1),
    ("iid-uniform-interval", 4, 3),
    ("iid-uniform-interval", 2, 5),
])
def test_gram_error_matches_pairwise_loop(kind, max_delay, max_degree):
    basis = TargetBasis(max_delay, max_degree, kind, lo=-0.5, hi=2.0)
    assert basis.gram_error() == gram_error_loop(basis)


def test_basis_sum_counts_spanned_directions():
    gen = np.random.default_rng(7)
    measure = InputMeasure("iid-uniform-interval", -1, 1)
    basis = build_target_basis(measure, max_delay=0, max_degree=4)
    drives = gen.uniform(-1, 1, 3000)
    targets = basis.evaluate(drives)
    signals = targets[:, :3]  # noiseless span of the first three targets
    rep = sr.total_capacity(signals, basis, drives, start=0)
    assert abs(rep.ipc_value - 3.0) < 1e-6
    assert rep.method == "basis-sum"


def test_basis_sum_logs_dropped_columns_once(caplog):
    gen = np.random.default_rng(11)
    measure = InputMeasure("iid-uniform-interval", -1, 1)
    basis = build_target_basis(measure, max_delay=1, max_degree=2)
    drives = gen.uniform(-1, 1, 400)
    signals = np.column_stack([basis.evaluate(drives)[:, :3], np.zeros(399)])
    with caplog.at_level("INFO", logger="stochres.capacity"):
        sr.total_capacity(signals, basis, drives, start=1)
    assert sum("all-zero signal columns" in r.getMessage() for r in caplog.records) == 1


def test_basis_sum_linear_drive_exact_mode():
    sm, drives, _ = linear_drive_signals()
    measure = InputMeasure("iid-uniform-interval", -1, 1)
    basis = build_target_basis(measure, max_delay=0, max_degree=4)
    rep = sr.total_capacity(sm, basis, drives, start=0)
    assert abs(rep.ipc_value - 2.0) < 1e-8  # constant + linear reachable


def test_basis_sum_matches_trace_capacity_with_single_shot_sampling():
    # single-shot empirical readouts carry the shot noise that the trace
    # formula prices in; the basis sum over a complete low-degree basis must
    # land on the same value
    spec = ReservoirSpec(n=1, gates=[set_gate(0, {"type": "poly", "coeffs": [0.5, 0.5]})])
    res = sr.build_reservoir(spec)
    gen = np.random.default_rng(8)
    drives = gen.uniform(-1, 1, 30_000)
    seq = InputSequence(drives[:, None], washout_length=3)
    ens = sample_trajectories(res, seq, shots=1, seed=9)
    emp = sr.empirical_probabilities(ens)
    measure = InputMeasure("iid-uniform-interval", -1, 1)
    basis = build_target_basis(measure, max_delay=1, max_degree=3)
    rep = sr.total_capacity(emp, basis, drives, start=3)
    exact_sm = sr.probability_signals(sr.run_exact(res, seq))
    trace = sr.ipc_probability_rep(exact_sm)
    assert abs(rep.ipc_value - trace.ipc_value) < 0.05
    assert abs(trace.ipc_value - 4.0 / 3.0) < 0.01  # finite-T drive average


def test_basis_sum_orthonormality_gate():
    gen = np.random.default_rng(9)
    measure = InputMeasure("iid-uniform-interval", -1, 1)
    basis = build_target_basis(measure, max_delay=0, max_degree=2)
    drives = gen.uniform(-1, 1, 100)
    with pytest.raises(BasisNotOrthonormal):
        sr.total_capacity(gen.dirichlet(np.ones(2), size=100), basis, drives,
                          start=0, orthonormality_tol=0.0)


def test_basis_sum_requires_enough_washout():
    gen = np.random.default_rng(10)
    measure = InputMeasure("iid-uniform-interval", -1, 1)
    basis = build_target_basis(measure, max_delay=3, max_degree=1)
    with pytest.raises(ValueError):
        sr.total_capacity(gen.dirichlet(np.ones(2), size=50), basis,
                          gen.uniform(-1, 1, 50), start=1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(10, 60), st.integers(1, 5))
def test_capacity_always_in_unit_interval(seed, rows, cols):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(rows, cols))
    y = gen.normal(size=rows)
    rep = sr.capacity(x, y)
    assert 0.0 <= rep.capacity <= 1.0
    assert abs(rep.clipped_by) <= 1e-9
