"""Subset transforms and signal-matrix handling."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochres as sr
from stochres.errors import (
    InvalidInput,
    InvalidSamples,
    MissingShotMetadata,
    MixedDimensions,
    NegativeProbability,
)
from stochres.reservoir import (
    BitstringDistribution,
    InputSequence,
    ReservoirSpec,
    permutation_gate,
    sample_trajectories,
    set_gate,
)
from stochres.signals import (
    MODE_EXACT,
    SignalMatrix,
    noise_floor_mask,
    read_binary,
    read_csv,
    write_binary,
    write_csv,
)
from stochres.transforms import (
    mobius_superset,
    moments_for_masks,
    moments_from_probabilities,
    moments_from_samples,
    probabilities_from_moments,
    signal_moments,
    subset_mask,
    zeta_superset,
)

from helpers import brute_force_moments, random_physical_reservoir


def _random_rows(gen, n, rows=1):
    return gen.dirichlet(np.ones(2 ** n), size=rows)


# --- moments -----------------------------------------------------------------

def test_empty_mask_moment_is_one():
    gen = np.random.default_rng(0)
    for n in (1, 3, 5):
        row = _random_rows(gen, n)[0]
        m = moments_from_probabilities(row, n)
        assert abs(m[0] - 1.0) < 1e-12


def test_two_bit_uniform_product_moment():
    m = moments_from_probabilities(np.full(4, 0.25), 2)
    assert abs(m[subset_mask((0, 1), 2)] - 0.25) < 1e-15


def test_moments_match_brute_force_enumeration():
    gen = np.random.default_rng(1)
    for n in range(1, 9):
        row = _random_rows(gen, n)[0]
        fast = moments_from_probabilities(row, n)
        slow = brute_force_moments(row, n)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_all_one_moments_invert_to_all_ones_point_mass():
    n = 3
    probs = probabilities_from_moments(np.ones(8), n)
    expected = np.zeros(8)
    expected[-1] = 1.0
    np.testing.assert_allclose(probs, expected, atol=1e-14)


def test_single_bit_inverse():
    probs = probabilities_from_moments(np.array([1.0, 0.3]), 1)
    np.testing.assert_allclose(probs, [0.7, 0.3], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6))
def test_roundtrip_is_identity(seed, n):
    row = np.random.default_rng(seed).dirichlet(np.ones(2 ** n))
    back = probabilities_from_moments(moments_from_probabilities(row, n), n)
    assert np.max(np.abs(back - row)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6),
       st.sampled_from([(5,), (1,), (3, 4), (2, 1)]))
def test_batched_transforms_act_row_by_row(seed, n, lead):
    rows = np.random.default_rng(seed).dirichlet(np.ones(2 ** n), size=lead)
    moments = zeta_superset(rows, n)
    back = mobius_superset(moments, n)
    assert moments.shape == back.shape == rows.shape
    assert np.max(np.abs(back - rows)) < 1e-12
    for index in np.ndindex(*lead):
        assert np.array_equal(moments[index], zeta_superset(rows[index], n))
        assert np.array_equal(back[index], mobius_superset(moments[index], n))


def test_moment_monotone_under_mask_growth():
    gen = np.random.default_rng(3)
    for n in (2, 4, 6):
        m = moments_from_probabilities(_random_rows(gen, n)[0], n)
        for bit in range(n):
            step = 1 << bit
            smaller = np.arange(2 ** n) & step == 0
            assert np.all(m[smaller] >= m[np.arange(2 ** n)[smaller] | step] - 1e-12)


def test_inconsistent_moments_raise():
    # product moment exceeding a single-bit moment cannot come from a
    # probability vector
    with pytest.raises(NegativeProbability):
        probabilities_from_moments(np.array([1.0, 0.5, 0.5, 0.9]), 2)


def test_moments_require_unit_empty_mask():
    with pytest.raises(ValueError):
        probabilities_from_moments(np.array([0.9, 0.5]), 1)


@pytest.mark.parametrize("row", [
    [0.6, -0.2, 0.3, 0.3],  # gave [1., 0.1, 0.6, 0.3]
    [np.nan, 0.5, 0.25, 0.25],  # gave NaN moments
    [0.25, 0.25, np.inf, 0.5],
    [[0.25, 0.25, 0.25, 0.25], [0.5, 0.5, -np.inf, 0.0]],
])
def test_moments_from_probabilities_rejects_what_is_not_a_probability(row):
    with pytest.raises(InvalidInput, match="probabilities must be finite"):
        moments_from_probabilities(np.array(row), 2)
    assert issubclass(InvalidInput, ValueError)


def test_moments_from_probabilities_admits_rounding_below_zero():
    # an entry of -1e-13, as an inverse transform may leave, is still a probability
    row = np.array([0.5 + 1e-13, -1e-13, 0.25, 0.25])
    np.testing.assert_allclose(moments_from_probabilities(row, 2), [1.0, 0.25, 0.5, 0.25])


def test_mask_list_path_matches_dense():
    gen = np.random.default_rng(4)
    n = 6
    row = _random_rows(gen, n)[0]
    masks = [0, 1, 5, 63, 32]
    dense = moments_from_probabilities(row, n)
    sparse = moments_for_masks(row, masks, n)
    np.testing.assert_allclose(sparse, dense[masks], atol=1e-14)


def test_moments_from_samples_on_known_counts():
    samples = np.array([3, 3, 1, 0])  # n = 2: bits (1,1), (1,1), (0,1), (0,0)
    m = moments_from_samples(samples, [0, 1, 2, 3])
    np.testing.assert_allclose(m, [1.0, 0.75, 0.5, 0.5])


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int64])
def test_moments_from_samples_in_any_integer_width(dtype):
    # a mask wider than the dtype is in no sample; on uint8, 256 would
    # raise OverflowError in `samples & m`
    samples = np.array([3, 3, 1, 0], dtype=dtype)
    wide = int(np.iinfo(dtype).max) + 1
    m = moments_from_samples(samples, [0, 1, 2, 3, wide, 2 ** 70])
    np.testing.assert_array_equal(m, [1.0, 0.75, 0.5, 0.5, 0.0, 0.0])


def test_moments_from_samples_reads_narrow_samples_without_a_copy():
    # an int64 copy of 2**20 uint8 samples would take 8 MiB
    samples = np.random.default_rng(2).integers(0, 256, 2 ** 20).astype(np.uint8)
    tracemalloc.start()
    try:
        m = moments_from_samples(samples, [0, 1, 6, 255])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20
    np.testing.assert_array_equal(m, moments_from_samples(samples.astype(np.int64), [0, 1, 6, 255]))


@pytest.mark.parametrize("samples", [np.array([0.9, 1.5, 3.7]), np.array([True, False])])
def test_moments_from_samples_rejects_non_integer_samples(samples):
    # [0.9, 1.5, 3.7] was read as [0, 1, 3]
    with pytest.raises(InvalidSamples, match="integers"):
        moments_from_samples(samples, [1])


def test_moments_from_samples_rejects_negative_samples_and_masks():
    with pytest.raises(InvalidSamples, match="non-negative"):
        moments_from_samples(np.array([3, -1]), [1])
    with pytest.raises(InvalidSamples, match="non-negative"):
        moments_from_samples(np.array([3, 1]), [1, -2])


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_moments_from_samples_rejects_empty_samples(dtype):
    # it returned NaN for every mask, with two RuntimeWarnings each
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSamples, match="no samples"):
            moments_from_samples(np.array([], dtype=dtype), [0, 1])
        with pytest.raises(InvalidSamples, match="no samples"):
            moments_from_samples(np.empty((0, 3), dtype=dtype), [1])


def test_row_wise_moment_transform():
    gen = np.random.default_rng(5)
    rows = _random_rows(gen, 3, rows=6)
    sm = sr.probability_signals(rows)
    mm = signal_moments(sm)
    assert mm.mode == "moment"
    np.testing.assert_allclose(mm.data[:, 0], 1.0, atol=1e-12)
    for i in range(6):
        np.testing.assert_allclose(mm.data[i], brute_force_moments(rows[i], 3),
                                   atol=1e-12)


# --- probability / empirical signal matrices --------------------------------

def test_probability_signals_uniform_and_point_mass():
    sm = sr.probability_signals([BitstringDistribution.uniform(2),
                                 BitstringDistribution.point_mass(2, 3)])
    assert sm.mode == MODE_EXACT and sm.n == 2
    np.testing.assert_allclose(sm.data[0], 0.25)
    np.testing.assert_allclose(sm.data[1], [0, 0, 0, 1.0])


def test_probability_signals_rejects_mixed_sizes():
    with pytest.raises(MixedDimensions):
        sr.probability_signals([BitstringDistribution.uniform(2),
                                BitstringDistribution.uniform(3)])


def test_empirical_single_shot_rows_are_one_hot():
    ens = sr.TrajectoryEnsemble(np.array([[2, 0, 1]]), 2, seed_root=0)
    sm = sr.empirical_probabilities(ens)
    assert sm.shots == 1
    np.testing.assert_array_equal(sm.data, [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]])


def test_empirical_matches_exact_for_deterministic_circuit():
    spec = ReservoirSpec(n=2, gates=[permutation_gate((0, 1), [1, 2, 3, 0])],
                         initial_state=BitstringDistribution.point_mass(2, 0))
    res = sr.build_reservoir(spec)
    seq = InputSequence(np.zeros((6, 1)), washout_length=0)
    exact = sr.probability_signals(sr.run_exact(res, seq))
    ens = sample_trajectories(res, seq, shots=7, seed=5)
    emp = sr.empirical_probabilities(ens)
    np.testing.assert_array_equal(emp.data, exact.data)


def test_empirical_binomial_concentration():
    res = sr.build_reservoir(ReservoirSpec(
        n=1, gates=[set_gate(0, 0.3)],
        initial_state=BitstringDistribution.point_mass(1, 0)))
    seq = InputSequence(np.zeros((1, 1)), washout_length=0)
    shots = 100_000
    emp = sr.empirical_probabilities(sample_trajectories(res, seq, shots, seed=2))
    assert abs(emp.data[0, 1] - 0.3) <= 3.0 * np.sqrt(0.21 / shots)


def test_empirical_unbiased_over_seeds():
    gen = np.random.default_rng(6)
    spec = random_physical_reservoir(2, gen)
    res = sr.build_reservoir(spec)
    seq = InputSequence(gen.uniform(-1, 1, (8, 1)), washout_length=2)
    exact = sr.run_exact(res, seq)
    acc = np.zeros_like(exact)
    seeds = 160
    shots = 64
    for seed in range(seeds):
        acc += sr.empirical_probabilities(
            sample_trajectories(res, seq, shots, seed=seed)).data
    acc /= seeds
    # mean over seeds approaches the exact probabilities at the 1/sqrt(S*seeds) scale
    assert np.max(np.abs(acc - exact)) < 5.0 / np.sqrt(shots * seeds)


def test_noise_floor_flagging_keeps_values():
    sm = SignalMatrix(np.array([[0.5, 0.49, 0.01, 0.0]]), "empirical-frequency",
                      2, shots=100)
    flags = noise_floor_mask(sm)
    np.testing.assert_array_equal(flags, [[False, False, False, True]])
    assert sm.data[0, 2] == 0.01  # flagged values are never zeroed
    with pytest.raises(MissingShotMetadata):
        noise_floor_mask(sr.probability_signals(np.full((1, 4), 0.25)))


def test_signal_matrix_validation():
    with pytest.raises(ValueError):
        SignalMatrix(np.array([[0.5, 0.6]]), MODE_EXACT, 1).validate()
    with pytest.raises(MissingShotMetadata):
        SignalMatrix(np.array([[0.5, 0.5]]), "empirical-frequency", 1).validate()


def test_csv_roundtrip_bit_exact(tmp_path):
    gen = np.random.default_rng(7)
    sm = sr.probability_signals(_random_rows(gen, 3, rows=5))
    path = tmp_path / "signals.csv"
    write_csv(sm, path)
    back = read_csv(path, MODE_EXACT, 3)
    assert np.array_equal(back.data, sm.data)
    assert np.array_equal(back.labels, sm.labels)


def test_binary_roundtrip(tmp_path):
    gen = np.random.default_rng(8)
    sm = sr.probability_signals(_random_rows(gen, 2, rows=4))
    path = tmp_path / "signals.bin"
    write_binary(sm, path)
    back = read_binary(path)
    assert np.array_equal(back.data, sm.data)
    assert back.mode == sm.mode and back.n == sm.n
