"""Scaling scans, switching families, tails, power basis, learnability,
fat-shattering."""

import dataclasses
import math

import numpy as np
import pytest

import stochres as sr
from stochres.errors import (
    ConditioningFailure,
    ExactModeOverflow,
    InvalidInput,
    NonpositiveSignal,
    SearchBudgetExceeded,
)
from stochres import rng
from stochres.capacity import _legendre_orthonormal
from stochres.experiments import (
    matched_polynomial_sharpness,
    shift_register_capacity_closed_form,
    sweep_exponential_sharpness,
    switching_subset_class,
    verify_shatter_witness,
)
from stochres.reservoir import InputMeasure, InputSequence

from helpers import lstsq_capacities, subset_sum_loop


BINARY = InputMeasure("iid-uniform-binary", 0.0, 1.0, seed=11)


# --- system-size scan ---------------------------------------------------------

def test_scan_uniform_noise_limit_is_one():
    curve = sr.scan_system_size(sr.shift_register_flip_family, range(2, 7), 0.5,
                                BINARY, timesteps=60, washout=10, repeats=2, seed=0)
    np.testing.assert_allclose(curve.ipc_mean, 1.0, atol=1e-9)


def test_scan_deterministic_family_counts_all_states():
    n = 4
    spec = sr.shift_register_flip_family(n, 0.0)
    res = sr.build_reservoir(spec)
    drives = BINARY.draw(60 * 2 ** n, sr.rng.stream(3, n))
    dists = sr.run_exact(res, InputSequence(drives[:, None], washout_length=0))
    visited = len({int(np.argmax(row)) for row in dists})
    ipc = sr.ipc_probability_rep(sr.probability_signals(dists)).ipc_value
    assert visited == 2 ** n
    assert ipc == float(visited)


def test_scan_noisy_family_matches_closed_form():
    curve = sr.scan_system_size(sr.shift_register_flip_family, range(2, 7), 0.05,
                                BINARY, timesteps=1500, washout=60, repeats=2, seed=5)
    expected = np.array([shift_register_capacity_closed_form(n, 0.05)
                         for n in curve.n_values])
    assert np.max(np.abs(curve.ipc_mean - expected) / expected) < 0.05
    ratios = curve.ipc_mean / 2.0 ** curve.n_values
    assert np.all(np.diff(ratios) < 0)


@pytest.mark.parametrize("n, noise", [(3, float("nan")), (3, 0.7), (3, -0.1), (0, 0.1),
                                      (-2, 0.1)])
def test_closed_form_refuses_what_the_family_refuses(n, noise):
    with pytest.raises(InvalidInput):
        sr.shift_register_flip_family(n, noise)
    with pytest.raises(InvalidInput):
        shift_register_capacity_closed_form(n, noise)


def test_scan_rejects_oversized_exact_mode():
    with pytest.raises(ExactModeOverflow):
        sr.scan_system_size(sr.shift_register_flip_family, [15], 0.1, BINARY)


# --- switching families ---------------------------------------------------------

def test_single_switching_signal_is_flat_one():
    fam = sr.switching_family("exponential", 1, (0.0, 1.0), 8.0)
    np.testing.assert_allclose(fam.signals, 1.0, atol=1e-15)
    np.testing.assert_allclose(fam.confusion, 0.0, atol=1e-15)


def test_switching_signals_sum_to_one_everywhere():
    gen = np.random.default_rng(0)
    for kind in ("exponential", "polynomial"):
        for _ in range(5):
            k = int(gen.integers(1, 9))
            sharp = float(gen.uniform(0.02, 40.0))
            fam = sr.switching_family(kind, k, (0.0, 1.0), sharp, grid_points=501)
            assert fam.normalization_residual() < 1e-9


def test_swept_exponential_family_reaches_target_peak():
    beta = sweep_exponential_sharpness(4, (0.0, 1.0), 0.99)
    fam = sr.switching_family("exponential", 4, (0.0, 1.0), beta)
    assert fam.peaks.min() >= 0.99
    # the sweep finds the smallest such sharpness
    below = sr.switching_family("exponential", 4, (0.0, 1.0), beta * 0.98)
    assert below.peaks.min() < 0.99


@pytest.mark.parametrize("grid_points", [1, 3, 5])
def test_sweep_raises_when_the_grid_cannot_separate_the_centers(grid_points):
    # 4 centers: fewer grid points leave a signal without a grid point of its
    # own, and 5 put the interior points halfway between two centers; the
    # bumps underflow to NaN peaks before the sharpness cap
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unreachable"):
        sweep_exponential_sharpness(4, (0.0, 1.0), 0.99, grid_points)


def test_matched_polynomial_family_confuses_more():
    beta = sweep_exponential_sharpness(4, (0.0, 1.0), 0.99)
    fam_exp = sr.switching_family("exponential", 4, (0.0, 1.0), beta)
    for rule in ("half-width", "decay-scale"):
        s = matched_polynomial_sharpness(beta, rule)
        fam_poly = sr.switching_family("polynomial", 4, (0.0, 1.0), s)
        assert fam_poly.peaks.min() < fam_exp.peaks.min()
    gap = fam_exp.peaks.min() - sr.switching_family(
        "polynomial", 4, (0.0, 1.0), matched_polynomial_sharpness(beta)).peaks.min()
    assert gap >= 0.05


# --- tail classification ---------------------------------------------------------

def test_classify_inverse_square_tail():
    u = np.linspace(1.0, 100.0, 400)
    fit = sr.classify_tails(u, u ** -2.0)
    assert fit.classification == "polynomial"
    assert abs(fit.parameter - 2.0) <= 0.1


def test_classify_exponential_tail():
    u = np.linspace(1.0, 60.0, 400)
    fit = sr.classify_tails(u, 2.0 ** -u)
    assert fit.classification == "exponential"
    assert abs(fit.parameter - math.log(2)) <= 0.05 * math.log(2)


@pytest.mark.parametrize("where", ["u", "p"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classify_tails_rejects_non_finite_samples(where, bad):
    # a NaN in u gave "exponential" with a NaN parameter
    u = np.linspace(1.0, 60.0, 40)
    p = 2.0 ** -u
    (u if where == "u" else p)[7] = bad
    with pytest.raises(InvalidInput, match="finite"):
        sr.classify_tails(u, p)


@pytest.mark.parametrize("sharpness", [np.nan, np.inf, -3.0, 0.0])
def test_switching_family_rejects_sharpness_that_is_not_finite_and_positive(sharpness):
    # NaN gave NaN peaks, and -3.0 was accepted
    for kind in ("exponential", "polynomial"):
        with pytest.raises(InvalidInput, match="sharpness"):
            sr.switching_family(kind, 4, sharpness=sharpness)


def test_exponential_beats_polynomial_prefactor():
    u = np.linspace(1.0, 100.0, 800)
    p = u ** 2 * 2.0 ** -u
    fit = sr.classify_tails(u, p, region=(25.0, 100.0))
    assert fit.classification == "exponential"
    assert abs(fit.parameter - math.log(2)) <= 0.10 * math.log(2)


def test_classify_rejects_nonpositive_samples():
    u = np.linspace(1.0, 10.0, 50)
    with pytest.raises(NonpositiveSignal):
        sr.classify_tails(u, np.linspace(1.0, -0.1, 50))


@pytest.mark.parametrize("region, size", [((0.1, 0.5), 0), ((2.0, 2.5), 1), ((5.0, 6.0), 2)])
def test_classify_rejects_regions_of_fewer_than_three_samples(region, size):
    # two points fit either law exactly, so their residuals are rounding noise
    u = np.arange(1.0, 11.0)
    assert np.count_nonzero((u >= region[0]) & (u <= region[1])) == size
    with pytest.raises(ValueError, match="at least 3 samples"):
        sr.classify_tails(u, 2.0 ** -u, region=region)
    # three samples are enough
    assert sr.classify_tails(u, 2.0 ** -u, region=(5.0, 7.0)).region == (5.0, 7.0)


@pytest.mark.parametrize("level", [1.0, 0.3, 1e-3])
def test_classify_constant_signal_is_inconclusive(level):
    # both laws fit a constant exactly; their residuals differ by rounding only
    u = np.linspace(1.0, 50.0, 100)
    fit = sr.classify_tails(u, np.full(100, level))
    assert fit.classification == "inconclusive" and math.isnan(fit.parameter)


def test_planted_tail_recovery_accuracy():
    gen = np.random.default_rng(123)
    u = np.linspace(5.0, 50.0, 200)
    correct = 0
    for _ in range(100):
        if gen.random() < 0.5:
            kind, par = "polynomial", gen.uniform(1.5, 4.0)
            p = u ** -par
        else:
            kind, par = "exponential", gen.uniform(0.3, 2.0)
            p = np.exp(-par * u)
        p = p * np.exp(0.01 * gen.normal(size=u.size))
        if sr.classify_tails(u, p).classification == kind:
            correct += 1
    assert correct >= 95


# --- power basis ---------------------------------------------------------

def test_power_basis_single_bit():
    rep = sr.power_basis_demo(1, samples=20_000, seed=0)
    assert rep.rank == 2
    assert abs(rep.ipc_report.ipc_value - 2.0) < 1e-6


def test_power_basis_three_bits_full_span():
    rep = sr.power_basis_demo(3, samples=100_000, seed=2)
    assert rep.rank == 8
    assert abs(rep.ipc_report.ipc_value - 8.0) <= 0.05


def test_power_basis_components_match_per_target_lstsq():
    rep = sr.power_basis_demo(3, samples=100_000, seed=2)
    x = InputMeasure("iid-uniform-interval", -1.0, 1.0).draw(100_000, rng.stream(2, 3))
    targets = np.column_stack([np.ones_like(x)] + [
        _legendre_orthonormal(g, x, -1.0, 1.0) for g in range(1, 8)])
    ref = lstsq_capacities(np.vander(x, N=8, increasing=True), targets, np.ones(x.size))
    assert np.max(np.abs(rep.ipc_report.components - ref)) <= 1e-12


def test_power_basis_six_bits_full_rank_or_explicit_failure():
    # float64 cannot hold the degree-63 monomial Gram; the call must either
    # certify the full rank or refuse loudly, never report a wrong span
    try:
        rep = sr.power_basis_demo(6, samples=20_000, seed=2)
        assert rep.rank == 64
    except ConditioningFailure as exc:
        msg = str(exc)
        assert "rank" in msg and "64" in msg and "tolerance" in msg


def test_power_basis_true_rank_is_full_by_exact_arithmetic():
    # extended-precision oracle: exact moment Gram G[i,j] = 1/(i+j+1) for
    # even i+j (uniform drive), else 0; a positive determinant chain proves
    # full rank 64 in exact rational arithmetic
    import mpmath

    d = 64
    with mpmath.workdps(300):
        gram = mpmath.matrix(d, d)
        for i in range(d):
            for j in range(d):
                if (i + j) % 2 == 0:
                    gram[i, j] = mpmath.mpf(1) / (i + j + 1)
        mpmath.cholesky(gram)  # raises if any leading minor fails positivity


def test_power_basis_guards_size():
    with pytest.raises(ValueError):
        sr.power_basis_demo(7)


# --- learnability ---------------------------------------------------------

def test_all_zero_probability_certain_when_never_nonzero():
    curve = sr.sample_complexity_curve(0.0, [1, 10, 100], trials=1000, seed=0)
    np.testing.assert_array_equal(curve.exact_all_zero, 1.0)
    np.testing.assert_array_equal(curve.empirical_all_zero, 1.0)


def test_exact_column_matches_closed_form():
    curve = sr.sample_complexity_curve(0.01, [10], trials=1000, seed=0)
    assert abs(curve.exact_all_zero[0] - 0.99 ** 10) < 1e-12
    assert abs(curve.exact_all_zero[0] - 0.9043820750088044) < 1e-12


def test_empirical_column_within_three_sigma():
    for q in (0.01, 0.1):
        curve = sr.sample_complexity_curve(q, [1, 10, 100], trials=10_000, seed=3)
        sigma = np.sqrt(curve.exact_all_zero * (1 - curve.exact_all_zero) / curve.trials)
        assert np.all(np.abs(curve.empirical_all_zero - curve.exact_all_zero)
                      <= 3 * sigma + 1e-12)


def test_approximation_column_and_regime_flag():
    curve = sr.sample_complexity_curve(0.01, [1, 100], trials=1000, seed=0)
    np.testing.assert_allclose(curve.small_product_approx, [0.01, 1.0])
    assert curve.approx_regime[0] and not curve.approx_regime[1]


def test_detection_threshold_matches_bisection_oracle():
    for q in (0.25, 0.1, 0.003):
        m = sr.detection_sample_threshold(q)
        lo, hi = 0.0, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (1 - q) ** mid > 0.5:
                lo = mid
            else:
                hi = mid
        assert abs(m - lo) < 1e-6 * max(1.0, lo)


def test_detection_threshold_growth_tracks_inverse_rate():
    # m0(n) = ln2/q - ln2/2 - O(q) for q = n^2/2^n: increments match the
    # increments of ln2/q to well under 5% across n = 8..16
    ms, refs = [], []
    for n in range(8, 17):
        q = n * n / 2.0 ** n
        ms.append(sr.detection_sample_threshold(q))
        refs.append(math.log(2) / q)
    inc_dev = np.abs(np.diff(ms) / np.diff(refs) - 1.0)
    assert inc_dev.max() < 0.05


# --- fat-shattering ---------------------------------------------------------

def test_singleton_class_shatters_nothing():
    d, witness = sr.fat_shattering_lower_bound(np.array([[0.7, 0.2, 0.5]]), 0.1)
    assert d == 0
    assert witness.instance_indices == ()


def test_two_constants_shatter_one_point():
    values = np.array([[0.0, 0.0], [1.0, 1.0]])
    d, witness = sr.fat_shattering_lower_bound(values, 0.4)
    assert d == 1
    assert witness.thresholds == (0.5,)
    assert verify_shatter_witness(values, witness)


@pytest.mark.parametrize("count", [4, 12])
def test_switching_subset_class_shatters_centers(count):
    beta = sweep_exponential_sharpness(count, (0.0, 1.0), 0.99)
    fam = sr.switching_family("exponential", count, (0.0, 1.0), beta)
    values = switching_subset_class(fam)
    assert values.shape == (2 ** count, count)
    d, witness = sr.fat_shattering_lower_bound(values, 0.3, thresholds=0.5)
    assert d == count
    assert len(witness.assignment) == 2 ** count
    assert verify_shatter_witness(values, witness)


@pytest.mark.parametrize("kind", ["exponential", "polynomial", "dirichlet"])
def test_switching_subset_class_adds_members_in_ascending_order(kind):
    gen = np.random.default_rng(4)
    for k in range(1, 13):
        beta = sweep_exponential_sharpness(k, (0.0, 1.0), 0.99)
        if kind == "polynomial":
            fam = sr.switching_family(kind, k, (0.0, 1.0), matched_polynomial_sharpness(beta))
        else:
            fam = sr.switching_family("exponential", k, (0.0, 1.0), beta)
        if kind == "dirichlet":
            fam = dataclasses.replace(fam, signals=gen.dirichlet(np.ones(k), fam.grid.size).T)
        assert switching_subset_class(fam).tobytes() == subset_sum_loop(fam).tobytes()


def test_witness_verifier_spots_corruption():
    values = np.array([[0.0, 0.0], [1.0, 1.0]])
    _, witness = sr.fat_shattering_lower_bound(values, 0.4)
    bad = sr.ShatterWitness(witness.instance_indices, witness.thresholds,
                            dict(witness.assignment), 0.6)
    assert not verify_shatter_witness(values, bad)
    # one threshold for two instances: instance 1 only ever takes the value 0
    values = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    short = sr.ShatterWitness((0, 1), (0.5,), {0: 0, 1: 1, 2: 0, 3: 1}, 0.1)
    assert not verify_shatter_witness(values, short)
    # one threshold that would fit both instances is still one too few
    values = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert verify_shatter_witness(values, sr.ShatterWitness(
        (0, 1), (0.5, 0.5), {0: 0, 1: 1, 2: 2, 3: 3}, 0.1))
    assert not verify_shatter_witness(values, sr.ShatterWitness(
        (0, 1), (0.5,), {0: 0, 1: 1, 2: 2, 3: 3}, 0.1))


def test_each_dichotomy_takes_its_lowest_index_function():
    values = np.array([[0.9], [0.1], [0.8], [0.0]])
    d, witness = sr.fat_shattering_lower_bound(values, 0.2, thresholds=0.5)
    assert (d, witness.assignment) == (1, {0: 1, 1: 0})


def test_a_value_on_the_threshold_at_gamma_zero_is_only_above_it():
    d, _ = sr.fat_shattering_lower_bound(np.array([[0.5], [0.5]]), 0.0, thresholds=0.5)
    assert d == 0


@pytest.mark.parametrize("count", [5, 1])
def test_pinned_thresholds_need_one_per_instance(count):
    values = np.random.default_rng(0).uniform(0, 1, size=(4, 3))
    with pytest.raises(ValueError, match=f"{count} thresholds for 3 instances"):
        sr.fat_shattering_lower_bound(values, 0.1, thresholds=[0.5] * count)


@pytest.mark.parametrize("values, gamma, thresholds", [
    ([[0.0, np.nan], [1.0, np.nan]], 0.4, None),
    ([[0.0, 0.0], [1.0, 1.0]], 0.4, np.nan),
    ([[0.0, 0.0], [1.0, 1.0]], 0.1, [0.5, np.inf]),
    ([[0.0, 0.0], [1.0, 1.0]], np.nan, None),
    ([[0.0, 0.0], [1.0, 1.0]], np.inf, None),
    ([[0.0, 0.0], [1.0, 1.0]], -1.0, None),
], ids=["nan-value", "nan-threshold", "inf-threshold", "nan-gamma", "inf-gamma",
        "negative-gamma"])
def test_search_rejects_non_finite_input_and_negative_gamma(values, gamma, thresholds):
    with pytest.raises(ValueError, match="finite"):
        sr.fat_shattering_lower_bound(np.array(values), gamma, thresholds=thresholds)


def test_search_respects_budget():
    gen = np.random.default_rng(0)
    values = gen.uniform(0, 1, size=(64, 10))
    with pytest.raises(SearchBudgetExceeded):
        sr.fat_shattering_lower_bound(values, 0.05, budget=16)


def test_matches_independent_exhaustive_search_on_small_classes():
    # independent maximizer: plain loops over subsets, threshold grids, and
    # dichotomies, no bitset tricks
    import itertools

    def oracle(values, gamma):
        n_fun, n_inst = values.shape
        best = 0
        for d in range(n_inst, 0, -1):
            for subset in itertools.combinations(range(n_inst), d):
                cands = []
                for i in subset:
                    vals = sorted(set(values[:, i]))
                    cands.append([(a + b) / 2 for a, b in zip(vals, vals[1:])])
                if any(not c for c in cands):
                    continue
                for thr in itertools.product(*cands):
                    ok = True
                    for pattern in range(2 ** d):
                        found = False
                        for f in range(n_fun):
                            good = True
                            for pos, i in enumerate(subset):
                                if (pattern >> pos) & 1:
                                    good &= values[f, i] >= thr[pos] + gamma
                                else:
                                    good &= values[f, i] <= thr[pos] - gamma
                            if good:
                                found = True
                                break
                        if not found:
                            ok = False
                            break
                    if ok:
                        return d
            if best:
                return best
        return 0

    gen = np.random.default_rng(17)
    for _ in range(15):
        values = np.round(gen.uniform(0, 1, size=(int(gen.integers(2, 7)),
                                                  int(gen.integers(2, 5)))), 1)
        gamma = float(gen.choice([0.05, 0.1, 0.2]))
        d_fast, witness = sr.fat_shattering_lower_bound(values, gamma,
                                                        budget=10_000_000)
        assert d_fast == oracle(values, gamma)
        if d_fast:
            assert verify_shatter_witness(values, witness)
