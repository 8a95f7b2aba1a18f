"""Every scalar argument of the public library, pinned to its limit: NaN, the
infinities, a bool, a float where an integer is due and the first value past
each end raise InvalidInput, and a value inside does not. Every fixed
tolerance or budget, a module constant, keeps its value and is read where it
is used: a call inside it passes, and the same call fails once it is
tightened."""

import sys

import numpy as np
import pytest

import stochres as sr
from stochres.errors import (
    BasisNotOrthonormal,
    ConditioningFailure,
    InvalidInput,
    NegativeProbability,
    SearchBudgetExceeded,
)
from stochres.experiments import sweep_exponential_sharpness
from stochres.reservoir import flip_gate
from stochres.signals import MODE_EMPIRICAL, MODE_EXACT

BELOW_0 = np.nextafter(0.0, -1.0)
ABOVE_1 = np.nextafter(1.0, 2.0)
RES = sr.build_reservoir(sr.shift_register_flip_family(2, 0.1))
SEQ = sr.InputSequence(np.array([0.0, 1.0, 1.0]), washout_length=1)
MEASURE = sr.InputMeasure("iid-uniform-binary")
UNIFORM_3 = np.full(8, 1 / 8)
BASIS = sr.TargetBasis(1, 1, "iid-uniform-interval")
DRIVES = np.random.default_rng(0).uniform(-1.0, 1.0, 40)
SIGNALS = np.random.default_rng(1).dirichlet(np.ones(3), size=39)
VALUES = np.array([[0.0, 0.0], [1.0, 1.0]])


def _fading(**kw):
    args = {"h": 1, "trials": 10, "resamples": 2, "total_window": 3, **kw}
    return sr.fading_memory_error(RES, measure=MEASURE, **args)


def _scan(**kw):
    args = {"n_values": [1], "noise": 0.1, "timesteps": 4, "washout": 0, "repeats": 1, **kw}
    return sr.scan_system_size(sr.shift_register_flip_family, measure=MEASURE, **args)


# "callable argument" -> (call with the argument, a value inside the limit, the
# first value below it, the first value above it, whether it is an integer);
# an end is None where that side is unbounded
LIMITS = {
    "BitstringDistribution.point_mass n": (
        lambda v: sr.BitstringDistribution.point_mass(v, 0), 1, 0, None, True),
    "BitstringDistribution.point_mass index": (
        lambda v: sr.BitstringDistribution.point_mass(3, v), 7, -1, 8, True),
    "BitstringDistribution.uniform n": (sr.BitstringDistribution.uniform, 1, 0, None, True),
    "InputMeasure lo": (
        lambda v: sr.InputMeasure("iid-uniform-interval", lo=v, hi=1.0), 0.0, None, 1.0, False),
    "InputMeasure hi": (
        lambda v: sr.InputMeasure("iid-uniform-interval", lo=-1.0, hi=v), 1.0, -1.0, None, False),
    "InputMeasure order": (lambda v: sr.InputMeasure("quadrature-grid", order=v), 2, 1, None, True),
    "InputMeasure seed": (lambda v: sr.InputMeasure("iid-uniform-binary", seed=v), 0, None, None, True),
    "InputMeasure.draw length": (lambda v: MEASURE.draw(v, sr.rng.stream(0)), 0, -1, None, True),
    "InputMeasure.sequence length": (lambda v: MEASURE.sequence(v, 0), 1, 0, None, True),
    "InputMeasure.sequence washout_length": (lambda v: MEASURE.sequence(4, v), 0, -1, None, True),
    "InputSequence washout_length": (
        lambda v: sr.InputSequence(np.zeros(3), washout_length=v), 0, -1, None, True),
    "flip_gate drive": (
        lambda v: sr.build_reservoir(sr.ReservoirSpec(n=1, gates=[flip_gate(0, v)])),
        1.0, BELOW_0, ABOVE_1, False),
    "ReservoirSpec n": (lambda v: sr.ReservoirSpec(n=v, gates=[]), 1, 0, None, True),
    "ReservoirSpec k_max": (lambda v: sr.ReservoirSpec(n=1, gates=[], k_max=v), 1, 0, None, True),
    "ReservoirSpec depth_bound": (
        lambda v: sr.ReservoirSpec(n=1, gates=[], depth_bound=v), 0, -1, None, True),
    "ReservoirSpec derivative_bound": (
        lambda v: sr.ReservoirSpec(n=1, gates=[], derivative_bound=v), 0.0, BELOW_0, None, False),
    "TrajectoryEnsemble n": (
        lambda v: sr.TrajectoryEnsemble(np.zeros((1, 1), int), v, 0), 1, 0, None, True),
    "TrajectoryEnsemble seed_root": (
        lambda v: sr.TrajectoryEnsemble(np.zeros((1, 1), int), 1, v), 0, None, None, True),
    "TrajectoryEnsemble washout_length": (
        lambda v: sr.TrajectoryEnsemble(np.zeros((1, 1), int), 1, 0, v), 0, -1, None, True),
    "fading_memory_error h": (lambda v: _fading(h=v), 1, 0, None, True),
    "fading_memory_error trials": (lambda v: _fading(trials=v), 10, 9, None, True),
    "fading_memory_error resamples": (lambda v: _fading(resamples=v), 2, 1, None, True),
    "fading_memory_error total_window": (lambda v: _fading(total_window=v), 1, 0, None, True),
    "fading_memory_error seed": (lambda v: _fading(seed=v), 0, None, None, True),
    "step_exact u": (lambda v: sr.step_exact(RES, RES.spec.initial_state, v),
                     0.0, -1e-11, 1.0 + 1e-11, False),
    "sample_trajectories shots": (
        lambda v: sr.sample_trajectories(RES, SEQ, v, 0), 1, 0, 2 ** 53 + 1, True),
    "sample_trajectories seed": (lambda v: sr.sample_trajectories(RES, SEQ, 1, v), 0, None, None, True),
    "sample_frequencies shots": (
        lambda v: sr.sample_frequencies(RES, SEQ, v, 0), 1, 0, 2 ** 53 + 1, True),
    "sample_frequencies seed": (lambda v: sr.sample_frequencies(RES, SEQ, 1, v), 0, None, None, True),
    "SignalMatrix n": (lambda v: sr.SignalMatrix(np.ones((2, 1)), MODE_EXACT, v), 0, -1, None, True),
    "SignalMatrix shots": (
        lambda v: sr.SignalMatrix(np.ones((2, 1)), MODE_EMPIRICAL, 0, shots=v), 1, 0, 2 ** 53 + 1, True),
    "moments_for_masks n": (lambda v: sr.moments_for_masks(UNIFORM_3, [1], v), 3, 2, 4, True),
    "moments_for_masks mask": (lambda v: sr.moments_for_masks(UNIFORM_3, [v], 3), 7, -1, 8, True),
    "moments_from_samples mask": (
        lambda v: sr.moments_from_samples(np.array([3, 1]), [v]), 0, -1, None, True),
    "moments_from_probabilities n": (
        lambda v: sr.moments_from_probabilities(np.ones(1), v), 0, -1, 15, True),
    "probabilities_from_moments n": (
        lambda v: sr.probabilities_from_moments(np.ones(1), v), 0, -1, 15, True),
    "shot_averaged_second_moment shots": (
        lambda v: sr.shot_averaged_second_moment(np.eye(2), 2 * np.eye(2), v), 1, 0, 2 ** 53 + 1, True),
    "TargetBasis max_delay": (
        lambda v: sr.TargetBasis(v, 1, "iid-uniform-interval"), 0, -1, None, True),
    "TargetBasis max_degree": (
        lambda v: sr.TargetBasis(1, v, "iid-uniform-interval"), 0, -1, None, True),
    "TargetBasis max_degree binary": (
        lambda v: sr.TargetBasis(1, v, "iid-uniform-binary"), 1, -1, 2, True),
    "TargetBasis lo": (
        lambda v: sr.TargetBasis(1, 1, "iid-uniform-interval", lo=v), 0.0, None, 1.0, False),
    "TargetBasis hi": (
        lambda v: sr.TargetBasis(1, 1, "iid-uniform-interval", hi=v), 0.0, -1.0, None, False),
    "build_target_basis max_delay": (
        lambda v: sr.build_target_basis(MEASURE, v, 1), 0, -1, None, True),
    "build_target_basis max_degree": (
        lambda v: sr.build_target_basis(MEASURE, 1, v), 1, -1, 2, True),
    "total_capacity start": (
        lambda v: sr.total_capacity(SIGNALS, BASIS, DRIVES, v), 1, 0, None, True),
    "shift_register_flip_family n": (
        lambda v: sr.shift_register_flip_family(v, 0.1), 1, 0, None, True),
    "shift_register_flip_family noise": (
        lambda v: sr.shift_register_flip_family(2, v), 0.5, BELOW_0, np.nextafter(0.5, 1.0), False),
    "scan_system_size n": (lambda v: _scan(n_values=[v]), 1, 0, 15, True),
    "scan_system_size noise": (lambda v: _scan(noise=v), 0.0, BELOW_0, np.nextafter(0.5, 1.0), False),
    "scan_system_size timesteps": (lambda v: _scan(timesteps=v), 1, 0, None, True),
    "scan_system_size washout": (lambda v: _scan(washout=v), 0, -1, None, True),
    "scan_system_size repeats": (lambda v: _scan(repeats=v), 1, 0, None, True),
    "scan_system_size seed": (lambda v: _scan(seed=v), 0, None, None, True),
    "switching_family count": (lambda v: sr.switching_family("exponential", v), 1, 0, None, True),
    "switching_family sharpness": (
        lambda v: sr.switching_family("exponential", 2, sharpness=v), 1.0, 0.0, None, False),
    "switching_family grid_points": (
        lambda v: sr.switching_family("exponential", 2, grid_points=v), 1, 0, None, True),
    "sweep_exponential_sharpness target_min_peak": (
        lambda v: sweep_exponential_sharpness(2, target_min_peak=v, grid_points=11),
        0.5, 0.0, ABOVE_1, False),
    "power_basis_demo n": (lambda v: sr.power_basis_demo(v, samples=50), 1, 0, 7, True),
    "power_basis_demo samples": (lambda v: sr.power_basis_demo(1, samples=v), 50, 0, None, True),
    "power_basis_demo seed": (lambda v: sr.power_basis_demo(1, samples=50, seed=v), 0, None, None, True),
    "sample_complexity_curve q": (
        lambda v: sr.sample_complexity_curve(v, [1], 1000), 0.0, BELOW_0, ABOVE_1, False),
    "sample_complexity_curve m0": (
        lambda v: sr.sample_complexity_curve(0.5, [1, v], 1000), 0, -1, None, True),
    "sample_complexity_curve trials": (
        lambda v: sr.sample_complexity_curve(0.5, [1], v), 1000, 999, None, True),
    "sample_complexity_curve seed": (
        lambda v: sr.sample_complexity_curve(0.5, [1], 1000, seed=v), 0, None, None, True),
    "detection_sample_threshold q": (lambda v: sr.detection_sample_threshold(v), 0.5, 0.0, 1.0, False),
    "fat_shattering_lower_bound gamma": (
        lambda v: sr.fat_shattering_lower_bound(VALUES, v), 0.0, BELOW_0, None, False),
    "fat_shattering_lower_bound thresholds": (
        lambda v: sr.fat_shattering_lower_bound(VALUES, 0.1, thresholds=v), 0.5, None, None, False),
    "rotation_pair p": (sr.rotation_pair, 0.0, BELOW_0, ABOVE_1, False),
    "bernoulli_channel p": (
        lambda v: sr.bernoulli_channel(v, np.diag([1.0, 0.0])), 1.0, BELOW_0, ABOVE_1, False),
    "correlated_flip_check theta": (sr.correlated_flip_check, 0.0, None, None, False),
    "verify_rate_relation dt": (
        lambda v: sr.verify_rate_relation(np.cos(np.arange(0.1, 1.4, 1e-2)) ** 2, v),
        1e-2, 0.0, None, False),
}


def _cases():
    for name, (call, inside, below, above, integer) in LIMITS.items():
        bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "bool": True}
        if integer:
            bad["float"] = float(inside)
        if below is not None:
            bad["below"] = below
        if above is not None:
            bad["above"] = above
        for case, value in bad.items():
            yield pytest.param(call, value, id=f"{name}-{case}")


@pytest.mark.parametrize("call, value", _cases())
def test_a_value_outside_the_limit_raises_invalid_input(call, value):
    with pytest.raises(InvalidInput):
        call(value)


@pytest.mark.parametrize("name", LIMITS)
def test_a_value_inside_the_limit_passes_it(name):
    call, inside, *_ = LIMITS[name]
    call(inside)


# "module.CONSTANT" -> the value it has always had
FIXED = {
    "capacity.RANK_TOLERANCE": 1e-10,
    "capacity.ORTHONORMALITY_TOL": 1e-6,
    "transforms.NEGATIVE_PROBABILITY_TOL": 1e-10,
    "reservoir.ROW_SUM_TOL": 1e-12,
    "experiments.SHATTER_BUDGET": 2_000_000,
}

OFF_BY_HALF_A_TOL = np.array([0.5, 0.5 + 5e-13])

# "callable constant" -> (the module constant it reads, a call inside it, the
# tightened value, the error the call then raises)
FIXED_USES = {
    "power_basis_demo RANK_TOLERANCE": (
        "experiments.RANK_TOLERANCE", lambda: sr.power_basis_demo(2, samples=50),
        1.0, ConditioningFailure),
    "total_capacity ORTHONORMALITY_TOL": (
        "capacity.ORTHONORMALITY_TOL", lambda: sr.total_capacity(SIGNALS, BASIS, DRIVES, 1),
        0.0, BasisNotOrthonormal),
    "probabilities_from_moments NEGATIVE_PROBABILITY_TOL": (
        "transforms.NEGATIVE_PROBABILITY_TOL",
        lambda: sr.probabilities_from_moments(np.array([1.0, -5e-11]), 1), 0.0, NegativeProbability),
    "BitstringDistribution.validate ROW_SUM_TOL": (
        "reservoir.ROW_SUM_TOL", lambda: sr.BitstringDistribution(OFF_BY_HALF_A_TOL).validate(),
        0.0, InvalidInput),
    "build_reservoir ROW_SUM_TOL": (
        "reservoir.ROW_SUM_TOL",
        lambda: sr.build_reservoir(sr.ReservoirSpec(
            n=1, gates=[], initial_state=sr.BitstringDistribution(OFF_BY_HALF_A_TOL))),
        0.0, InvalidInput),
    "fat_shattering_lower_bound SHATTER_BUDGET": (
        "experiments.SHATTER_BUDGET", lambda: sr.fat_shattering_lower_bound(VALUES, 0.1),
        0, SearchBudgetExceeded),
}


def _module_constant(name):
    module, constant = name.split(".")
    # the package's name ``capacity`` is the function, so the module comes from sys.modules
    return sys.modules[f"stochres.{module}"], constant


@pytest.mark.parametrize("name", FIXED)
def test_a_fixed_limit_keeps_its_value(name):
    assert getattr(*_module_constant(name)) == FIXED[name]


@pytest.mark.parametrize("name", FIXED_USES)
def test_a_call_inside_a_fixed_limit_passes_it(name):
    _, call, *_ = FIXED_USES[name]
    call()


@pytest.mark.parametrize("name", FIXED_USES)
def test_a_tightened_fixed_limit_fails_the_same_call(name, monkeypatch):
    constant, call, tightened, error = FIXED_USES[name]
    monkeypatch.setattr(*_module_constant(constant), tightened)
    with pytest.raises(error):
        call()
