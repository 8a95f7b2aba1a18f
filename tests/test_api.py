"""The public signatures, pinned: an option can be added or removed only
through a visible edit of this table."""

import inspect

import stochres as sr
from stochres.experiments import sweep_exponential_sharpness

# every callable in stochres.__all__ (a class by its constructor), as
# parameter names, kinds and defaults; annotations are left out, since their
# text differs between Python versions
PUBLIC = {
    "BitstringDistribution": "(probs)",
    "CapacityReport": "(capacity, weights, rows, threshold, below_threshold, clipped_by=0.0, dropped_columns=0)",
    "EigentaskDecomposition": "(sigma_sq, eigentasks, retained_rank, dropped_count, signal_dim, whitener, clipped_negatives=0)",
    "IPCReport": "(ipc_value, method, components, signal_count, retained_rank=None, skipped_columns=0, truncation=None, threshold=None)",
    "InputMeasure": "(kind, lo=-1.0, hi=1.0, order=64, seed=0)",
    "InputSequence": "(values, washout_length=1000, weights=None)",
    "LearnabilityCurve": "(q, m0_grid, exact_all_zero, empirical_all_zero, small_product_approx, approx_regime, trials, seed)",
    "ReadoutFit": "(signals, weights=None)",
    "ReadoutScores": "(capacities, weights, clipped_by, threshold, below_threshold)",
    "Reservoir": "(spec)",
    "ReservoirSpec": "(n, gates, initial_state=None, k_max=2, depth_bound=None, derivative_bound=None, drive_domain=(-1.0, 1.0))",
    "ScalingCurve": "(n_values, ipc_mean, ipc_stderr, noise, slope_n=0.0, slope_n_stderr=0.0, slope_logn=0.0, slope_logn_stderr=0.0, subexponential_consistent=False, samples=<factory>)",
    "ShatterWitness": "(instance_indices, thresholds, assignment, gamma)",
    "SignalMatrix": "(data, mode, n, weights=None, shots=None)",
    "StochasticGate": "(support, kind, params)",
    "SwitchingFamily": "(kind, centers, sharpness, grid, signals, peaks, confusion)",
    "TailFit": "(classification, parameter, residual_poly, residual_exp, region)",
    "TargetBasis": "(max_delay, max_degree, measure_kind, lo=-1.0, hi=1.0)",
    "TrajectoryEnsemble": "(samples, n, seed_root, washout_length=0)",
    "bernoulli_channel": "(p, rho)",
    "build_reservoir": "(spec)",
    "build_target_basis": "(measure, max_delay, max_degree)",
    "capacity": "(signals, target)",
    "classify_tails": "(u, p)",
    "correlated_flip_check": "(theta)",
    "detection_sample_threshold": "(q)",
    "eigentask_decomposition": "(source, g2=None)",
    "empirical_probabilities": "(ensemble)",
    "fading_memory_error": "(reservoir, h, measure, trials, resamples=12, total_window=None, seed=0)",
    "fat_shattering_lower_bound": "(values, gamma, thresholds=None)",
    "gram_matrices": "(signals)",
    "ipc_probability_rep": "(signals)",
    "ipc_spectral": "(decomp)",
    "moments_for_masks": "(probs, masks, n)",
    "moments_from_probabilities": "(probs, n)",
    "moments_from_samples": "(samples, masks)",
    "power_basis_demo": "(n, samples=100000, seed=0)",
    "probabilities_from_moments": "(moments, n)",
    "probability_signals": "(dists)",
    "rotation_pair": "(p)",
    "run_exact": "(reservoir, inputs)",
    "sample_complexity_curve": "(q, m0_grid, trials, seed=0)",
    "sample_frequencies": "(reservoir, inputs, shots, seed)",
    "sample_trajectories": "(reservoir, inputs, shots, seed)",
    "scan_system_size": "(family, n_values, noise, measure, timesteps=2000, washout=100, repeats=3, seed=0)",
    "shot_averaged_second_moment": "(g1, g2, shots)",
    "shift_register_flip_family": "(n, noise)",
    "step_exact": "(reservoir, state, u)",
    "switching_family": "(kind, count, domain=(0.0, 1.0), sharpness=8.0, grid_points=2001)",
    "total_capacity": "(signals, basis, drives, start)",
    "verify_rate_relation": "(p_path, dt)",
}

# methods and helpers outside stochres.__all__ that take options too
EXTRA = {
    "ReadoutFit.score": (sr.ReadoutFit.score, "(self, targets)"),
    "InputMeasure.sequence": (sr.InputMeasure.sequence, "(self, length, washout_length=1000)"),
    "sweep_exponential_sharpness": (
        sweep_exponential_sharpness, "(count, domain=(0.0, 1.0), target_min_peak=0.99, grid_points=2001)"),
}


def _bare(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_public_signatures_are_pinned():
    exported = {name: getattr(sr, name) for name in sr.__all__ if callable(getattr(sr, name))}
    assert sorted(exported) == sorted(PUBLIC)
    got = {name: _bare(obj) for name, obj in exported.items()}
    got.update({name: _bare(obj) for name, (obj, _) in EXTRA.items()})
    want = {**PUBLIC, **{name: sig for name, (_, sig) in EXTRA.items()}}
    assert got == want
