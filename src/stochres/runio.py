"""Configuration-driven experiment runs with reproducibility manifests.

A run takes a validated JSON config, dispatches to a registered experiment,
writes CSV/JSON artifacts through :mod:`stochres.fileio` (so identical
config and seed produce byte-identical files), and
records a manifest with the config hash, seed, version, timestamps, and
per-artifact checksums.
"""

from __future__ import annotations

import copy
import datetime
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import rng as _rng
from .capacity import eigentask_decomposition, ipc_probability_rep, ipc_spectral
from .errors import (ConditioningFailure, ConfigValidation, InvalidInput, Interval, IOFailure,
                     NumericCheckFailure, UnknownExperiment, is_integer)
from .experiments import (
    LEARNABILITY_TRIALS,
    NOISE_RATE,
    PEAK,
    POWER_BASIS_BITS,
    RATE,
    classify_tails,
    detection_sample_threshold,
    fat_shattering_lower_bound,
    matched_polynomial_sharpness,
    power_basis_demo,
    sample_complexity_curve,
    scan_system_size,
    shift_register_flip_family,
    sweep_exponential_sharpness,
    switching_family,
    switching_subset_class,
    verify_shatter_witness,
)
from .fileio import csv_text, json_default, json_text, write_atomic
from .qembed import RATE_DT_MAX, verification_report
from .reservoir import (
    EXACT_MODE_MAX_BITS,
    SHOTS,
    InputMeasure,
    InputSequence,
    build_reservoir,
    run_exact,
)
from .signals import probability_signals, sample_frequencies


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=json_default)


def config_hash(config: dict) -> str:
    """Hash of the config without its ``_EXECUTION_KEYS``, stable under key reordering."""
    scrubbed = {k: v for k, v in config.items() if k not in _EXECUTION_KEYS}
    return hashlib.sha256(canonical_json(scrubbed).encode()).hexdigest()


@dataclass
class Artifact:
    """One output file: either a CSV table or a JSON document."""

    name: str
    kind: str  # "csv" | "json"
    payload: dict


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    version: str
    started_utc: str
    finished_utc: str
    runtime_seconds: float
    artifacts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def write_results(artifacts, out_dir) -> list:
    """Write artifacts through :mod:`stochres.fileio`, in list order.

    CSV payloads are ``{"header": [...], "rows": [[...], ...]}``, with
    floats at 17 significant digits so a parse-back reproduces them
    bit-exactly; JSON payloads use the sorted-key, indent-1 format. Each
    file is written to a temp file in ``out_dir`` and renamed into place.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    paths = []
    for art in artifacts:
        if art.kind == "csv":
            text = csv_text(art.payload["header"], art.payload["rows"])
        elif art.kind == "json":
            text = json_text(art.payload)
        else:
            raise ValueError(f"unknown artifact kind: {art.kind!r}")
        path = out_dir / art.name
        write_atomic(path, text)
        paths.append(path)
    return paths


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_ipc(params, seed):
    """Spectral IPC of the shift-register family under fair binary drives.

    The drives come from the stream ``(seed, rng.DRIVES)``, a path that no
    shot of a sampler run takes, so no shot's draws are a function of the
    drives. In exact mode the signals are the exact distributions, and the
    probability-trace capacity is reported beside the spectral one. In
    sampled mode they are the empirical frequencies of ``shots``
    trajectories from :func:`~stochres.signals.sample_frequencies`, which
    propagates shot counts at every shot count; the trace capacity is null.
    """
    n = params["n"]
    lam = params["lambda"]
    measure = InputMeasure("iid-uniform-binary", 0.0, 1.0, seed=seed)
    res = build_reservoir(shift_register_flip_family(n, lam))
    drives = measure.draw(params["washout"] + params["timesteps"], _rng.stream(seed, _rng.DRIVES))
    seq = InputSequence(drives[:, None], washout_length=params["washout"])
    if params["mode"] == "exact":
        signals = probability_signals(run_exact(res, seq))
        trace = ipc_probability_rep(signals)
    else:
        signals = sample_frequencies(res, seq, params["shots"], seed)
        trace = None
    decomp = eigentask_decomposition(signals)
    spectral = ipc_spectral(decomp)
    report = {
        "n": n,
        "lambda": lam,
        "mode": params["mode"],
        "spectral": spectral.to_dict(),
        "probability_trace": trace.to_dict() if trace else None,
        "retained_rank": decomp.retained_rank,
    }
    sigma_rows = [(int(k), float(s)) for k, s in enumerate(decomp.sigma_sq)]
    return [
        Artifact("ipc_report.json", "json", report),
        Artifact("eigentask_sigma.csv", "csv",
                 {"header": ["k", "sigma_sq"], "rows": sigma_rows}),
    ], True


def _run_scan(params, seed):
    measure = InputMeasure("iid-uniform-binary", 0.0, 1.0, seed=seed)
    curve = scan_system_size(
        shift_register_flip_family,
        range(params["n_min"], params["n_max"] + 1),
        params["lambda"], measure,
        timesteps=params["timesteps"], washout=params["washout"],
        repeats=params["repeats"], seed=seed,
    )
    rows = [
        (int(n), float(m), float(e), float(curve.noise))
        for n, m, e in zip(curve.n_values, curve.ipc_mean, curve.ipc_stderr)
    ]
    fit = {
        "slope_log_ipc_vs_n": curve.slope_n,
        "slope_stderr": curve.slope_n_stderr,
        "slope_log_ipc_vs_log_n": curve.slope_logn,
        "slope_logn_stderr": curve.slope_logn_stderr,
        "subexponential_consistent": curve.subexponential_consistent,
        "lambda": curve.noise,
    }
    return [
        Artifact("scaling_curve.csv", "csv",
                 {"header": ["n", "ipc", "ipc_stderr", "lambda"], "rows": rows}),
        Artifact("scan_fit.json", "json", fit),
    ], True


def _run_switching(params, seed):
    count = params["count"]
    domain = (params["domain_lo"], params["domain_hi"])
    beta = sweep_exponential_sharpness(count, domain, params["target_min_peak"],
                                       params["grid_points"])
    s = matched_polynomial_sharpness(beta, params["match_rule"])
    fam_exp = switching_family("exponential", count, domain, beta, params["grid_points"])
    fam_poly = switching_family("polynomial", count, domain, s, params["grid_points"])
    header = (["u"] + [f"exp_{i}" for i in range(count)]
              + [f"poly_{i}" for i in range(count)])
    rows = [
        tuple([float(u)] + [float(v) for v in fam_exp.signals[:, j]]
              + [float(v) for v in fam_poly.signals[:, j]])
        for j, u in enumerate(fam_exp.grid)
    ]
    report = {
        "count": count,
        "beta": beta,
        "matched_sharpness": s,
        "match_rule": params["match_rule"],
        "exponential_peaks": [float(p) for p in fam_exp.peaks],
        "polynomial_peaks": [float(p) for p in fam_poly.peaks],
        "min_peak_exponential": float(fam_exp.peaks.min()),
        "min_peak_polynomial": float(fam_poly.peaks.min()),
        "peak_gap": float(fam_exp.peaks.min() - fam_poly.peaks.min()),
        "normalization_residual": max(fam_exp.normalization_residual(),
                                      fam_poly.normalization_residual()),
    }
    return [
        Artifact("switching_signals.csv", "csv", {"header": header, "rows": rows}),
        Artifact("switching_report.json", "json", report),
    ], True


def _run_tails(params, seed):
    gen = _rng.stream(seed, 17)
    u = np.linspace(params["u_min"], params["u_max"], params["points"])
    rows = []
    correct = 0
    for case in range(params["draws"]):
        if gen.random() < 0.5:
            true_kind, true_param = "polynomial", float(gen.uniform(1.5, 4.0))
            p = u ** (-true_param)
        else:
            true_kind, true_param = "exponential", float(gen.uniform(0.3, 2.0))
            p = np.exp(-true_param * u)
        p = p * np.exp(params["noise"] * gen.normal(size=u.size))
        fit = classify_tails(u, p)
        correct += fit.classification == true_kind
        rows.append((case, true_kind, float(true_param), fit.classification,
                     float(fit.parameter), float(fit.residual_poly), float(fit.residual_exp)))
    report = {"draws": params["draws"], "accuracy": correct / params["draws"]}
    return [
        Artifact("tail_cases.csv", "csv",
                 {"header": ["case", "true_kind", "true_param", "fit_kind",
                             "fit_param", "residual_poly", "residual_exp"],
                  "rows": rows}),
        Artifact("tails_report.json", "json", report),
    ], report["accuracy"] >= 0.95


def _run_power_basis(params, seed):
    try:
        rep = power_basis_demo(params["n"], params["samples"], seed=seed)
        payload = {
            "n": rep.n,
            "rank": rep.rank,
            "samples": rep.samples,
            "total_capacity": rep.ipc_report.ipc_value,
            "gram_eigenvalue_min": float(rep.gram_eigenvalues[0]),
            "gram_eigenvalue_max": float(rep.gram_eigenvalues[-1]),
            "conditioning_failure": None,
        }
        rows = [(g, float(c)) for g, c in enumerate(rep.ipc_report.components)]
        arts = [
            Artifact("power_basis.json", "json", payload),
            Artifact("power_basis_capacities.csv", "csv",
                     {"header": ["degree", "capacity"], "rows": rows}),
        ]
    except ConditioningFailure as exc:
        arts = [Artifact("power_basis.json", "json",
                         {"n": params["n"], "conditioning_failure": str(exc)})]
    return arts, True


def _run_learnability(params, seed):
    rows = []
    for qi, q in enumerate(params["q_values"]):
        curve = sample_complexity_curve(q, params["m0_grid"], params["trials"],
                                        seed=seed + qi)
        for m0, ex, em, ap, flag in zip(curve.m0_grid, curve.exact_all_zero,
                                        curve.empirical_all_zero,
                                        curve.small_product_approx,
                                        curve.approx_regime):
            rows.append((float(q), int(m0), float(ex), float(em), float(ap), int(flag)))
    growth = []
    for n in range(params["growth_n_min"], params["growth_n_max"] + 1):
        q = n * n / 2.0 ** n
        growth.append({
            "n": n,
            "q": q,
            "m0_needed": detection_sample_threshold(q),
            "reference_ln2_over_q": math.log(2.0) / q,
        })
    report = {"trials": params["trials"], "growth": growth}
    return [
        Artifact("learnability_curve.csv", "csv",
                 {"header": ["q", "m0", "exact_all_zero", "empirical_all_zero",
                             "m0_times_q", "approx_regime"], "rows": rows}),
        Artifact("learnability_report.json", "json", report),
    ], True


def _run_fat_shatter(params, seed):
    beta = sweep_exponential_sharpness(params["count"], (0.0, 1.0),
                                       params["target_min_peak"])
    fam = switching_family("exponential", params["count"], (0.0, 1.0), beta)
    values = switching_subset_class(fam)
    d, witness = fat_shattering_lower_bound(values, params["gamma"],
                                            thresholds=params["threshold"])
    verified = verify_shatter_witness(values, witness) if d > 0 else True
    report = {
        "count": params["count"],
        "gamma": params["gamma"],
        "threshold": params["threshold"],
        "beta": beta,
        "dimension": d,
        "witness_instances": list(witness.instance_indices),
        "witness_thresholds": [float(t) for t in witness.thresholds],
        "witness_assignment": {str(k): int(v) for k, v in witness.assignment.items()},
        "witness_verified": verified,
    }
    return [Artifact("fat_shatter.json", "json", report)], verified and d >= 2


def _run_embed_check(params, seed):
    report = verification_report(tolerance=params["tolerance"],
                                 cases=params["cases"], dt=params["dt"], seed=seed)
    return [Artifact("embed_check.json", "json", report)], bool(report["passed"])


class OneOf(frozenset):
    """Limit: one of the given values."""

    def check(self, name, value) -> None:
        if value not in self:
            raise InvalidInput(f"{name} must be one of {sorted(self)}, got {value!r}")


_AT_LEAST_1 = Interval(1)
_AT_LEAST_0 = Interval(0)
_POSITIVE = Interval(0.0, open_lo=True)
_ANY = Interval()

# keys that say nothing about what a run computes, so config_hash leaves them
# out; threads has no effect and stays only because existing configs carry it
_EXECUTION_KEYS = {"threads": (1, _AT_LEAST_1), "out_dir": (".", None)}
# keys every experiment takes; rng.stream masks seeds to 64 bits, so a seed
# outside [0, 2^64 - 1] would alias one inside it under another config_hash
COMMON_KEYS = {"seed": (0, Interval(0, 2 ** 64 - 1)), **_EXECUTION_KEYS}

# experiment name -> (runner, {key: (default, limit)}); the limit, of each entry of
# a list, is an Interval, a OneOf, or None where any value of the default's type will do
EXPERIMENTS: dict = {
    "ipc": (_run_ipc, {
        # both modes take the full 2^n distribution, so n stops at the exact-mode cap
        "n": (3, Interval(1, EXACT_MODE_MAX_BITS)),
        "lambda": (0.1, NOISE_RATE),
        "timesteps": (1500, _AT_LEAST_1),
        "washout": (100, _AT_LEAST_0),
        "mode": ("exact", OneOf({"exact", "sampled"})),
        "shots": (2000, SHOTS),
    }),
    "scan-n": (_run_scan, {
        # every n of the scan runs in exact mode
        "n_min": (2, Interval(1, EXACT_MODE_MAX_BITS)),
        "n_max": (8, Interval(1, EXACT_MODE_MAX_BITS)),
        "lambda": (0.05, NOISE_RATE),
        "timesteps": (2000, _AT_LEAST_1),
        "washout": (100, _AT_LEAST_0),
        "repeats": (3, _AT_LEAST_1),
    }),
    "switching": (_run_switching, {
        "count": (4, _AT_LEAST_1),
        "domain_lo": (0.0, _ANY),
        "domain_hi": (1.0, _ANY),
        "target_min_peak": (0.99, PEAK),
        "grid_points": (2001, _AT_LEAST_1),
        "match_rule": ("decay-scale", OneOf({"decay-scale", "half-width"})),
    }),
    "tails": (_run_tails, {
        "draws": (100, _AT_LEAST_1),
        # the polynomial law u^(-a) needs u > 0
        "u_min": (5.0, _POSITIVE),
        "u_max": (50.0, _POSITIVE),
        # each law has two parameters, so a third point tells the laws apart
        "points": (200, Interval(3)),
        # the spread of the log-normal noise on p; a negative one mirrors the draws
        "noise": (0.01, Interval(0.0)),
    }),
    "power-basis": (_run_power_basis, {
        "n": (3, POWER_BASIS_BITS),
        "samples": (100_000, _AT_LEAST_1),
    }),
    "learnability": (_run_learnability, {
        "q_values": ([0.01, 0.1], RATE),
        # each m0 is a sample count
        "m0_grid": ([1, 10, 100], _AT_LEAST_1),
        "trials": (10_000, LEARNABILITY_TRIALS),
        # the growth q = n^2 / 2^n is below 1 from n = 5 on, and 1 - q rounds
        # to 1 from n = 67 on
        "growth_n_min": (8, Interval(5)),
        "growth_n_max": (16, Interval(5, 66)),
    }),
    "fat-shatter": (_run_fat_shatter, {
        # dimension >= 2 needs two signals, and the exhaustive search takes
        # at most 2^16 functions, the subset sums of 16 signals
        "count": (4, Interval(2, 16)),
        # values lie in [0, 1], so a margin 2 gamma of at most 1 can be met
        "gamma": (0.3, Interval(0.0, 0.5, open_lo=True)),
        # a threshold between values in [0, 1]
        "threshold": (0.5, Interval(0.0, 1.0)),
        "target_min_peak": (0.99, PEAK),
    }),
    "embed-check": (_run_embed_check, {
        # a bound on residuals, which are >= 0; 0 fails the check on purpose
        "tolerance": (1e-12, Interval(0.0)),
        "cases": (100, _AT_LEAST_1),
        # the rate-relation grid needs three points; see qembed.RATE_DT_MAX.
        # Rounding swamps the O(dt^2) deviation from dt = 1e-5 on, so the
        # order check fails there; 1e-6 stops the grid at 1.3e6 points
        "dt": (1e-3, Interval(1e-6, RATE_DT_MAX, open_hi=True)),
    }),
}

# cross-key rules: (key, other key, holds(value, other value), what key must be)
_RULES = (
    ("n_min", "n_max", lambda a, b: a <= b, "<= n_max"),
    ("growth_n_min", "growth_n_max", lambda a, b: a <= b, "<= growth_n_max"),
    # tails fits laws in u over [u_min, u_max]
    ("u_min", "u_max", lambda a, b: a < b, "< u_max"),
    ("domain_lo", "domain_hi", lambda a, b: a < b, "< domain_hi"),
    # a grid step below the center spacing puts a grid point nearer to each
    # center than to any other; coarser grids leave a signal with no peak,
    # and the sharpness sweep then ends on NaN
    ("grid_points", "count", lambda a, b: a >= b + 2, ">= count + 2"),
    # learnability seeds the i-th q with seed + i, and rng.stream masks seeds
    # to 64 bits, so a longer list would redraw the streams of seed 0, 1, ...
    ("q_values", "seed", lambda q, seed: seed + len(q) - 1 <= 2 ** 64 - 1,
     "of length <= 2^64 - seed"),
)


def _number(key, value, want):
    """``value`` as ``want`` (int or float). Bools, non-numbers, non-finite
    numbers and, for int, numbers with a fraction raise ConfigValidation
    rather than being rounded or passed on."""
    if is_integer(value) or (isinstance(value, float) and math.isfinite(value)
                             and (want is float or value.is_integer())):
        return want(value)
    kind = "an integer" if want is int else "a finite number"
    raise ConfigValidation(f"config key {key!r} expects {kind}, got {value!r}")


def _checked(key, value, default, limit):
    """``value`` as the type of ``default``, numbers through :func:`_number`, and
    within ``limit`` (if not None) on pain of ConfigValidation; a list must be
    non-empty, and each entry is checked so, but not rewritten."""
    want = type(default)
    if want in (int, float):
        value = _number(key, value, want)
    elif not isinstance(value, want):
        raise ConfigValidation(
            f"config key {key!r} expects {want.__name__}, got {type(value).__name__}")
    if want is list:
        if not value:
            raise ConfigValidation(f"config key {key!r} must be a non-empty list")
        for i, entry in enumerate(value):
            _checked(f"{key}[{i}]", entry, default[0], limit)
    elif limit is not None:
        try:
            limit.check(f"config key {key!r}", value)
        except InvalidInput as exc:
            raise ConfigValidation(str(exc)) from None
    return value


def validate_config(config: dict) -> dict:
    """Merge defaults, reject unknown keys, wrong types, values outside their
    limits and broken cross-key rules, and return the effective config."""
    if "experiment" not in config:
        raise ConfigValidation("config is missing the 'experiment' key")
    name = config["experiment"]
    if name not in EXPERIMENTS:
        raise UnknownExperiment(f"unknown experiment: {name!r}")
    table = {**COMMON_KEYS, **EXPERIMENTS[name][1]}
    for key in config:
        if key != "experiment" and key not in table:
            raise ConfigValidation(f"unknown config key: {key!r}")
    effective = {"experiment": name}
    for key, (default, limit) in table.items():
        effective[key] = _checked(key, copy.copy(config.get(key, default)), default, limit)
    for key, other, holds, rule in _RULES:
        if key in effective and not holds(effective[key], effective[other]):
            raise ConfigValidation(f"config key {key!r} must be {rule}, got "
                                   f"{key} = {effective[key]}, {other} = {effective[other]}")
    return effective


def run_experiment(config: dict) -> RunManifest:
    """Validate, dispatch, write artifacts plus manifest, return the manifest.

    A manifest left in ``out_dir`` by an earlier run is deleted before any
    artifact is written, and the new one is written last, so a run that
    fails part way leaves no manifest that could vouch for a mix of old and
    new files. Raises NumericCheckFailure (after writing everything) when
    the experiment's built-in verification does not pass.
    """
    effective = validate_config(config)
    name = effective["experiment"]
    runner, table = EXPERIMENTS[name]
    params = {k: effective[k] for k in table}
    out_dir = Path(effective["out_dir"])
    seed = effective["seed"]

    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    artifacts, passed = runner(params, seed)
    try:
        (out_dir / "manifest.json").unlink(missing_ok=True)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    paths = write_results(artifacts, out_dir)
    finished = datetime.datetime.now(datetime.timezone.utc)

    manifest = RunManifest(
        config_hash=config_hash(effective),
        seed=seed,
        version=f"stochres-{__version__}",
        started_utc=started.isoformat(),
        finished_utc=finished.isoformat(),
        runtime_seconds=time.perf_counter() - t0,
        artifacts=[
            {"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in paths
        ],
    )
    write_atomic(out_dir / "manifest.json", json_text(manifest.to_dict()))
    if not passed:
        raise NumericCheckFailure(f"experiment {name!r} failed its numeric checks")
    return manifest
