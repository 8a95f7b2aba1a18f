"""The four benchmark workloads.

Each workload makes its inputs from a seed, runs one timed call into the
public ``stochres`` API, and then, outside the timed region, extracts
``facts`` from the outputs and checks them. A check is a predicate over the
facts; a perturbation breaks one fact on purpose so that the self-test can
show the matching check is not vacuous.

Import this module only after ``stochres`` is importable (see ``run.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import stochres as sr
from stochres import runio, transforms
from stochres.errors import NumericCheckFailure
from stochres.experiments import shift_register_capacity_closed_form
from stochres.reservoir import controlled_flip_gate, flip_gate, set_gate, swap_gate

# Library functions are called through their module (``sr.``, ``runio.``,
# ``transforms.``) at call time, so that the tracer's wrappers are seen.

# tolerances taken from the acceptance suite
CLOSED_FORM_REL_TOL = 0.05   # shift-register oracle, criterion 04
ROUTE_AGREEMENT_TOL = 1e-8   # spectral vs probability-trace, criterion 01
ROUND_TRIP_TOL = 1e-12       # moments -> probabilities, criterion 10
GRAM_ERROR_TOL = 1e-6        # total_capacity's orthonormality gate


@dataclass
class Workload:
    name: str
    params: dict
    run: Callable[[dict, int, Path], object]      # timed: (params, seed, out_dir) -> result
    facts: Callable[[dict, object, Path], dict]   # untimed: what the checks look at
    checks: dict                                  # check name -> predicate(facts) -> bool
    perturb: dict                                 # check name -> facts -> None
    specs: Callable[[dict], list]                 # reservoir specs built at set-up
    config: Callable[[dict, int, Path], dict] = None  # CLI config, when there is one

    def setup(self, seed: int, out_dir: Path) -> None:
        """Work a user pays before the first step: config and reservoirs."""
        if self.config is not None:
            runio.validate_config(self.config(self.params, seed, out_dir))
        for spec in self.specs(self.params):
            sr.build_reservoir(spec)

    def failed_checks(self, facts: dict) -> list:
        return [name for name, ok in self.checks.items() if not ok(facts)]


# ---------------------------------------------------------------------------
# CLI experiments: scan, sampled, wide
# ---------------------------------------------------------------------------

def _run_cli(config_fn):
    def run(params, seed, out_dir):
        try:
            runio.run_experiment(config_fn(params, seed, out_dir))
        except NumericCheckFailure:
            # artifacts and manifest are written before the failure is raised
            return {"passed": False}
        return {"passed": True}
    return run


def _artifact_digests(out_dir: Path) -> dict:
    """SHA-256 of every artifact; the manifest holds timestamps and is left out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


def _within_closed_form(facts) -> bool:
    return all(abs(ipc - closed) <= CLOSED_FORM_REL_TOL * closed
               for ipc, closed in zip(facts["capacity"], facts["closed_form"]))


def _set(key, value_fn):
    """Perturbation that overwrites one fact."""
    def perturb(facts):
        facts[key] = value_fn(facts)
    return perturb


CLI_CHECKS = {"passed": lambda f: f["passed"], "closed_form": _within_closed_form}
CLI_PERTURB = {
    "passed": _set("passed", lambda f: False),
    "closed_form": _set("capacity", lambda f: [c * (1 + 2 * CLOSED_FORM_REL_TOL)
                                               for c in f["capacity"]]),
}


def _scan_config(p, seed, out_dir):
    return {"experiment": "scan-n", "seed": seed, "out_dir": str(out_dir), **p["config"]}


def _scan_facts(p, result, out_dir):
    with open(out_dir / "scaling_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    lam = p["config"]["lambda"]
    return {
        "passed": result["passed"],
        "capacity": [float(r["ipc"]) for r in rows],
        "closed_form": [shift_register_capacity_closed_form(int(r["n"]), lam) for r in rows],
        "digest": _artifact_digests(out_dir),
    }


def _scan_specs(p):
    c = p["config"]
    return [sr.shift_register_flip_family(n, c["lambda"])
            for n in range(c["n_min"], c["n_max"] + 1)]


def _ipc_config(p, seed, out_dir):
    return {"experiment": "ipc", "seed": seed, "out_dir": str(out_dir), **p["config"]}


def _ipc_facts(p, result, out_dir):
    report = json.loads((out_dir / "ipc_report.json").read_text())
    # every capacity route the run reports is held to the oracle
    caps = [report["spectral"]["ipc"]]
    if report["probability_trace"] is not None:
        caps.append(report["probability_trace"]["ipc"])
    closed = shift_register_capacity_closed_form(report["n"], report["lambda"])
    return {
        "passed": result["passed"],
        "capacity": caps,
        "closed_form": [closed] * len(caps),
        "digest": _artifact_digests(out_dir),
    }


def _ipc_specs(p):
    c = p["config"]
    return [sr.shift_register_flip_family(c["n"], c["lambda"])]


# ---------------------------------------------------------------------------
# library pipeline: basis
# ---------------------------------------------------------------------------

def basis_spec(n: int) -> sr.ReservoirSpec:
    """Swap backbone, a polynomial set drive, a logistic controlled flip and
    flip noise on every bit."""
    gates = [swap_gate(i, i + 1) for i in range(n - 1)]
    gates.append(set_gate(n - 1, {"type": "poly", "coeffs": [0.5, 0.35, 0.1]}))
    gates.append(controlled_flip_gate(n - 1, 0, {"type": "logistic", "rate": 3.0,
                                                 "center": 0.0, "lo": 0.05, "hi": 0.45}))
    gates += [flip_gate(i, 0.03) for i in range(n)]
    return sr.ReservoirSpec(n=n, gates=gates)


def _basis_run(p, seed, out_dir):
    n, washout = p["n"], p["washout"]
    res = sr.build_reservoir(basis_spec(n))
    measure = sr.InputMeasure("iid-uniform-interval", -1.0, 1.0, seed=seed)
    seq = measure.sequence(washout + p["timesteps"], washout_length=washout)
    signals = sr.probability_signals(sr.run_exact(res, seq))
    decomp = sr.eigentask_decomposition(*sr.gram_matrices(signals))
    basis = sr.build_target_basis(measure, p["max_delay"], p["max_degree"])
    moments = transforms.signal_moments(signals)
    return {
        "signals": signals,
        "decomp": decomp,
        "spectral": sr.ipc_spectral(decomp),
        "trace": sr.ipc_probability_rep(signals),
        "basis": basis,
        "basis_sum": sr.total_capacity(signals, basis, seq.drives, start=washout),
        "round_trip": sr.probabilities_from_moments(moments.data, n),
    }


def _basis_facts(p, r, out_dir):
    digest = hashlib.sha256()
    for arr in (r["spectral"].components, r["trace"].components,
                r["basis_sum"].components, r["round_trip"]):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return {
        "full_rank": r["decomp"].retained_rank == r["decomp"].signal_dim,
        "spectral": r["spectral"].ipc_value,
        "trace": r["trace"].ipc_value,
        "components": r["basis_sum"].components.tolist(),
        "basis_sum": r["basis_sum"].ipc_value,
        "dim": r["signals"].columns,
        "round_trip_err": float(np.max(np.abs(r["round_trip"] - r["signals"].data))),
        "gram_error": r["basis"].gram_error(),
        "digest": {"results": digest.hexdigest()},
    }


BASIS_CHECKS = {
    "routes_agree": lambda f: not f["full_rank"]
    or abs(f["spectral"] - f["trace"]) <= ROUTE_AGREEMENT_TOL,
    "unit_interval": lambda f: all(0.0 <= c <= 1.0 for c in f["components"]),
    "sum_within_dim": lambda f: f["basis_sum"] <= f["dim"],
    "round_trip": lambda f: f["round_trip_err"] <= ROUND_TRIP_TOL,
    "gram_error": lambda f: f["gram_error"] <= GRAM_ERROR_TOL,
}


BASIS_PERTURB = {
    "routes_agree": _set("spectral", lambda f: f["trace"] + 1e3 * ROUTE_AGREEMENT_TOL),
    "unit_interval": _set("components", lambda f: [1.5] + f["components"][1:]),
    "sum_within_dim": _set("basis_sum", lambda f: f["dim"] + 1.0),
    "round_trip": _set("round_trip_err", lambda f: 1e3 * ROUND_TRIP_TOL),
    "gram_error": _set("gram_error", lambda f: 10 * GRAM_ERROR_TOL),
}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# "full" is what the benchmark measures; "tiny" is the self-test's smoke size
SIZES = {
    "scan": {
        "full": {"config": {"n_min": 2, "n_max": 8, "lambda": 0.05, "timesteps": 2000,
                            "washout": 100, "repeats": 3}},
        "tiny": {"config": {"n_min": 2, "n_max": 4, "lambda": 0.05, "timesteps": 500,
                            "washout": 100, "repeats": 2}},
    },
    "sampled": {
        "full": {"config": {"mode": "sampled", "n": 4, "lambda": 0.1, "shots": 2000,
                            "timesteps": 1500, "washout": 100, "threads": 1}},
        "tiny": {"config": {"mode": "sampled", "n": 2, "lambda": 0.1, "shots": 1000,
                            "timesteps": 400, "washout": 100, "threads": 1}},
    },
    "wide": {
        "full": {"config": {"mode": "exact", "n": 11, "lambda": 0.1,
                            "timesteps": 1500, "washout": 100}},
        "tiny": {"config": {"mode": "exact", "n": 5, "lambda": 0.1,
                            "timesteps": 800, "washout": 100}},
    },
    "basis": {
        "full": {"n": 6, "timesteps": 3000, "washout": 100, "max_delay": 7, "max_degree": 3},
        "tiny": {"n": 3, "timesteps": 600, "washout": 100, "max_delay": 3, "max_degree": 2},
    },
}


def get(name: str, size: str = "full") -> Workload:
    params = SIZES[name][size]
    if name == "basis":
        return Workload(name, params, _basis_run, _basis_facts, BASIS_CHECKS,
                        BASIS_PERTURB, lambda p: [basis_spec(p["n"])])
    config, facts, specs = ((_scan_config, _scan_facts, _scan_specs) if name == "scan"
                            else (_ipc_config, _ipc_facts, _ipc_specs))
    return Workload(name, params, _run_cli(config), facts, CLI_CHECKS,
                    CLI_PERTURB, specs, config)


NAMES = tuple(SIZES)
