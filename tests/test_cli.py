"""Run configs, artifact writing, manifests, CLI exit codes."""

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import stochres.rng
from stochres.cli import main
from stochres.errors import (
    ConfigValidation,
    IOFailure,
    NumericCheckFailure,
    SearchBudgetExceeded,
    UnknownExperiment,
)
from stochres.runio import (
    _RULES,
    COMMON_KEYS,
    EXPERIMENTS,
    Artifact,
    Each,
    Interval,
    OneOf,
    config_hash,
    run_experiment,
    validate_config,
    write_results,
)

README = Path(__file__).resolve().parents[1] / "README.md"


# --- config validation --------------------------------------------------------

def test_unknown_key_is_rejected_by_name():
    with pytest.raises(ConfigValidation, match="nosie"):
        validate_config({"experiment": "scan-n", "nosie": 0.1})


def test_unknown_experiment_is_rejected():
    with pytest.raises(UnknownExperiment):
        validate_config({"experiment": "does-not-exist"})


def test_config_hash_stable_under_key_reordering():
    a = {"experiment": "switching", "seed": 3, "count": 4}
    b = {"count": 4, "seed": 3, "experiment": "switching"}
    assert config_hash(validate_config(a)) == config_hash(validate_config(b))


def test_config_hash_ignores_execution_keys():
    a = validate_config({"experiment": "switching", "out_dir": "x", "threads": 1})
    b = validate_config({"experiment": "switching", "out_dir": "y", "threads": 8})
    assert config_hash(a) == config_hash(b)


@pytest.mark.parametrize("config, digest", [
    # recorded at an earlier commit: a change to validation must not move them
    ({"experiment": "learnability", "q_values": [0.0, 1, 1.0]},
     "dee792d20fcc7bfc7bbf4bcf1efe69e764b167833551eb8717fd83451492fe9c"),
    ({"experiment": "scan-n", "lambda": 0, "threads": 4, "out_dir": "x"},
     "ba30796231581d815708843a417e9a4c5a18c24df3516e9a2247a7214ef86d1d"),
    ({"experiment": "ipc", "seed": 5, "n": 4.0},
     "74eb0f9af0b7ae36b601000b045acbc65ce47d4a63500ebc2390d7f10d50ea64"),
    ({"experiment": "switching", "seed": 5},
     "15e755c1f30d4121271c2a91922d2b8abe59e826d50a1d0f106f53bea08e55aa"),
    ({"experiment": "embed-check", "seed": 5},
     "e45919307e9ef59126db1797c2792b38c01d43e7bacd502a57fe5df879f5a4d7"),
])
def test_config_hash_values_are_pinned(config, digest):
    assert config_hash(validate_config(config)) == digest


def test_defaults_are_merged():
    eff = validate_config({"experiment": "learnability"})
    assert eff["trials"] == 10_000
    assert eff["q_values"] == [0.01, 0.1]


# --- artifact writing ------------------------------------------------------------

def test_write_results_empty_list(tmp_path):
    assert write_results([], tmp_path) == []


def test_csv_parse_back_is_bit_exact(tmp_path):
    gen = np.random.default_rng(0)
    values = [float(v) for v in gen.uniform(-1, 1, 40)]
    art = Artifact("vals.csv", "csv",
                   {"header": ["i", "v"], "rows": [(i, v) for i, v in enumerate(values)]})
    (path,) = write_results([art], tmp_path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "i,v"
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a == b for a, b in zip(parsed, values))


def test_scaling_curve_csv_header_contract(tmp_path):
    manifest = run_experiment({"experiment": "scan-n", "n_min": 2, "n_max": 3,
                               "timesteps": 120, "washout": 20, "repeats": 2,
                               "out_dir": str(tmp_path), "seed": 1})
    header = (tmp_path / "scaling_curve.csv").read_text().split("\n")[0]
    assert header == "n,ipc,ipc_stderr,lambda"
    names = {a["path"] for a in manifest.artifacts}
    assert names == {"scaling_curve.csv", "scan_fit.json"}


def test_manifest_checksums_cover_all_artifacts(tmp_path):
    import hashlib

    run_experiment({"experiment": "switching", "out_dir": str(tmp_path),
                    "grid_points": 301})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"].startswith("stochres-")
    for entry in manifest["artifacts"]:
        blob = (tmp_path / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


def test_failed_rewrite_leaves_no_manifest_and_no_temp_files(tmp_path, monkeypatch):
    cfg = {"experiment": "switching", "out_dir": str(tmp_path), "grid_points": 301}
    run_experiment(cfg)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["manifest.json", "switching_report.json", "switching_signals.csv"]

    replace = os.replace
    calls = []

    def fail_second_artifact(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second_artifact)
    with pytest.raises(IOFailure, match="disk full"):
        run_experiment({**cfg, "grid_points": 401})
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == ["switching_report.json", "switching_signals.csv"]
    assert after["switching_signals.csv"] != before["switching_signals.csv"]
    assert after["switching_report.json"] == before["switching_report.json"]


# --- determinism ------------------------------------------------------------------

def _artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*"))
            if p.name != "manifest.json"}


def test_identical_runs_are_byte_identical_across_threads(tmp_path):
    cfg = {"experiment": "ipc", "mode": "sampled", "shots": 800, "n": 3,
           "timesteps": 80, "washout": 10, "seed": 7}
    run_experiment({**cfg, "out_dir": str(tmp_path / "a"), "threads": 1})
    run_experiment({**cfg, "out_dir": str(tmp_path / "b"), "threads": 8})
    assert _artifact_bytes(tmp_path / "a") == _artifact_bytes(tmp_path / "b")


def test_identical_config_and_seed_reproduce_checksums(tmp_path):
    cfg = {"experiment": "learnability", "trials": 2000,
           "m0_grid": [1, 5], "q_values": [0.05], "seed": 9}
    m1 = run_experiment({**cfg, "out_dir": str(tmp_path / "r1")})
    m2 = run_experiment({**cfg, "out_dir": str(tmp_path / "r2")})
    sums1 = {a["path"]: a["sha256"] for a in m1.artifacts}
    sums2 = {a["path"]: a["sha256"] for a in m2.artifacts}
    assert sums1 == sums2


@pytest.mark.parametrize("seed", [0, 5, 2 ** 40 + 3])
@pytest.mark.parametrize("config", [
    {"experiment": "ipc", "mode": "exact", "n": 3},
    # many shots and few, both propagated as counts
    {"experiment": "ipc", "mode": "sampled", "n": 3, "shots": 600},
    {"experiment": "ipc", "mode": "sampled", "n": 3, "shots": 20},
    {"experiment": "scan-n", "n_min": 2, "n_max": 3, "repeats": 2},
], ids=["ipc-exact", "ipc-counts", "ipc-shots", "scan-n"])
def test_no_two_streams_of_a_run_share_a_seed_state(config, seed, tmp_path, monkeypatch):
    # every rng.stream call of one run, as the state its SeedSequence gives
    # Philox; two equal states would be one stream drawn twice, as the
    # drives and shot 0 once were
    states = []
    stream = stochres.rng.stream

    def recorded(*path):
        gen = stream(*path)
        states.append(tuple(gen.bit_generator.seed_seq.generate_state(4).tolist()))
        return gen

    monkeypatch.setattr(stochres.rng, "stream", recorded)
    run_experiment({**config, "timesteps": 60, "washout": 5, "seed": seed,
                    "out_dir": str(tmp_path)})
    if "shots" in config:
        # the drives, then the count stream
        assert len(states) == 2
    assert len(set(states)) == len(states)


# --- CLI surface -------------------------------------------------------------------

def test_cli_embed_check_succeeds(tmp_path):
    assert main(["embed-check", "--out-dir", str(tmp_path), "--seed", "3"]) == 0
    assert (tmp_path / "embed_check.json").exists()
    assert (tmp_path / "manifest.json").exists()


def test_cli_has_no_threads_flag(tmp_path):
    # the threads config key stays accepted; the flag is gone
    with pytest.raises(SystemExit) as exc:
        main(["ipc", "--threads", "1", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nosie": 0.5}))
    code = main(["scan-n", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 2


def test_cli_numeric_failure_exit_code(tmp_path):
    # an impossible tolerance forces the embed suite to report failure
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"tolerance": 0.0}))
    code = main(["embed-check", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 3
    # the report is still written for inspection
    assert (tmp_path / "embed_check.json").exists()


def test_cli_unreadable_config_is_io_failure(tmp_path):
    code = main(["switching", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 4


def test_cli_other_library_errors_exit_with_config_code(tmp_path, monkeypatch, capsys):
    def exhausted(params, seed):
        raise SearchBudgetExceeded("shattering search exceeded budget 1")

    monkeypatch.setitem(EXPERIMENTS, "fat-shatter", (exhausted, EXPERIMENTS["fat-shatter"][1]))
    assert main(["fat-shatter", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: shattering search exceeded budget 1\n"
    assert not (tmp_path / "out").exists()


def test_numeric_check_failure_raised_in_process(tmp_path):
    with pytest.raises(NumericCheckFailure):
        run_experiment({"experiment": "embed-check", "tolerance": 0.0,
                        "out_dir": str(tmp_path)})


def test_config_type_validation():
    with pytest.raises(ConfigValidation, match="timesteps"):
        validate_config({"experiment": "scan-n", "timesteps": "many"})
    eff = validate_config({"experiment": "scan-n", "lambda": 0})
    assert isinstance(eff["lambda"], float)  # ints promote to float defaults


@pytest.mark.parametrize("key, value", [
    ("n", 3.9), ("n", True), ("n", "3"), ("n", float("inf")),
    ("seed", 2.9), ("seed", "abc"), ("seed", False), ("seed", float("nan")),
    ("threads", "x"), ("threads", 1.5),
    ("lambda", float("nan")), ("lambda", float("inf")), ("lambda", True),
])
def test_config_numbers_are_not_rounded_or_passed_on(key, value):
    with pytest.raises(ConfigValidation, match=key):
        validate_config({"experiment": "ipc", key: value})


def test_integral_numbers_are_accepted_for_integer_keys():
    eff = validate_config({"experiment": "ipc", "n": 4.0, "seed": 7.0, "threads": 2})
    assert (eff["n"], eff["seed"], eff["threads"]) == (4, 7, 2)
    assert all(type(eff[k]) is int for k in ("n", "seed", "threads"))


@pytest.mark.parametrize("text", ['{"n": 3.9}', '{"seed": 2.9}', '{"seed": "abc"}',
                                  '{"threads": "x"}', '{"lambda": NaN}'])
def test_cli_rejects_ambiguous_numbers_with_config_exit_code(text, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["ipc", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, key", [
    ('{"mode": "bogus"}', "mode"),
    ('{"n": 0}', "n"),
    ('{"mode": "sampled", "shots": 0}', "shots"),
    ('{"mode": "sampled", "shots": 9007199254740993}', "shots"),
    ('{"timesteps": -5}', "timesteps"),
    ('{"lambda": 0.7}', "lambda"),
    ('{"lambda": -0.1}', "lambda"),
    ('{"n": 15, "mode": "sampled"}', "n"),
    ('{"threads": 0}', "threads"),
    ('{"threads": -3, "mode": "sampled"}', "threads"),
])
def test_cli_rejects_out_of_range_values_with_config_exit_code(text, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["ipc", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, overrides, key", [
    ("ipc", {"washout": -1}, "washout"),
    ("scan-n", {"repeats": 0}, "repeats"),
    ("scan-n", {"n_min": 0}, "n_min"),
    ("scan-n", {"n_min": 5, "n_max": 4}, "n_min"),
    ("power-basis", {"n": 0}, "n"),
    ("switching", {"threads": 0}, "threads"),
    ("tails", {"u_min": 50.0, "u_max": 50.0}, "u_min"),
    ("scan-n", {"n_max": 15}, "n_max"),
])
def test_config_ranges_are_checked(experiment, overrides, key):
    with pytest.raises(ConfigValidation, match=key):
        validate_config({"experiment": experiment, **overrides})


def test_config_range_limits_are_inclusive():
    eff = validate_config({"experiment": "scan-n", "n_min": 3, "n_max": 3, "repeats": 1,
                           "timesteps": 1, "washout": 0})
    assert (eff["n_min"], eff["n_max"], eff["washout"]) == (3, 3, 0)
    assert validate_config({"experiment": "ipc", "mode": "sampled", "shots": 1})["shots"] == 1
    assert validate_config({"experiment": "ipc", "shots": 2 ** 53})["shots"] == 2 ** 53
    eff = validate_config({"experiment": "ipc", "n": 14, "lambda": 0.5})
    assert (eff["n"], eff["lambda"]) == (14, 0.5)
    assert validate_config({"experiment": "scan-n", "lambda": 0.0})["lambda"] == 0.0
    assert validate_config({"experiment": "tails", "u_min": 5e-324})["u_min"] == 5e-324
    assert validate_config({"experiment": "embed-check", "cases": 1})["cases"] == 1
    assert validate_config({"experiment": "ipc", "threads": 1})["threads"] == 1
    assert validate_config({"experiment": "learnability",
                            "q_values": [0.0, 1, 1.0]})["q_values"] == [0.0, 1, 1.0]
    for name in ("switching", "fat-shatter"):
        eff = validate_config({"experiment": name, "target_min_peak": 1.0})
        assert eff["target_min_peak"] == 1.0
        eff = validate_config({"experiment": name, "target_min_peak": 5e-324})
        assert eff["target_min_peak"] == 5e-324
    eff = validate_config({"experiment": "tails", "u_min": 49.0, "u_max": 50.0})
    assert (eff["u_min"], eff["u_max"]) == (49.0, 50.0)


@pytest.mark.parametrize("experiment, text, key", [
    ("power-basis", '{"n": 7}', "n"),
    ("power-basis", '{"samples": 0}', "samples"),
    ("tails", '{"draws": 0}', "draws"),
    ("switching", '{"count": 0}', "count"),
    ("fat-shatter", '{"count": 0}', "count"),
    ("learnability", '{"trials": 999}', "trials"),
    ("tails", '{"points": 0}', "points"),
    ("tails", '{"points": 1}', "points"),
    ("tails", '{"points": 2}', "points"),
    ("switching", '{"grid_points": 0}', "grid_points"),
    ("switching", '{"grid_points": 5}', "grid_points"),
    ("switching", '{"count": 8, "grid_points": 9}', "grid_points"),
    ("learnability", '{"growth_n_min": 0}', "growth_n_min"),
    ("learnability", '{"growth_n_min": 4}', "growth_n_min"),
    ("learnability", '{"growth_n_min": 12, "growth_n_max": 9}', "growth_n_min"),
    ("fat-shatter", '{"count": 1}', "count"),
    ("scan-n", '{"lambda": 0.7}', "lambda"),
    ("scan-n", '{"lambda": -0.1}', "lambda"),
    ("tails", '{"u_min": 0.0}', "u_min"),
    ("learnability", '{"growth_n_max": 67}', "growth_n_max"),
    ("switching", '{"match_rule": "bogus"}', "match_rule"),
    ("embed-check", '{"dt": 0.0}', "dt"),
    ("embed-check", '{"cases": 0}', "cases"),
    ("tails", '{"u_min": 50.0}', "u_min"),
    ("tails", '{"u_min": 60.0}', "u_min"),
    ("learnability", '{"q_values": [1.5]}', "q_values[0]"),
    ("learnability", '{"q_values": [0.1, -0.2]}', "q_values[1]"),
    ("learnability", '{"q_values": [0.1, true]}', "q_values[1]"),
    ("learnability", '{"q_values": ["a"]}', "q_values[0]"),
    ("switching", '{"target_min_peak": 1.5}', "target_min_peak"),
    ("switching", '{"target_min_peak": 0.0}', "target_min_peak"),
    ("fat-shatter", '{"target_min_peak": 1.5}', "target_min_peak"),
    ("fat-shatter", '{"target_min_peak": -0.5}', "target_min_peak"),
    ("embed-check", '{"threads": 0}', "threads"),
    ("switching", '{"domain_lo": 1.0, "domain_hi": 0.0}', "domain_lo"),
    ("learnability", '{"m0_grid": []}', "m0_grid"),
    ("learnability", '{"m0_grid": [0]}', "m0_grid[0]"),
    ("learnability", '{"q_values": []}', "q_values"),
    ("learnability", '{"m0_grid": [1.5]}', "m0_grid[0]"),
    ("fat-shatter", '{"gamma": -0.3}', "gamma"),
    ("tails", '{"noise": -1.0}', "noise"),
    ("fat-shatter", '{"threshold": 2.0}', "threshold"),
    ("embed-check", '{"tolerance": -1.0}', "tolerance"),
    ("learnability", '{"m0_grid": [-5]}', "m0_grid[0]"),
    ("switching", '{"domain_lo": 0.0, "domain_hi": 0.0}', "domain_lo"),
    ("embed-check", '{"dt": 5.0}', "dt"),
    ("fat-shatter", '{"count": 17}', "count"),
    ("ipc", '{"seed": -1}', "seed"),
    ("ipc", '{"seed": 18446744073709551616}', "seed"),
    # the second q would take seed 2^64, which the stream reads as seed 0
    ("learnability", '{"q_values": [0.01, 0.1], "seed": 18446744073709551615}', "q_values"),
    ("embed-check", '{"dt": 1e-9}', "dt"),
    ("embed-check", '{"dt": 9.9e-7}', "dt"),
])
def test_cli_rejects_other_experiments_out_of_range_values(experiment, text, key,
                                                           tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main([experiment, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, text", [
    ("tails", '{"points": 3, "draws": 20}'),
    ("switching", '{"grid_points": 6}'),
    ("switching", '{"count": 1, "grid_points": 3}'),
    ("learnability", '{"growth_n_min": 5, "growth_n_max": 5, "trials": 1000}'),
    ("fat-shatter", '{"count": 2}'),
])
def test_cli_runs_other_experiments_at_their_least_values(experiment, text, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main([experiment, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("experiment, overrides", [
    ("ipc", {"seed": 0}),
    ("ipc", {"seed": 2 ** 64 - 1}),
    ("scan-n", {"n_min": 14, "n_max": 14}),
    ("tails", {"noise": 0.0}),
    ("fat-shatter", {"gamma": 0.5, "threshold": 0.0, "count": 16}),
    ("fat-shatter", {"gamma": 5e-324, "threshold": 1.0}),
    ("embed-check", {"tolerance": 0.0, "dt": 0.6499999999999998}),
    ("learnability", {"m0_grid": [1], "q_values": [0.5]}),
    ("switching", {"domain_lo": -1.0, "domain_hi": -0.5}),
    ("embed-check", {"dt": 1e-6}),
    ("learnability", {"q_values": [0.01], "seed": 2 ** 64 - 1}),
    ("learnability", {"q_values": [0.01, 0.1, 0.5], "seed": 2 ** 64 - 3}),
])
def test_limits_admit_their_ends(experiment, overrides):
    eff = validate_config({"experiment": experiment, **overrides})
    assert all(eff[key] == value for key, value in overrides.items())


def test_embed_check_runs_at_its_largest_dt(tmp_path):
    # the rate-relation grid still has three points one step below RATE_DT_MAX
    assert run_experiment({"experiment": "embed-check", "dt": 0.6499999999999998, "cases": 1,
                           "out_dir": str(tmp_path)}).artifacts


def test_every_key_has_a_limit_that_admits_its_default():
    tables = [COMMON_KEYS] + [table for _, table in EXPERIMENTS.values()]
    for table in tables:
        for key, (default, limit) in table.items():
            assert isinstance(limit, (OneOf, Interval, Each)), key
            limit.check(key, default, default)
            if isinstance(limit, Each):
                assert default and all(type(v) is type(default[0]) for v in default), key
    keys = {key for table in tables for key in table}
    for key, other, _, _ in _RULES:
        assert {key, other} <= keys
    for name, (_, table) in EXPERIMENTS.items():
        assert not set(table) & set(COMMON_KEYS), name
        validate_config({"experiment": name})


def _limit_text(limit) -> str:
    if isinstance(limit, OneOf):
        return "one of " + ", ".join(f"`{v}`" for v in sorted(limit))
    if isinstance(limit, Each):
        return "non-empty; each entry in " + _limit_text(limit.entry)
    if limit.lo is None and limit.hi is None:
        return "any"
    lo = "(-∞" if limit.lo is None else f"{'(' if limit.open_lo else '['}{limit.lo}"
    hi = "∞)" if limit.hi is None else f"{limit.hi}{')' if limit.open_hi else ']'}"
    return f"{lo}, {hi}"


def schema_readme_lines() -> list:
    """The README's config table and cross-key rule line, as the schema gives them."""
    rows = [("all", COMMON_KEYS)]
    rows += [(f"`{name}`", table) for name, (_, table) in EXPERIMENTS.items()]
    lines = ["| experiment | key | default | limit |", "| --- | --- | --- | --- |"]
    lines += [f"| {name} | `{key}` | `{json.dumps(default)}` | {_limit_text(limit)} |"
              for name, table in rows for key, (default, limit) in table.items()]
    rules = ", ".join(f"`{key} {rule}`" for key, _, _, rule in _RULES)
    return lines + ["", f"Cross-key rules: {rules}."]


def test_readme_config_table_matches_the_schema():
    want = schema_readme_lines()
    lines = README.read_text().splitlines()
    start = lines.index(want[0])
    assert lines[start:start + len(want)] == want
    assert not lines[start + len(want)].strip()


def test_learnability_runs_at_its_greatest_growth_n(tmp_path):
    # at n = 66, 1 - q with q = n^2 / 2^n is still below 1 in floating point
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"growth_n_min": 66, "growth_n_max": 66, "trials": 1000}')
    assert main(["learnability", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "learnability_report.json").read_text())
    assert math.isfinite(report["growth"][0]["m0_needed"])


def test_shared_config_keys_have_per_experiment_limits():
    # power-basis caps n at 6; ipc runs n = 11 and beyond
    assert validate_config({"experiment": "ipc", "n": 11})["n"] == 11
    assert validate_config({"experiment": "power-basis", "n": 6})["n"] == 6
    assert validate_config({"experiment": "learnability", "trials": 1000})["trials"] == 1000
    with pytest.raises(ConfigValidation, match="<= 6"):
        validate_config({"experiment": "power-basis", "n": 7})


def test_ipc_report_spectral_equals_probability_trace(tmp_path):
    # at n = 6 some states are so rare that G1 whitening would drop them
    run_experiment({"experiment": "ipc", "n": 6, "timesteps": 300, "washout": 20,
                    "out_dir": str(tmp_path)})
    report = json.loads((tmp_path / "ipc_report.json").read_text())
    assert abs(report["spectral"]["ipc"] - report["probability_trace"]["ipc"]) <= 1e-12
    assert report["retained_rank"] == report["spectral"]["retained_rank"] <= 64


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_ipc_run_takes_no_eigenvectors(mode, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    run_experiment({"experiment": "ipc", "n": 4, "mode": mode, "timesteps": 300,
                    "washout": 20, "shots": 200, "out_dir": str(tmp_path)})
    report = json.loads((tmp_path / "ipc_report.json").read_text())
    assert report["retained_rank"] > 0


def test_remaining_runners_produce_artifacts(tmp_path):
    runs = [
        ({"experiment": "tails", "draws": 40, "out_dir": str(tmp_path / "t")},
         {"tail_cases.csv", "tails_report.json"}),
        ({"experiment": "power-basis", "n": 2, "samples": 20_000,
          "out_dir": str(tmp_path / "p")},
         {"power_basis.json", "power_basis_capacities.csv"}),
        ({"experiment": "fat-shatter", "out_dir": str(tmp_path / "f")},
         {"fat_shatter.json"}),
        ({"experiment": "ipc", "n": 2, "timesteps": 80, "washout": 10,
          "out_dir": str(tmp_path / "i")},
         {"ipc_report.json", "eigentask_sigma.csv"}),
    ]
    for cfg, expected in runs:
        manifest = run_experiment(cfg)
        assert {a["path"] for a in manifest.artifacts} == expected


def test_power_basis_runner_reports_conditioning_failure(tmp_path):
    run_experiment({"experiment": "power-basis", "n": 6, "samples": 20_000,
                    "out_dir": str(tmp_path)})
    doc = json.loads((tmp_path / "power_basis.json").read_text())
    assert doc["conditioning_failure"] is None or "rank" in doc["conditioning_failure"]


def test_fat_shatter_report_contents(tmp_path):
    run_experiment({"experiment": "fat-shatter", "out_dir": str(tmp_path)})
    raw = (tmp_path / "fat_shatter.json").read_bytes()
    doc = json.loads(raw)
    assert doc["dimension"] >= 2 and doc["witness_verified"]
    assert len(doc["witness_assignment"]) == 2 ** doc["dimension"]
    # the search draws nothing at random, so the default report's bytes are
    # the same at every seed and are pinned
    run_experiment({"experiment": "fat-shatter", "seed": 9, "out_dir": str(tmp_path / "seed9")})
    assert (tmp_path / "seed9" / "fat_shatter.json").read_bytes() == raw
    assert hashlib.sha256(raw).hexdigest() == (
        "18b56113b7dd5eb1ee9456e83668643f6d27c126fba612ad352ccfde46a35505")
