"""Each kind of console check in cli_checks.py fails, naming itself, on a perturbed input."""

import hashlib
import json
import sys

import pytest

from cli_checks import (manifest_matches, near_closed_form, near_finite_shot_target, routes_agree,
                        run, same_bytes, shatters_16, short_scan_fit)
from stochres.experiments import shift_register_capacity_closed_form


def _report(path, gap, rank=8):
    path.write_text(json.dumps({"spectral": {"ipc": 3.0}, "probability_trace": {"ipc": 3.0 + gap},
                                "retained_rank": rank}))
    return path


def test_route_gap_above_1e_12_fails(tmp_path):
    routes_agree(_report(tmp_path / "ok.json", 4e-13), "ipc")
    with pytest.raises(SystemExit, match="ipc n = 8: spectral and probability-trace .* 1e-09"):
        routes_agree(_report(tmp_path / "gap.json", 1e-9), "ipc n = 8")
    with pytest.raises(SystemExit, match="ipc: retained rank 0"):
        routes_agree(_report(tmp_path / "rank.json", 0.0, rank=0), "ipc")


def test_ipc_six_percent_off_its_closed_form_fails():
    closed = shift_register_capacity_closed_form(4, 0.1)
    near_closed_form("sampled n = 4", 4, 0.1, 1.04 * closed)
    with pytest.raises(SystemExit, match="sampled n = 4: ipc .* not within 5 %"):
        near_closed_form("sampled n = 4", 4, 0.1, 1.06 * closed)


def test_ipc_three_percent_off_its_finite_shot_target_fails():
    closed = shift_register_capacity_closed_form(11, 0.1)
    target = closed + (2 ** 11 - closed) / 1000
    near_finite_shot_target("sampled-n11 n = 11", 11, 0.1, 1000, 0.985 * target)
    with pytest.raises(SystemExit, match="sampled-n11 n = 11: ipc .* not within 2 % of its "
                                         "1000-shot target"):
        near_finite_shot_target("sampled-n11 n = 11", 11, 0.1, 1000, 1.03 * target)
    with pytest.raises(SystemExit, match="not within 2 %"):
        # the closed form itself, 31 % below the target, fails
        near_finite_shot_target("sampled-n11 n = 11", 11, 0.1, 1000, closed)


def test_one_differing_byte_between_two_runs_fails(tmp_path):
    for name in ("ipc", "ipc-again"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "ipc_report.json").write_bytes(b"{}")
        (tmp_path / name / "manifest.json").write_text(name)  # manifests hold run times
    same_bytes(tmp_path, "ipc")
    (tmp_path / "ipc-again" / "ipc_report.json").write_bytes(b"{ ")
    with pytest.raises(SystemExit, match=r"ipc: \['ipc_report.json'\] differ between two runs"):
        same_bytes(tmp_path, "ipc")
    (tmp_path / "ipc-again" / "ipc_report.json").unlink()
    with pytest.raises(SystemExit, match="ipc_report.json"):
        same_bytes(tmp_path, "ipc")


def test_manifest_sha256_mismatch_fails(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"x\n1\n")
    entry = {"path": "a.csv", "sha256": hashlib.sha256(b"x\n1\n").hexdigest()}
    (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": [entry]}))
    assert manifest_matches(tmp_path) == 1
    (tmp_path / "a.csv").write_bytes(b"x\n2\n")
    with pytest.raises(SystemExit, match="a.csv: sha256 does not match"):
        manifest_matches(tmp_path)


@pytest.mark.parametrize("code, fault", [
    ("sys.exit(0)", "exited 0, not 2"),
    ("os.mkdir(sys.argv[sys.argv.index('--out-dir') + 1]); sys.exit(2)", "wrote"),
], ids=["exits-0", "writes-out-dir"])
def test_reject_that_exits_0_or_writes_its_out_dir_fails(code, fault, tmp_path):
    # a stand-in for the console script, so no CLI run is made
    refuse = [sys.executable, "-c", "import os, sys; sys.exit(2)"]
    run(refuse, tmp_path, "bad", "ipc", '{"mode": "bogus"}', status=2)
    with pytest.raises(SystemExit, match=f"ipc {{\"mode\": \"bogus\"}} {fault}"):
        run([sys.executable, "-c", f"import os, sys; {code}"], tmp_path, "bad", "ipc",
            '{"mode": "bogus"}', status=2)


def test_fat_shatter_below_dimension_16_fails(tmp_path):
    report = {"dimension": 16, "witness_verified": True, "witness_assignment": [0] * 65536}
    (tmp_path / "ok.json").write_text(json.dumps(report))
    shatters_16(tmp_path / "ok.json")
    (tmp_path / "low.json").write_text(json.dumps({**report, "dimension": 15}))
    with pytest.raises(SystemExit, match="fat-shatter count 16: dimension 15"):
        shatters_16(tmp_path / "low.json")


def _fit(path, slope, stderr, flag):
    path.write_text(json.dumps({"slope_log_ipc_vs_n": slope, "slope_stderr": stderr,
                                "slope_log_ipc_vs_log_n": slope, "slope_logn_stderr": stderr,
                                "subexponential_consistent": flag}))
    return path


def test_short_scan_with_a_stderr_a_true_flag_or_a_wrong_slope_fails(tmp_path):
    short_scan_fit(_fit(tmp_path / "two.json", 0.5, None, False), "scan-n-two", 2)
    short_scan_fit(_fit(tmp_path / "one.json", None, None, False), "scan-n-one", 1)
    with pytest.raises(SystemExit, match="scan-n-two: standard errors 0.0"):
        short_scan_fit(_fit(tmp_path / "dof.json", 0.5, 0.0, False), "scan-n-two", 2)
    with pytest.raises(SystemExit, match="scan-n-two: subexponential_consistent True"):
        short_scan_fit(_fit(tmp_path / "flag.json", 0.5, None, True), "scan-n-two", 2)
    with pytest.raises(SystemExit, match="scan-n-one: slopes"):
        short_scan_fit(_fit(tmp_path / "slope.json", 0.5, None, False), "scan-n-one", 1)
