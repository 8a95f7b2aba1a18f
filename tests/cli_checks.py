"""Console checks of ``stochres``: ``python tests/cli_checks.py OUT_DIR CMD...``, CMD being
``stochres`` or ``python -m stochres.cli`` (``src`` on PYTHONPATH) and OUT_DIR new or empty.
Each check prints what it found; the first that fails exits 1 with a line naming it."""

import csv
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from stochres.experiments import shift_register_capacity_closed_form

EXPERIMENTS = ("ipc", "scan-n", "switching", "tails", "power-basis", "learnability",
               "fat-shatter", "embed-check")

# configs each experiment refuses with exit 2, writing nothing; then (experiment, config,
# flags) refused the same way
REJECTS = {
    "ipc": ('{"mode": "bogus"}', '{"lambda": 0.7}', '{"threads": 0}', '{"threads": -3}',
            '{"lambda": Infinity}', '{"mode": "sampled", "shots": 9007199254740993}'),
    "learnability": ('{"growth_n_max": 67}', '{"q_values": [1.5]}', '{"m0_grid": [-5]}'),
    "tails": ('{"u_min": 50.0}', '{"u_min": 60.0}', '{"noise": -1.0}'),
    "switching": ('{"target_min_peak": 1.5}', '{"domain_lo": 0.0, "domain_hi": 0.0}'),
    "fat-shatter": ('{"target_min_peak": 1.5}', '{"threshold": 2.0}', '{"count": 17}',
                    '{"gamma": NaN}'),
    "embed-check": ('{"tolerance": -1.0}', '{"dt": 5.0}', '{"dt": 1e-9}'),
}
REJECTED_FLAGS = (
    ("learnability", '{"q_values": [0.01, 0.1]}', "--seed", "18446744073709551615"),
    ("ipc", None, "--threads", "1"),  # the removed flag
)

# sampled ipc runs, each made twice; True where its IPC lies within 5 % of the closed form
SAMPLED = (
    ("sampled", '{"mode": "sampled", "n": 4, "shots": 2000}', True),
    # the count sampler takes the flip block by its parts, one binomial per flip and step
    ("sampled-n5", '{"mode": "sampled", "n": 5, "shots": 1500, "timesteps": 1000, "washout": 37}',
     True),
    # more than 8 bits; at 2000 shots the plug-in bias alone is +5.5 %
    ("sampled-n9", '{"mode": "sampled", "n": 9, "shots": 4000}', True),
    # large counts through the noise block, taken in one multinomial per step
    ("sampled-n4-large", '{"mode": "sampled", "n": 4, "shots": 1000000}', True),
    # counts past 10**10, where count / shots * shots rounds off the integers by more than 1e-6
    ("sampled-n4-huge", '{"mode": "sampled", "n": 4, "shots": 300000000000001}', True),
    # fewer shots than states: the plug-in bias dominates (about 6.5 against 4.49)
    ("sampled-n11", '{"mode": "sampled", "n": 11, "shots": 1000, "timesteps": 300}', False),
)
# largest relative gap between each sampled IPC and its finite-shot target
FINITE_SHOT_BOUND = 0.02

# scan-n runs over too few sizes for a fit with a standard error, and their size counts
SHORT_SCANS = (("scan-n-one", '{"n_min": 3, "n_max": 3}', 1),
               ("scan-n-two", '{"n_min": 3, "n_max": 4}', 2))


def check(ok, message):
    if not ok:
        raise SystemExit(f"FAILED: {message}")


def run(cmd, root, name, experiment, config=None, *flags, status=0):
    """Run into ``root/name``, expecting exit ``status`` (and, on a failure, no output)."""
    out, args = root / name, [*cmd, experiment]
    if config is not None:
        (root / f"{name}.json").write_text(config)
        args += ["--config", str(root / f"{name}.json")]
    done = subprocess.run([*args, "--out-dir", str(out), *flags], capture_output=True, text=True)
    label = " ".join(filter(None, [experiment, config, *flags]))
    check(done.returncode == status, f"{label} exited {done.returncode}, not {status}: {done.stderr}")
    check(status == 0 or not out.exists(), f"{label} wrote {out}")
    return done.stderr


def same_bytes(root, name):
    """Check that runs ``name`` and ``name-again`` wrote the same artifacts, byte for byte."""
    one, two = ({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
                for out in (root / name, root / f"{name}-again"))
    differ = sorted(key for key in one.keys() | two.keys() if one.get(key) != two.get(key))
    check(not differ, f"{name}: {differ} differ between two runs")
    print(f"{name}: {len(one)} artifacts identical on two runs")


def manifest_matches(out):
    """Check every artifact against its manifest sha256; return how many there are."""
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    check(artifacts, f"{out}: the manifest lists no artifacts")
    for entry in artifacts:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        check(digest == entry["sha256"], f"{out / entry['path']}: sha256 does not match")
    return len(artifacts)


def routes_agree(report_path, label):
    report = json.loads(Path(report_path).read_text())
    gap = abs(report["spectral"]["ipc"] - report["probability_trace"]["ipc"])
    check(gap <= 1e-12, f"{label}: spectral and probability-trace capacities differ by {gap:.3g}")
    check(report["retained_rank"] > 0, f"{label}: retained rank {report['retained_rank']}")
    print(f"{label}: routes agree to {gap:.3g}, retained rank {report['retained_rank']}")


def near_closed_form(label, n, lam, ipc):
    closed = shift_register_capacity_closed_form(n, lam)
    gap = abs(ipc - closed) / closed
    check(gap <= 0.05, f"{label}: ipc {ipc} is not within 5 % of the closed form {closed}")
    print(f"{label}: ipc {ipc:.4f} against closed form {closed:.4f}, gap {gap:.2%}")


def near_finite_shot_target(label, n, lam, shots, ipc):
    """Check a sampled IPC against IPC + (2**n - IPC) / shots, IPC the closed form: the
    expected plug-in IPC of ``shots``-shot frequencies, whose second moment is
    G1 + (G2 - G1) / shots (Hu et al., PRX 13, 041020, 2023)."""
    closed = shift_register_capacity_closed_form(n, lam)
    target = closed + (2 ** n - closed) / shots
    gap = (ipc - target) / target
    check(abs(gap) <= FINITE_SHOT_BOUND,
          f"{label}: ipc {ipc} is not within {FINITE_SHOT_BOUND * 100:g} % of its {shots}-shot "
          f"target {target}")
    print(f"{label}: ipc {ipc:.4f} against {shots}-shot target {target:.4f}, gap {gap:+.2%}")


def short_scan_fit(fit_path, label, sizes):
    """Check a scan-n fit over fewer than three sizes: null standard errors, a false flag,
    and slopes that are null at one size and numbers at two."""
    fit = json.loads(Path(fit_path).read_text())
    check(fit["slope_stderr"] is None and fit["slope_logn_stderr"] is None,
          f"{label}: standard errors {fit['slope_stderr']}, {fit['slope_logn_stderr']} over "
          f"{sizes} of n")
    check(fit["subexponential_consistent"] is False,
          f"{label}: subexponential_consistent {fit['subexponential_consistent']} over {sizes} of n")
    slopes = (fit["slope_log_ipc_vs_n"], fit["slope_log_ipc_vs_log_n"])
    check(all((s is None) == (sizes < 2) for s in slopes), f"{label}: slopes {slopes} over {sizes} of n")
    print(f"{label}: slopes {slopes}, null standard errors and a false flag over {sizes} of n")


def shatters_16(report_path):
    report = json.loads(Path(report_path).read_text())
    check(report["dimension"] == 16, f"fat-shatter count 16: dimension {report['dimension']}")
    check(report["witness_verified"] is True, "fat-shatter count 16: witness not verified")
    entries = len(report["witness_assignment"])
    check(entries == 65536, f"fat-shatter count 16: {entries} assignment entries")
    print(f"fat-shatter count 16: dimension 16, verified witness with {entries} dichotomies")


def main(root, cmd):
    check(not root.exists() or not any(root.iterdir()), f"{root} is not empty")
    root.mkdir(parents=True, exist_ok=True)
    for experiment in EXPERIMENTS:
        run(cmd, root, experiment, experiment)
    for experiment in ("ipc", "scan-n"):
        run(cmd, root, f"{experiment}-again", experiment)
        same_bytes(root, experiment)
    runs = [*EXPERIMENTS, "ipc-again", "scan-n-again"]
    artifacts = sum(manifest_matches(root / name) for name in runs)
    print(f"{artifacts} artifacts in {len(runs)} runs match their manifest sha256")
    routes_agree(root / "ipc" / "ipc_report.json", "ipc")
    rejects = [(experiment, config) for experiment, configs in REJECTS.items() for config in configs]
    for experiment, config, *flags in rejects + list(REJECTED_FLAGS):
        run(cmd, root, "bad", experiment, config, *flags, status=2)
    print(f"{len(rejects) + len(REJECTED_FLAGS)} bad configs and flags exit 2 and write nothing")
    with open(root / "scan-n" / "scaling_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    check(rows, "scan-n: scaling_curve.csv has no rows")
    for row in rows:
        near_closed_form(f"scan-n n = {row['n']}", int(row["n"]), float(row["lambda"]),
                         float(row["ipc"]))
    for name, config, sizes in SHORT_SCANS:
        run(cmd, root, name, "scan-n", config)
        short_scan_fit(root / name / "scan_fit.json", name, sizes)
    run(cmd, root, "fat-16", "fat-shatter", '{"count": 16}')
    shatters_16(root / "fat-16" / "fat_shatter.json")
    err = run(cmd, root, "fat-budget", "fat-shatter",
              '{"gamma": 0.5, "threshold": 0.0, "count": 16}', status=2)
    check("shattering search exceeded budget 2000000" in err, f"fat-shatter budget run: {err}")
    for n in (8, 11):  # the largest register with whole-step matrices, and n = 11
        run(cmd, root, f"ipc-n{n}", "ipc", f'{{"n": {n}, "mode": "exact"}}')
        routes_agree(root / f"ipc-n{n}" / "ipc_report.json", f"ipc n = {n}")
    for name, config, bounded in SAMPLED:
        for again in ("", "-again"):
            run(cmd, root, name + again, "ipc", config)
        same_bytes(root, name)
        report = json.loads((root / name / "ipc_report.json").read_text())
        if bounded:
            near_closed_form(f"{name} n = {report['n']}", report["n"], report["lambda"],
                             report["spectral"]["ipc"])
        near_finite_shot_target(f"{name} n = {report['n']}", report["n"], report["lambda"],
                                json.loads(config)["shots"], report["spectral"]["ipc"])


if __name__ == "__main__":
    start = time.perf_counter()
    main(Path(sys.argv[1]), sys.argv[2:])
    print(f"all console checks passed in {time.perf_counter() - start:.1f} s")
