"""Self-test of the benchmark at smoke size.

Usage (from the repository root): python3 bench/selftest.py

For every workload it runs ``run.py --size tiny`` untraced and traced, and
checks that the printed metric names and units are exactly those listed in
``BENCHMARK.json`` and that no run failed. Then, for every output check of
the workload, it reruns with that check's input broken (``--perturb``) and
checks that every run is counted as failed, so that no check is vacuous.
Last, it runs the benchmark from a directory holding only ``BENCHMARK.json``
and the benchmark files, where it must exit non-zero without a result.
Exits non-zero at the first mismatch.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
TIMEOUT_S = 300


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: {message}")


def run(workload: str, trace: int = 0, perturb: str | None = None, root: Path = ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if perturb is not None:
        cmd += ["--perturb", perturb]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S, cwd=root)


def result(workload: str, trace: int = 0, perturb: str | None = None):
    out = run(workload, trace, perturb)
    expect(out.returncode == 0, f"{workload} trace={trace} perturb={perturb} exited "
                                f"{out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(res)}")
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1,
           f"{workload}: attempted {res['attempted']!r}")
    expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in res["metrics"].values()), f"{workload}: non-finite metric")
    return lines, res


def failed_frac(lines, workload):
    for line in lines:
        parts = line.split()
        if parts[:2] == [workload, "failed_frac"]:
            return float(parts[2])
    raise SystemExit(f"selftest: {workload}: no failed_frac line")


def check_bare_directory(spec) -> None:
    """Without the library sources the benchmark must fail without a result."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(spec["workloads"][0]["name"], root=bare)
    shutil.rmtree(bare)
    last = out.stdout.strip().splitlines()[-1:] or [""]
    expect(out.returncode != 0 and not last[0].startswith("{"),
           f"bare directory: exit {out.returncode}, last line {last[0]!r}")
    print("selftest: bare directory fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.NAMES), f"workloads {names} != {list(workloads.NAMES)}")
    want = {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}

    for name in names:
        for trace in (0, 1):
            _, res = result(name, trace)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == want[trace], f"{name} trace={trace}: metrics differ from "
                                       f"BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
            expect(res["correct"] and res["failed"] == 0, f"{name} trace={trace}: {res}")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{name}: an end-to-end metric is not positive")
        # the untraced run above recorded this seed's artifact digests
        for check in [*workloads.get(name, "tiny").checks, "sha256"]:
            lines, res = result(name, 0, check)
            expect(not res["correct"] and res["failed"] == res["attempted"],
                   f"{name}: broken {check} counted {res['failed']} of {res['attempted']}")
            expect(failed_frac(lines, name) == 1.0, f"{name}: broken {check} not in failed_frac")
        print(f"selftest: {name} ok")
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
