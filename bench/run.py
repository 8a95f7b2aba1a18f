"""Benchmark for stochres: four workloads through the public API.

Usage (from the repository root):

    python3 bench/run.py --workload {scan,sampled,wide,basis} --seed N \
        --seconds S --trace {0,1}

The workload's inputs come from ``--seed``. Iterations of the workload run
back to back in this process, each timed and then checked outside the timed
region, until the next one would end after ``--seconds`` (at least one
runs); metrics are medians over them. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
iterations alternate and the per-layer metrics are printed instead. The
earlier lines give the same numbers as a table plus an environment record.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "stochres-bench"
SETUP_REPS = 20
CHILD_TIMEOUT_S = 60


def cap_blas_threads() -> int:
    """Keep BLAS at no more threads than this process may use; returns nproc.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def import_stochres():
    """Import stochres from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "stochres"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no stochres sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import stochres
    if Path(stochres.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported stochres from {stochres.__file__}, not {package}")
    return stochres


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy):
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the library sources: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "stochres").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(numpy)},
        "seed": seed,
        "commit": _commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class DigestRegistry:
    """Artifact digests of the first run of each (code, environment, workload, seed)."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.doc = json.loads(path.read_text()) if path.exists() else {}

    @property
    def reference(self):
        return self.doc.get(self.key)

    def save(self, digest) -> None:
        if self.key not in self.doc:
            self.doc[self.key] = digest
            self.path.write_text(json.dumps(self.doc, sort_keys=True, indent=1))


def timed(wl, seed: int, out_dir: Path):
    """One workload iteration: (result or None, error or None, wall s, cpu s)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result, error = wl.run(wl.params, seed, out_dir), None
    except Exception as exc:  # a run that raises is a failed run, not a crash
        traceback.print_exc()
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t0, time.process_time() - c0


def check(wl, result, out_dir: Path, reference, perturb):
    """Failed check names for one result, and its artifact digest."""
    facts = wl.facts(wl.params, result, out_dir)
    if perturb == "sha256":
        facts["digest"] = {k: "0" * 64 for k in facts["digest"]}
    elif perturb is not None:
        wl.perturb[perturb](facts)
    failed = wl.failed_checks(facts)
    if reference is not None and facts["digest"] != reference:
        failed.append("sha256")
    return failed, facts["digest"]


def measure_setup(name: str, size: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, size, str(seed),
             str(OUT / "out" / name)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "sampled", "wide", "basis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's smoke size")
    parser.add_argument("--perturb", default=None,
                        help="break the named check's input, to show it is counted")
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    import_stochres()
    import workloads
    from tracer import Tracer, layer_metrics

    wl = workloads.get(args.workload, args.size)
    if args.perturb not in (None, "sha256", *wl.checks):
        parser.error(f"--perturb must be one of sha256, {', '.join(wl.checks)}")
    OUT.mkdir(parents=True, exist_ok=True)
    out_dir = OUT / "out" / wl.name
    env = environment(args.seed, nproc)
    # BLAS threads and build change the last bits of results, so they are part of the key
    key = json.dumps([env, wl.name, wl.params], sort_keys=True)
    registry = DigestRegistry(OUT / "digests.json", hashlib.sha256(key.encode()).hexdigest())
    reference = registry.reference

    tracer = Tracer() if args.trace else None
    walls, cpus, traced_walls = [], [], []
    attempted, failures = 0, []
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            try:
                result, error, wall, cpu = timed(wl, args.seed, out_dir)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                cpus.append(cpu)
            attempted += 1
            if error is None:
                failed, digest = check(wl, result, out_dir, reference, args.perturb)
                # only an iteration that passed every other check sets the reference
                if reference is None and args.perturb is None and not failed:
                    reference = digest
                    registry.save(digest)
            else:
                failed = [error]
            if failed:
                failures.append(failed)
        # stop before an iteration that would end after --seconds, so a run
        # never measures much longer than asked
        elapsed = time.perf_counter() - start
        per_round = statistics.median(walls) + (statistics.median(traced_walls) if tracer else 0.0)
        if elapsed + per_round > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer:
        metrics = layer_metrics(tracer, traced_walls, walls)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    else:
        setup = measure_setup(wl.name, args.size, args.seed)
        metrics = {
            "run_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    failed_frac = len(failures) / attempted
    printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": wl.name, "size": args.size, "trace": args.trace,
              "perturb": args.perturb, "environment": env, "run_s": walls,
              "traced_run_s": traced_walls, "cpu_s": cpus, "failures": failures,
              "failed_frac": failed_frac, "metrics": printed}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:8s} {name:55s} {value:14.6g} {unit}")
    print(f"{wl.name:8s} {'failed_frac':55s} {failed_frac:14.6g} frac "
          f"({len(failures)} of {attempted} runs)")
    for failed in failures:
        print(f"{wl.name:8s} failed: {', '.join(failed)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
