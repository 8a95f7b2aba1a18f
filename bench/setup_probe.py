"""Time one set-up in a fresh interpreter and print the seconds.

Set-up is ``import stochres``, then ``validate_config`` (CLI workloads), then
``build_reservoir`` for every reservoir the workload uses. ``run.py`` starts
this script several times and reports the median.

Usage: python3 bench/setup_probe.py WORKLOAD SIZE SEED OUT_DIR
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

t0 = time.perf_counter()
import stochres  # noqa: E402,F401
t1 = time.perf_counter()
import workloads  # noqa: E402  (benchmark code, not timed)
t2 = time.perf_counter()
name, size, seed, out_dir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
workloads.get(name, size).setup(seed, out_dir)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
