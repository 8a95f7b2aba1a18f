"""Outside-in tracer for ``stochres``.

The library is not edited. ``Tracer.install`` replaces each measured function
by a wrapper in every loaded ``stochres`` module whose attribute *is* the
original object, because ``runio``, ``experiments``, ``signals`` and the
package ``__init__`` import by name, and ``run_exact`` reaches ``step_exact``
through the ``reservoir`` module globals. Two traps:

- ``stochres.capacity`` is the re-exported function, not the module, so
  modules are looked up in ``sys.modules``.
- ``TargetBasis`` methods are patched on the class.

A wrapper records a span ``[name, start, end, parent]`` in memory; counts of
work are derived from the call arguments or results at the same boundary.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import statistics
import sys
import time

# layer (module under stochres) -> measured public functions
MEASURED = {
    "reservoir": ["build_reservoir", "step_exact", "run_exact", "sample_trajectories"],
    "signals": ["probability_signals", "empirical_probabilities"],
    "transforms": ["signal_moments", "probabilities_from_moments"],
    "capacity": ["gram_matrices", "eigentask_decomposition", "ipc_spectral",
                 "ipc_probability_rep", "capacity", "total_capacity",
                 "build_target_basis", "TargetBasis.gram_error", "TargetBasis.evaluate"],
    "experiments": ["shift_register_flip_family", "scan_system_size"],
    "runio": ["run_experiment", "validate_config", "write_results"],
}

# the CLI workloads' single call; its own body is orchestration, not layer work
ENTRY_POINT = "runio.run_experiment"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_step(counts, args, kwargs, result):
    counts["gate_steps"] += len(_arg(args, kwargs, 0, "reservoir").gates)


def _count_sample(counts, args, kwargs, result):
    gates = len(_arg(args, kwargs, 0, "reservoir").gates)
    steps = len(_arg(args, kwargs, 1, "inputs"))
    counts["shot_gate_steps"] += _arg(args, kwargs, 2, "shots") * steps * gates


def _count_decomp(counts, args, kwargs, result):
    counts["signal_dim"] += result.signal_dim
    counts["retained_rank"] += result.retained_rank


def _count_total(counts, args, kwargs, result):
    counts["targets"] += result.truncation["targets"]
    counts["below_threshold"] += result.truncation["excluded_below_threshold"]


def _count_write(counts, args, kwargs, result):
    counts["artifact_bytes"] += sum(p.stat().st_size for p in result)


COUNTERS = {
    "reservoir.step_exact": _count_step,
    "reservoir.sample_trajectories": _count_sample,
    "capacity.eigentask_decomposition": _count_decomp,
    "capacity.total_capacity": _count_total,
    "runio.write_results": _count_write,
}


class Tracer:
    """Spans and counts for the measured ``stochres`` functions."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"stochres.{layer}") for layer in MEASURED}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "stochres" or key.startswith("stochres."))]
        for layer, names in MEASURED.items():
            module = layers[layer]
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregate(self):
        """Per-name calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "fields": ["name", "start_s", "end_s", "parent"],
               "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
               "counts": dict(self.counts)}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: list, untraced_s: list):
    """Per-layer metrics for one workload iteration, as {name: (value, unit)}.

    ``traced_s`` are the run times of the iterations the spans cover and
    ``untraced_s`` those of the iterations run with the tracer removed.
    Every measured function reports its self time. Coverage is the share of
    traced run time spent in the self time of measured functions other than
    the entry point ``runio.run_experiment``: the entry point's own body and
    code outside any span are the uncovered remainder.
    """
    calls, total, self_s = tracer.aggregate()
    c = tracer.counts
    k = float(len(traced_s))
    traced_total = sum(traced_s)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer, quals in MEASURED.items():
        for qual in quals:
            name = f"{layer}.{qual}"
            put(f"{name}.self_s", self_s[name] / k, "s")
    put("reservoir.step_exact.calls", calls["reservoir.step_exact"] / k, "count")
    put("reservoir.gate_steps", c["gate_steps"] / k, "count")
    put("reservoir.step_exact.us_per_gate_step",
        _ratio(self_s["reservoir.step_exact"], c["gate_steps"], 1e6), "us")
    put("reservoir.shot_gate_steps", c["shot_gate_steps"] / k, "count")
    put("reservoir.sample_trajectories.ns_per_shot_gate_step",
        _ratio(self_s["reservoir.sample_trajectories"], c["shot_gate_steps"], 1e9), "ns")
    put("capacity.signal_dim", c["signal_dim"] / k, "count")
    put("capacity.retained_rank_frac", _ratio(c["retained_rank"], c["signal_dim"]), "frac")
    put("capacity.capacity.calls", calls["capacity.capacity"] / k, "count")
    put("capacity.capacity.ms_per_target",
        _ratio(total["capacity.capacity"], calls["capacity.capacity"], 1e3), "ms")
    put("capacity.below_threshold_frac", _ratio(c["below_threshold"], c["targets"]), "frac")
    put("runio.artifact_bytes", c["artifact_bytes"] / k, "bytes")
    covered = sum(v for name, v in self_s.items() if name != ENTRY_POINT)
    put("trace.coverage_frac", _ratio(covered, traced_total), "frac")
    put("trace.uncovered_s", (traced_total - covered) / k, "s")
    put("trace.overhead_frac",
        _ratio(statistics.median(traced_s), statistics.median(untraced_s)) - 1.0, "frac")
    return out
