"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Each run must pass its output checks and emit exactly the metrics that
BENCHMARK.json declares for its mode (end_to_end untraced, per_layer
traced), each with the declared unit and a finite value.  The solver
path counts must add up to the secure_fuse calls and to the nominal
trial-steps, since no run is shared at the parent commit.  Exits 1 and
lists what failed, or prints "selftest ok".
"""

from __future__ import annotations

import json
import math
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = [f"BENCHMARK.json names unknown workload {w['name']}"
                for w in spec["workloads"] if w["name"] not in run.WORKLOADS]
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, record, _ = run.run(workload, seed=0, seconds=0,
                                        trace=trace, size="tiny")
            where = f"{workload} --trace {trace}"
            failures += [f"{where}: {f}" for f in record["check_failures"]]
            metrics = result["metrics"]
            units = {key: m["unit"] for key, m in metrics.items()}
            if units != declared[trace]:
                failures.append(f"{where}: emits {sorted(units.items())}, "
                                f"declared {sorted(declared[trace].items())}")
            failures += [f"{where}: {key} = {m['value']!r}"
                         for key, m in metrics.items()
                         if not math.isfinite(m["value"])]
            paths, nominal = record["paths"], record["nominal_trial_steps"]
            if sum(paths.values()) != nominal:
                failures.append(f"{where}: paths {paths} do not add up to "
                                f"{nominal} nominal trial-steps")
            fuse_calls = sum(metrics[f"fusion.fuse_calls.{path}"]["value"]
                             for path in paths) if trace else nominal
            if fuse_calls != nominal:
                failures.append(f"{where}: secure_fuse calls differ from "
                                f"{nominal} nominal trial-steps")
            if result["attempted"] < 1 or not result["correct"]:
                failures.append(f"{where}: result {result}")
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
