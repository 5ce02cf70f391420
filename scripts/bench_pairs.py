"""Compare two source trees on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --parent-commit 35b5b23 --pr 11 [--workload sweep-l1 ...]

Each tree is a full checkout of the repository (``git archive`` of a
commit will do), and each side runs ``perfbench/run.py`` from its own
tree.  For every workload that ``BENCHMARK.json`` gates, pair k runs seed
``first_seed + k`` on both trees, the parent first on even pairs and the
change first on odd ones, so that a drift in the host's speed during a
pair does not favour one side.  After the pairs, one ``--trace 1`` run per
side at the first seed gives the per-layer numbers.  A run that exits
non-zero stops the comparison with an error naming the workload, side,
seed and exit code, followed by the end of the run's stderr.

The result is written to ``BENCH_<pr>.json`` at the root of this tree:
per workload the medians and quartiles of ``trial_steps_per_s`` on each
side, every pair's values, the pairs the change won, the medians of the
other end-to-end metrics, whether every run passed its output checks, and
whether the gain rule holds on ``trial_steps_per_s`` (see ``gain_rule``).
Every ``end_to_end`` metric of ``BENCHMARK.json`` also gets a verdict (see
``verdict``) against its ``bound``, a share of the parent's median, with
its own pair count and gain rule, all in the metric's ``better``
direction.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
METRIC = "trial_steps_per_s"        # higher is better
OTHER_METRICS = ("setup_s", "peak_rss_mb", "converged_frac",
                 "mse_secure_attack", "mse_secure_no_attack")
PER_LAYER = ("fusion.fuse_us.p50", "fusion.fuse_us.p90",
             "simulator.simulate_self_s",
             "fusion.iterations_per_solve.mean",
             "fusion.iterations_per_solve.p90",
             *(f"fusion.fuse_calls.{path}" for path in
               ("screened", "exact", "iterative", "unconverged")))
ENV_PREFIX = "# environment: "
STDERR_TAIL = 20                    # lines of a failed run's stderr shown


def bench(tree, side, workload, seed, seconds, trace):
    """One run of perfbench/run.py in the side's tree; returns (result,
    environment), or raises RuntimeError if the run exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        raise RuntimeError(f"{workload}: the {side} run (seed {seed}, "
                           f"--trace {trace}) exited {proc.returncode}; the "
                           f"end of its stderr:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len(ENV_PREFIX):]) for ln in lines
               if ln.startswith(ENV_PREFIX))
    return json.loads(lines[-1]), env


def values(result, keys):
    return {k: result["metrics"][k]["value"] for k in keys}


def summary(samples):
    q1, q3 = np.percentile(samples, [25, 75])
    return {"median": round(statistics.median(samples), 1),
            "q1": round(float(q1), 1), "q3": round(float(q3), 1)}


def gain_rule(parent, change, sign=1.0):
    """(pairs the change won, whether the gain rule holds) on paired
    values, in the direction sign: 1.0 when higher is better, -1.0 when
    lower is.  The rule holds when the change wins at least nine tenths of
    the pairs, ties counting for neither side, and its median beats the
    parent's by more than the parent's interquartile range.
    """
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    q1, q3 = np.percentile(parent, [25, 75])
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return wins, bool(wins >= 0.9 * len(parent) and gap > q3 - q1)


def verdict(entry, parent, change):
    """One end_to_end entry of BENCHMARK.json judged on the pairs' values.

    "unresolved" when the parent's interquartile range exceeds the bound
    (bound times |parent median|) and not every change run beats every
    parent run; otherwise "worse" when the change's median falls behind the
    parent's by more than the bound, and "ok" when it does not.  The
    entry's pairs_won_by_change and gain_rule_met apply gain_rule in the
    metric's better direction.
    """
    sign = 1.0 if entry["better"] == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = np.percentile(parent, [25, 75])
    allowed = entry["bound"] * abs(p_med)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > allowed and not beats_all:
        outcome = "unresolved"
    elif sign * (c_med - p_med) < -allowed:
        outcome = "worse"
    else:
        outcome = "ok"
    wins, met = gain_rule(parent, change, sign)
    return {"verdict": outcome, "parent_median": p_med,
            "change_median": c_med, "parent_iqr": float(q3 - q1),
            "allowed": allowed, "pairs_won_by_change": wins,
            "gain_rule_met": met}


def compare(trees, workload, pairs, first_seed, seconds, end_to_end):
    """Alternating pairs and one traced run per side for one workload;
    end_to_end lists BENCHMARK.json's end-to-end entries to judge."""
    runs, results = [], {side: [] for side in trees}
    env = None
    for pair in range(pairs):
        seed = first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        row = {"pair": pair, "seed": seed, "first": order[0]}
        for side in order:
            result, env = bench(trees[side], side, workload, seed, seconds,
                                0)
            results[side].append(result)
            row[side] = round(result["metrics"][METRIC]["value"], 1)
        runs.append(row)
        print(f"{workload} pair {pair}: parent {row['parent']} change "
              f"{row['change']}", file=sys.stderr, flush=True)
    per_layer = {}
    for side, tree in trees.items():
        traced, _ = bench(tree, side, workload, first_seed, seconds, 1)
        results[side].append(traced)
        per_layer[side] = {k: round(v, 4) for k, v in
                           values(traced, PER_LAYER).items()}
    parent = [r["parent"] for r in runs]
    change = [r["change"] for r in runs]
    wins, met = gain_rule(parent, change)
    sides = {side: summary(s) for side, s in (("parent", parent),
                                              ("change", change))}

    def paired(side, name):
        return [r["metrics"][name]["value"] for r in results[side][:pairs]]

    out = {
        "metric": f"{METRIC} (reference-scaled, 1/s)",
        "pairs": pairs,
        "pairs_won_by_change": wins,
        **sides,
        "ratio_of_medians": round(sides["change"]["median"]
                                  / sides["parent"]["median"], 3),
        "gain_rule_met": met,
        "runs": runs,
        "other_end_to_end_medians": {
            side: {k: statistics.median(paired(side, k))
                   for k in OTHER_METRICS}
            for side in trees},
        "verdicts": {e["name"]: verdict(e, paired("parent", e["name"]),
                                        paired("change", e["name"]))
                     for e in end_to_end},
        "all_correct": all(r["correct"] for side in trees
                           for r in results[side]),
        "per_layer_trace1": per_layer,
    }
    return out, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path,
                        help="source tree of the parent commit")
    parser.add_argument("--change", required=True, type=pathlib.Path,
                        help="source tree of the change")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=41)
    parser.add_argument("--workload", action="append", dest="workloads",
                        metavar="NAME",
                        help="compare only this gated workload; repeat for "
                             "more (default: every gated workload)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workloads or ()) - set(gated))
    if unknown:
        parser.error(f"not a gated workload: {', '.join(unknown)} (gated: "
                     f"{', '.join(gated)})")
    workloads, env = {}, None
    for workload in (w for w in gated
                     if not args.workloads or w in args.workloads):
        workloads[workload], env = compare(
            trees, workload, args.pairs, args.first_seed, args.seconds,
            spec["end_to_end"])
    report = {
        "benchmark": f"python3 perfbench/run.py --workload <w> --seed "
                     f"<pair + {args.first_seed}> --seconds {args.seconds:g} "
                     f"--trace 0",
        "parent_commit": args.parent_commit,
        "host": f"{env['nproc']} CPUs, {env['platform']}",
        "method": "alternating pairs: the parent runs first on even pairs, "
                  "the change on odd ones; each side runs from its own copy "
                  "of the tree; quartiles are linear-interpolated "
                  "percentiles; per_layer_trace1 from one --trace 1 run per "
                  f"side (seed {args.first_seed}), wall time of the traced "
                  "pass, not reference-scaled",
        "environment": env,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
