"""scripts/bench_pairs.py with its benchmark runs stubbed out.

The script compares two source trees in alternating pairs of
perfbench/run.py runs; these tests replace the runs by canned results, so
they check the order of the runs, the pair counts, the gain rule, the
per-metric verdicts, the workload filter and the error a failed run
raises, without running the benchmark.
"""

import importlib.util
import json
import pathlib
import subprocess

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

TREES = {"parent": pathlib.Path("parent-tree"),
         "change": pathlib.Path("change-tree")}
ENV = {"nproc": 2, "platform": "test-host"}


SPEC = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())


def canned(rate, other="setup_s", value=1.0):
    keys = (bench_pairs.METRIC, *bench_pairs.OTHER_METRICS,
            *bench_pairs.PER_LAYER)
    values = {bench_pairs.METRIC: rate, other: value}
    return {"metrics": {k: {"value": values.get(k, 1.0)} for k in keys},
            "correct": True}


def stub_bench(monkeypatch, rates, others=None, other="setup_s"):
    """Replace bench by a lookup of rates[side][seed - 41] (and of
    others[side][seed - 41] for the metric other, 1.0 without others);
    returns the list of (side, workload, seed, trace) calls it received."""
    calls = []

    def bench(tree, side, workload, seed, seconds, trace):
        assert tree == TREES[side]
        calls.append((side, workload, seed, trace))
        value = others[side][seed - 41] if others else 1.0
        return canned(rates[side][seed - 41], other, value), ENV

    monkeypatch.setattr(bench_pairs, "bench", bench)
    return calls


def compare(pairs):
    return bench_pairs.compare(TREES, "sweep-l1", pairs, 41, 1.0,
                               SPEC["end_to_end"])[0]


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = stub_bench(monkeypatch, {"parent": [1.0] * 4,
                                     "change": [2.0] * 4})
    out = compare(4)
    assert [(side, seed, trace) for side, _, seed, trace in calls] == [
        ("parent", 41, 0), ("change", 41, 0),
        ("change", 42, 0), ("parent", 42, 0),
        ("parent", 43, 0), ("change", 43, 0),
        ("change", 44, 0), ("parent", 44, 0),
        ("parent", 41, 1), ("change", 41, 1)]
    assert [r["first"] for r in out["runs"]] == ["parent", "change"] * 2


def test_pairs_won_by_change_counts_strict_wins(monkeypatch):
    # pair 0 a win, pair 1 a tie, pair 2 a loss, pair 3 a win
    stub_bench(monkeypatch, {"parent": [1.0, 2.0, 3.0, 4.0],
                             "change": [1.5, 2.0, 2.5, 4.5]})
    out = compare(4)
    assert out["pairs_won_by_change"] == 2
    assert [(r["parent"], r["change"]) for r in out["runs"]] == [
        (1.0, 1.5), (2.0, 2.0), (3.0, 2.5), (4.0, 4.5)]


PARENT = [100.0, 102.0, 104.0, 106.0, 108.0, 110.0, 112.0, 114.0, 116.0,
          118.0]    # median 109, quartiles 104.5 and 113.5: IQR 9


def test_gain_rule_met_when_the_median_gap_beats_the_parent_iqr(monkeypatch):
    stub_bench(monkeypatch, {"parent": PARENT,
                             "change": [p + 9.5 for p in PARENT]})
    out = compare(10)
    assert out["parent"] == {"median": 109.0, "q1": 104.5, "q3": 113.5}
    assert out["pairs_won_by_change"] == 10
    assert out["gain_rule_met"] is True


def test_gain_rule_not_met_when_the_gap_is_within_the_parent_iqr(
        monkeypatch):
    stub_bench(monkeypatch, {"parent": PARENT,
                             "change": [p + 8.5 for p in PARENT]})
    out = compare(10)
    assert out["pairs_won_by_change"] == 10
    assert out["gain_rule_met"] is False


def test_gain_rule_not_met_on_fewer_than_nine_tenths_of_the_pairs(
        monkeypatch):
    # a large median gap, but two of ten pairs lost
    change = [p + 50.0 for p in PARENT]
    change[0] = change[1] = 0.0
    stub_bench(monkeypatch, {"parent": PARENT, "change": change})
    out = compare(10)
    assert out["pairs_won_by_change"] == 8
    assert out["change"]["median"] - out["parent"]["median"] > 9.0
    assert out["gain_rule_met"] is False


def test_every_end_to_end_metric_gets_a_verdict(monkeypatch):
    stub_bench(monkeypatch, {"parent": PARENT, "change": PARENT})
    out = compare(10)
    assert list(out["verdicts"]) == [e["name"] for e in SPEC["end_to_end"]]
    assert {v["verdict"] for v in out["verdicts"].values()} == {"ok"}


# setup_s is lower-better with bound 0.25: parent median 1.0, IQR 0.075
SETUP = [0.8, 0.9, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.1, 1.2]


@pytest.mark.parametrize("parent, change, expected", [
    # 20 % slower set-ups: within the bound
    (SETUP, [s * 1.2 for s in SETUP], "ok"),
    # 30 % slower set-ups with a tight parent: a regression
    (SETUP, [s * 1.3 for s in SETUP], "worse"),
    # the parent spreads wider than the bound, the change overlaps it
    ([0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.6, 2.0], SETUP,
     "unresolved"),
    # as wide a parent, but every change run beats every parent run
    ([0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.6, 2.0],
     [0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.4, 0.4, 0.45], "ok"),
])
def test_verdict_uses_the_direction_and_bound_of_each_metric(
        monkeypatch, parent, change, expected):
    stub_bench(monkeypatch, {"parent": PARENT, "change": PARENT},
               {"parent": parent, "change": change})
    out = compare(10)
    assert out["verdicts"]["setup_s"]["verdict"] == expected
    assert out["verdicts"]["trial_steps_per_s"]["verdict"] == "ok"


@pytest.mark.parametrize("shift, expected", [(-0.2, "ok"), (-0.3, "worse"),
                                             (0.5, "ok")])
def test_verdict_on_a_higher_is_better_metric(monkeypatch, shift,
                                              expected):
    # trial_steps_per_s is higher-better with bound 0.24 of 109
    stub_bench(monkeypatch, {"parent": PARENT,
                             "change": [p * (1 + shift) for p in PARENT]})
    out = compare(10)
    assert out["verdicts"]["trial_steps_per_s"]["verdict"] == expected


def test_every_verdict_has_the_gain_rule_of_its_metric(monkeypatch):
    stub_bench(monkeypatch, {"parent": PARENT,
                             "change": [p + 9.5 for p in PARENT]})
    out = compare(10)
    rate = out["verdicts"]["trial_steps_per_s"]
    assert (rate["pairs_won_by_change"], rate["gain_rule_met"]) == (10, True)
    assert out["gain_rule_met"] is True
    # every other metric reads 1.0 on both sides: ties win nothing
    for name, v in out["verdicts"].items():
        if name != "trial_steps_per_s":
            assert (v["pairs_won_by_change"], v["gain_rule_met"]) == (0, False)


# peak_rss_mb is lower-better with bound 0.05: parent median 70.5, IQR 2.75
RSS = [67.0, 68.0, 69.0, 69.5, 70.0, 71.0, 71.5, 72.0, 73.0, 74.0]


@pytest.mark.parametrize("change, wins, met, expected", [
    # every run 22 MB lower: a gain
    ([r - 22.0 for r in RSS], 10, True, "ok"),
    # lower on every pair, but by less than the parent's IQR
    ([r - 2.0 for r in RSS], 10, False, "ok"),
    # 22 MB higher: higher is worse for this metric
    ([r + 22.0 for r in RSS], 0, False, "worse"),
])
def test_gain_rule_on_a_lower_is_better_metric(monkeypatch, change, wins,
                                               met, expected):
    stub_bench(monkeypatch, {"parent": PARENT, "change": PARENT},
               {"parent": RSS, "change": change}, other="peak_rss_mb")
    out = compare(10)
    rss = out["verdicts"]["peak_rss_mb"]
    assert (rss["pairs_won_by_change"], rss["gain_rule_met"]) == (wins, met)
    assert rss["verdict"] == expected
    # the rate ties on every pair, so its gain rule is not met
    assert out["gain_rule_met"] is False


def test_failed_run_names_workload_side_seed_and_exit_code(monkeypatch):
    stderr = "".join(f"line {k}\n" for k in range(50)) + "MemoryError\n"

    def run(args, **kwargs):
        return subprocess.CompletedProcess(args, 3, stdout="", stderr=stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    with pytest.raises(RuntimeError) as err:
        bench_pairs.bench(TREES["change"], "change", "sweep-l1", 43, 1.0, 0)
    message = str(err.value)
    first_line = message.splitlines()[0]
    for part in ("sweep-l1", "change", "seed 43", "exited 3"):
        assert part in first_line
    tail = message.splitlines()[1:]
    assert len(tail) == bench_pairs.STDERR_TAIL
    assert tail[-1] == "MemoryError" and "line 0" not in tail


GATED = ["sweep-l1", "sweep-screened", "cli-trace"]


def write_spec(tree):
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": n} for n in GATED], "end_to_end": []}))


def main_argv(tmp_path, selected):
    return (["--parent", str(tmp_path), "--change", str(tmp_path / "change"),
             "--parent-commit", "abc", "--pr", "1"]
            + [a for name in selected for a in ("--workload", name)])


@pytest.mark.parametrize("selected, expected", [
    ([], GATED),
    (["cli-trace", "sweep-l1"], ["sweep-l1", "cli-trace"]),
])
def test_workload_filter(monkeypatch, tmp_path, selected, expected):
    write_spec(tmp_path / "change")
    compared = []

    def compare_stub(trees, workload, pairs, first_seed, seconds,
                     end_to_end):
        compared.append(workload)
        return {}, ENV

    monkeypatch.setattr(bench_pairs, "compare", compare_stub)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(main_argv(tmp_path, selected)) == 0
    assert compared == expected
    report = json.loads((tmp_path / "BENCH_1.json").read_text())
    assert list(report["workloads"]) == expected


def test_workload_filter_rejects_an_ungated_name(monkeypatch, tmp_path):
    write_spec(tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit):
        bench_pairs.main(main_argv(tmp_path, ["attack-stress"]))
    assert not (tmp_path / "BENCH_1.json").exists()
