"""scripts/csv_parity.py: the cases it hashes, and one of them run twice."""

import importlib.util
import pathlib
import re

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "csv_parity.py"
spec = importlib.util.spec_from_file_location("csv_parity", SCRIPT)
csv_parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csv_parity)


def test_cases_cover_the_simulate_grid_both_sweeps_and_the_design():
    cases = [" ".join(c) for c in csv_parity.cases()]
    assert len(cases) == len(set(cases)) == 4 * 3 * 2 + 11
    assert "simulate --horizon 300 --gamma 0.2 --seed 2 --attack-kind " \
        "uniform" in cases
    assert "simulate --gamma 5 --seed 0 --attack-kind uniform" in cases
    assert "simulate --horizon 1500 --gamma 5 --seed 0 --attack-kind " \
        "uniform" in cases
    assert "simulate --horizon 300 --gamma 100 --seed 0 --attack-kind " \
        "none" in cases
    for kind in ("constant", "ramp"):
        assert f"simulate --horizon 300 --gamma 5 --seed 0 --attack-kind " \
            f"{kind}" in cases
    assert cases[-6:] == ["sweep-gamma --trials 2 --horizon 100",
                          "sweep-attack --trials 2 --horizon 100",
                          "sweep-attack --gamma 100 --trials 2 --horizon 100",
                          "sweep-attack --gamma 1000 --trials 2 --horizon "
                          "100",
                          "sweep-attack --magnitudes 0,1 --trials 1 "
                          "--horizon 1100",
                          "analyze --json"]


def test_a_case_run_twice_prints_the_same_line(capsys, monkeypatch):
    case = ["simulate", "--horizon", "300", "--gamma", "1000", "--seed", "1",
            "--attack-kind", "uniform"]
    assert case in csv_parity.cases()
    monkeypatch.setattr(csv_parity, "cases", lambda: [case, case])
    assert csv_parity.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert re.fullmatch(r"[0-9a-f]{64}  simulate --horizon 300 --gamma 1000 "
                        r"--seed 1 --attack-kind uniform", lines[0])
