"""CLI surface: subcommands, exit codes, CSV determinism."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import securekf.model
import securekf.spectral
from securekf.cli import main

from helpers import random_jordan_model

PENDULUM = None  # filled by fixture use; CLI wants a path string


def write_model(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def minimal_model(**overrides):
    data = {
        "A": [[0.5, 0.0], [0.0, -0.3]],
        "C": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "Q": [[0.01, 0.0], [0.0, 0.01]],
        "R": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]],
        "Sigma": [[0.01, 0.0], [0.0, 0.01]],
    }
    data.update(overrides)
    return data


def shared_eigenvalue_model():
    # sensor 1 is nearly useless (huge noise), so the closed-loop mode
    # for state 1 sits on top of A's eigenvalue 0.3
    return {
        "A": [[0.3, 0.0], [0.0, 0.8]],
        "C": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "Q": [[1e-9, 0.0], [0.0, 0.01]],
        "R": [[1e9, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]],
        "Sigma": [[0.01, 0.0], [0.0, 0.01]],
    }


# ---------------------------------------------------------------- analyze


def test_analyze_pendulum(pendulum_path, capsys):
    assert main(["analyze", str(pendulum_path)]) == 0
    out = capsys.readouterr().out
    assert "sparse observability index: 2; tolerates p = 1 attacked sensor" \
        in out
    assert "state 1:" in out


def test_analyze_json_report(pendulum_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["analyze", str(pendulum_path), "--json", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["sparse_observability_index"] == 2
    assert data["max_p"] == 1
    assert data["n"] == 4 and data["m"] == 4
    assert len(data["support"]) == 4


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/model.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_analyze_unknown_key(tmp_path, capsys):
    path = write_model(tmp_path, "unk.json", minimal_model(bogus=[[1.0]]))
    assert main(["analyze", path]) == 1
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_analyze_singular_a(tmp_path, capsys):
    path = write_model(tmp_path, "sing.json",
                       minimal_model(A=[[0.5, 0.0], [0.0, 0.0]]))
    assert main(["analyze", path]) == 2
    err = capsys.readouterr()
    assert "A nonsingular" in err.out or "A nonsingular" in err.err


def test_analyze_unobservable(tmp_path, capsys):
    path = write_model(tmp_path, "unobs.json",
                       minimal_model(C=[[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert main(["analyze", path]) == 2
    assert "unobservable" in capsys.readouterr().err


# ---------------------------------------------------------------- certify


def test_certify_exit_codes(pendulum_path, capsys):
    assert main(["certify", str(pendulum_path), "--p", "1"]) == 0
    assert "secure" in capsys.readouterr().out
    assert main(["certify", str(pendulum_path), "--p", "2"]) == 4
    assert "NOT secure" in capsys.readouterr().out
    assert main(["certify", str(pendulum_path), "--p", "-1"]) == 2


# ------------------------------------------------------------ design phase


SHARED_EIGENVALUE_ERROR = ("error: Assumption 1 violated: closed-loop "
                           "eigenvalue 0.3")


def test_design_assumption_violation_exit_3(tmp_path, capsys):
    # the design phase raises the typed error, and the CLI maps it to 3
    path = write_model(tmp_path, "shared.json", shared_eigenvalue_model())
    model = securekf.model.load_model(path)
    with pytest.raises(securekf.spectral.AssumptionError) as info:
        securekf.spectral.spectral_design(model)
    assert f"error: {info.value}".startswith(SHARED_EIGENVALUE_ERROR)
    out = tmp_path / "out.csv"
    assert main(["simulate", path, "--horizon", "30", "--burn-in", "0",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not out.exists()
    # a flag error comes first: 30 steps leave none at or after the
    # default burn-in of 50
    assert main(["simulate", path, "--horizon", "30"]) == 2
    assert capsys.readouterr().err == (
        "error: horizon 30 leaves no samples at or after burn-in 50\n")


@pytest.mark.parametrize("command", [
    ["simulate", "--horizon", "30", "--burn-in", "0"],
    ["sweep-gamma", "--gammas", "5", "--trials", "1", "--horizon", "30",
     "--burn-in", "0"],
])
def test_assumption_violation_same_at_every_entry_point(command, tmp_path,
                                                        capsys):
    # simulate and the sweeps stop in spectral_design, before any output
    path = write_model(tmp_path, "shared.json", shared_eigenvalue_model())
    out = tmp_path / "out.csv"
    assert main([command[0], path, *command[1:], "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(SHARED_EIGENVALUE_ERROR)
    assert not out.exists()


def test_design_riccati_divergence_exit_3(pendulum_path, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.setattr(securekf.spectral, "RICCATI_MAX_ITER", 1)
    out = tmp_path / "out.csv"
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--burn-in", "0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Riccati recursion did not converge within "
                          "1 iterations")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--burn-in", "-5"], "--burn-in must be nonnegative, got -5"),
    (["simulate", "--horizon", "0"], "--horizon must be at least 1, got 0"),
    (["simulate", "--attack-kind", "constant", "--attack-sensor", "9"],
     "--attack-sensor 9 out of range 1..4"),
    (["sweep-gamma", "--gammas", ","], "--gammas grid is empty"),
])
def test_flag_errors_exit_2_before_the_design(argv, message, pendulum_path,
                                              capsys, monkeypatch):
    # the checks that read only the flags run before the filter design
    def no_design(model):
        pytest.fail("the design was computed for a refused flag")

    monkeypatch.setattr(securekf.cli, "_get_design", no_design)
    assert main([argv[0], str(pendulum_path), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("error, code", [
    (securekf.AssumptionError("Theorem 2 precondition violated: x"), 3),
    (securekf.RiccatiDivergenceError("Riccati recursion: x", 1.0), 3),
    # the type decides, not the message
    (ValueError("Assumption 1 violated: x"), 2),
])
def test_exit_code_follows_the_error_type(error, code, pendulum_path,
                                          tmp_path, capsys, monkeypatch):
    def refuse(model):
        raise error

    monkeypatch.setattr(securekf.cli, "spectral_design", refuse)
    out = tmp_path / "out.csv"
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--burn-in", "0", "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_attack_defaults_come_from_the_simulator(monkeypatch):
    # the default sensor and magnitude are default_attack's, and the kinds
    # are ATTACK_KINDS: one copy of each
    from securekf.cli import _build_attack, build_parser
    from securekf.simulator import ATTACK_KINDS, AttackSpec, default_attack

    for command in ("simulate", "sweep-gamma", "sweep-attack"):
        args = build_parser().parse_args([command, "m.json",
                                          "--attack-kind", "constant"])
        assert _build_attack(args, 4) == dataclasses.replace(
            default_attack(4), kind="constant")
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        kind = next(a for a in sub._actions if a.dest == "attack_kind")
        assert tuple(kind.choices) == ATTACK_KINDS
    monkeypatch.setattr(securekf.cli, "default_attack",
                        lambda m: AttackSpec(support=(0,), kind="uniform",
                                             magnitude=2.5))
    assert _build_attack(args, 4) == AttackSpec(support=(0,), kind="constant",
                                                magnitude=2.5)


@pytest.mark.parametrize("command, flag, error", [
    ("sweep-gamma", "--gamma", "unrecognized arguments: --gamma 7"),
    ("simulate", "--trials", "unrecognized arguments: --trials 7"),
    ("sweep-attack", "--attack-magnitude",
     "unrecognized arguments: --attack-magnitude 7"),
    ("simulate", "--design", "unrecognized arguments: --design 7"),
    ("design", "--out", "argument command: invalid choice: 'design'"),
], ids=["sweep-gamma---gamma", "simulate---trials",
        "sweep-attack---attack-magnitude", "simulate---design", "design"])
def test_a_flag_the_subcommand_does_not_read_exit_2(command, flag, error,
                                                    pendulum_path, tmp_path,
                                                    capsys):
    # sweep-gamma takes its gammas from --gammas, simulate runs one trial,
    # and sweep-attack takes its magnitudes from --magnitudes: each
    # subcommand has only the flags it reads.  Every run computes its
    # design, so there is no design subcommand and no --design to read
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, str(pendulum_path), flag, "7", "--horizon", "30",
              "--out", str(out)])
    assert exc.value.code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_parser_is_built_once_and_parsing_leaves_it_unchanged():
    from securekf.cli import build_parser
    from securekf.simulator import DEFAULT_TRIALS

    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["sweep-attack", "m.json", "--gamma", "7",
                               "--trials", "3"])
    again = parser.parse_args(["sweep-attack", "m.json"])
    assert (first.gamma, first.trials) == (7.0, 3)
    assert (again.gamma, again.trials) == (5.0, DEFAULT_TRIALS)


def test_design_scaled_noise_converges(pendulum_path, tmp_path, capsys):
    # Q, R and Sigma scaled by 1e6 leave the gain unchanged; the Riccati
    # stop rule must not depend on the absolute size of P
    data = json.loads(pendulum_path.read_text())
    for key in ("Q", "R", "Sigma"):
        data[key] = (1e6 * np.array(data[key])).tolist()
    path = write_model(tmp_path, "scaled.json", data)
    out = tmp_path / "out.csv"
    assert main(["simulate", path, "--horizon", "60", "--out", str(out)]) == 0
    assert "mse_kalman=" in capsys.readouterr().out
    assert out.exists()


# --------------------------------------------------------------- simulate


def test_simulate_writes_trace_csv(pendulum_path, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["simulate", str(pendulum_path), "--gamma", "5",
                 "--horizon", "80", "--seed", "3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mse_kalman=" in stdout and "mse_secure=" in stdout
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 81
    assert lines[0].startswith("k,x_1")
    assert lines[0].endswith("solver_iters,kkt_residual,solver_warn")


def test_simulate_walks_that_empty_their_active_set(tmp_path, capsys):
    # random_jordan_model(8) passes validate_model and has one sensor, so
    # no parity space: S is exactly zero and every step screens, whatever
    # gamma, with x_tilde = x_ls.  On its rounding-level S, walks dropped
    # their last active coordinate
    # (test_walk_goes_on_after_its_last_active_coordinate_drops) and the
    # estimate was unbounded
    model = random_jordan_model(8, ensure_observable=True)
    path = write_model(tmp_path, "jordan.json", {
        key: getattr(model, key).tolist()
        for key in ("A", "C", "Q", "R", "Sigma")})
    for gamma in ("0.1", "1", "5"):
        out = tmp_path / f"trace-{gamma}.csv"
        assert main(["simulate", path, "--gamma", gamma, "--horizon", "120",
                     "--seed", "8", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "did not converge" not in summary
        fields = dict(f.split("=") for f in summary.split()[:3])
        assert fields["mse_secure"] == fields["mse_ls"]
        header = out.read_text().splitlines()[0].split(",")
        trace = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(trace).all()
        column = {name: trace[:, j] for j, name in enumerate(header)}
        for name in ("solver_iters", "kkt_residual", "solver_warn"):
            assert not column[name].any(), name
        for i in range(1, model.n + 1):
            assert np.array_equal(column[f"xhat_sec_{i}"],
                                  column[f"xhat_ls_{i}"])


def test_simulate_stdout_when_no_out(pendulum_path, capsys):
    assert main(["simulate", str(pendulum_path), "--horizon", "60"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("k,x_1")
    assert "mse_kalman=" in captured.err


def test_simulate_validation_errors(pendulum_path, capsys):
    assert main(["simulate", str(pendulum_path), "--gamma", "0",
                 "--horizon", "30"]) == 2
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--attack-kind", "none", "--attack-sensor", "2"]) == 2
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--attack-kind", "constant", "--attack-sensor", "9"]) == 2
    capsys.readouterr()


UNIFORM_RANGE_REFUSAL = ("error: uniform attack magnitude 1e+308 is too "
                         "large: its draw range 2 * magnitude is not finite")


@pytest.mark.parametrize("argv, error", [
    (["simulate", "--attack-kind", "constant", "--attack-magnitude",
      "1e308"], "error: simulation produced non-finite"),
    (["simulate", "--attack-kind", "uniform", "--attack-magnitude", "1e308"],
     UNIFORM_RANGE_REFUSAL),
    (["sweep-attack", "--magnitudes", "1,1e308", "--trials", "1"],
     UNIFORM_RANGE_REFUSAL),
], ids=["simulate-constant", "simulate-uniform", "sweep-attack-uniform"])
def test_simulate_overflowing_run_exit_2(argv, error, pendulum_path):
    # a run that overflows is named by its first non-finite array, and a
    # uniform range past the float64 limit by its magnitude, without numpy
    # warnings or a traceback; the first once reached the fusion as a
    # "complex" measurement, the second once ended in numpy's OverflowError
    src = pathlib.Path(securekf.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "securekf.cli", argv[0], str(pendulum_path),
         "--horizon", "60", *argv[1:]],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(error)
    assert "complex" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("burn_in, message", [
    ("-5", "error: --burn-in must be nonnegative, got -5\n"),
    ("11", "error: horizon 10 leaves no samples at or after burn-in 11\n"),
], ids=["negative", "past-horizon"])
@pytest.mark.parametrize("command", ["simulate", "sweep-gamma",
                                     "sweep-attack"])
def test_burn_in_without_samples_exit_2_before_any_output(
        command, burn_in, message, pendulum_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, str(pendulum_path), "--horizon", "10",
                 "--burn-in", burn_in, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


@pytest.mark.parametrize("horizon, burn_in", [("0", "0"), ("-5", "50")])
@pytest.mark.parametrize("command", ["simulate", "sweep-gamma",
                                     "sweep-attack"])
def test_horizon_below_1_exit_2_before_any_output(
        command, horizon, burn_in, pendulum_path, tmp_path, capsys):
    # the horizon is named, not the burn-in it leaves no room for, and an
    # empty sweep no longer crashes in its rollout
    out = tmp_path / "out.csv"
    assert main([command, str(pendulum_path), "--horizon", horizon,
                 "--burn-in", burn_in, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: --horizon must be at least 1, got {horizon}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
def test_negative_seed_exit_2(command, pendulum_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, str(pendulum_path), "--horizon", "10",
                 "--burn-in", "0", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: seed and trial must be nonnegative, got seed -1, "
            "trial 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--gamma", "nan"],
    ["sweep-gamma", "--gammas", "1,nan", "--trials", "1"],
], ids=["simulate", "sweep-gamma"])
def test_non_finite_gamma_exit_2(command, pendulum_path, capsys):
    assert main([command[0], str(pendulum_path), *command[1:],
                 "--horizon", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: γ must be finite, got nan\n"


# ----------------------------------------------------------------- sweeps


def test_sweep_gamma_row_count_and_determinism(pendulum_path, tmp_path,
                                               capsys):
    base = ["sweep-gamma", str(pendulum_path), "--gammas", "2,5,20",
            "--trials", "2", "--horizon", "60", "--seed", "4"]
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(base + ["--out", str(s1)]) == 0
    assert main(base + ["--out", str(s2)]) == 0
    assert capsys.readouterr() == (
        f"3 gamma value(s), 2 trial(s) each -> {s1}\n"
        f"3 gamma value(s), 2 trial(s) each -> {s2}\n", "")
    assert s1.read_bytes() == s2.read_bytes()
    lines = s1.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("sweep_value,mse_secure_no_attack")
    assert [float(l.split(",")[0]) for l in lines[1:]] == [2.0, 5.0, 20.0]


def test_sweep_gamma_rejects_bad_grid(pendulum_path, capsys):
    assert main(["sweep-gamma", str(pendulum_path), "--gammas", "2,x",
                 "--trials", "1", "--horizon", "30"]) == 2
    assert main(["sweep-gamma", str(pendulum_path), "--gammas", ",",
                 "--trials", "1", "--horizon", "30"]) == 2
    assert main(["sweep-gamma", str(pendulum_path), "--gammas", "5",
                 "--trials", "1", "--horizon", "30",
                 "--attack-kind", "none"]) == 2
    capsys.readouterr()


def test_sweep_attack_row_count(pendulum_path, tmp_path, capsys):
    out = tmp_path / "mag.csv"
    assert main(["sweep-attack", str(pendulum_path), "--magnitudes",
                 "0,1,2", "--gamma", "5", "--trials", "2", "--horizon",
                 "60", "--out", str(out)]) == 0
    assert capsys.readouterr() == (
        f"3 magnitude(s) at gamma=5, 2 trial(s) each -> {out}\n", "")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("command", ["sweep-gamma", "sweep-attack"])
def test_sweep_without_an_attack_exit_2(command, pendulum_path, capsys):
    assert main([command, str(pendulum_path), "--trials", "1",
                 "--horizon", "30", "--attack-kind", "none"]) == 2
    assert capsys.readouterr() == (
        "", f"error: {command} needs an attack; pick --attack-kind "
            f"constant, uniform, or ramp\n")


def test_sweep_attack_constant_kind(pendulum_path, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["sweep-attack", str(pendulum_path), "--magnitudes", "0.5",
                 "--attack-kind", "constant", "--attack-sensor", "2",
                 "--trials", "1", "--horizon", "40", "--burn-in", "20", "--out",
                 str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().strip().split("\n")) == 2
