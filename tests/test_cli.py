"""CLI surface: subcommands, exit codes, design files, CSV determinism."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import securekf.spectral
from securekf import (SensorDecomposition, build_decomposition,
                      closed_loop_eigendecomposition, load_model,
                      spectral_design, steady_state_kalman)
from securekf.cli import (
    design_from_dict,
    design_to_dict,
    load_design,
    main,
)
from securekf.model import model_from_dict

from helpers import (characteristic_polynomial, fusion_weights,
                     random_jordan_model, reference_design_to_dict,
                     tagged_matrix, version_4_design_dict)

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


# ----------------------------------------------------------------- design


def test_design_rerun_byte_identical(pendulum_path, tmp_path, capsys):
    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    assert main(["design", str(pendulum_path), "--out", str(d1)]) == 0
    assert main(["design", str(pendulum_path), "--out", str(d2)]) == 0
    capsys.readouterr()
    assert d1.read_bytes() == d2.read_bytes()
    # format v5 stores, besides the model it was made for, only the
    # design's K and riccati_residual: 2,553 bytes here
    assert len(d1.read_bytes()) <= 3_000


def test_design_round_trip_exact(pendulum_path, tmp_path, capsys):
    out = tmp_path / "design.json"
    assert main(["design", str(pendulum_path), "--out", str(out)]) == 0
    capsys.readouterr()
    model = load_model(pendulum_path)
    design = spectral_design(model)
    decomp = build_decomposition(model, design)
    d2 = load_design(out, model)
    for name in ("K", "Pi"):
        a, b = getattr(design, name), getattr(d2, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name
    assert design.riccati_residual == d2.riccati_residual
    # the CLI rebuilds the decomposition from the loaded design
    c2 = build_decomposition(model, d2)
    for f in dataclasses.fields(SensorDecomposition):
        a, b = getattr(decomp, f.name), getattr(c2, f.name)
        assert np.array_equal(a, b), f.name
    assert decomp.ridge_delta == c2.ridge_delta


def test_design_dict_round_trip_without_files(pendulum_model,
                                              pendulum_design,
                                              pendulum_decomposition):
    data = design_to_dict(pendulum_model, pendulum_design)
    # through the JSON text layer, as a file write would do
    data = json.loads(json.dumps(data))
    d2 = design_from_dict(data, pendulum_model)
    assert np.array_equal(d2.K, pendulum_design.K)
    assert np.array_equal(
        build_decomposition(pendulum_model, d2).Mtilde_factor,
        pendulum_decomposition.Mtilde_factor)


SHARED_EIGENVALUE_ERROR = ("error: Assumption 1 violated: closed-loop "
                           "eigenvalue 0.3")


def test_design_assumption_violation_exit_3(tmp_path, capsys):
    path = write_model(tmp_path, "shared.json", shared_eigenvalue_model())
    out = tmp_path / "d.json"
    assert main(["design", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(SHARED_EIGENVALUE_ERROR)
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--horizon", "30"],
    ["sweep-gamma", "--gammas", "5", "--trials", "1", "--horizon", "30"],
])
def test_assumption_violation_same_at_every_entry_point(command, tmp_path,
                                                        capsys):
    # simulate and the sweeps stop in spectral_design, as design does
    path = write_model(tmp_path, "shared.json", shared_eigenvalue_model())
    assert main([command[0], path, *command[1:]]) == 3
    assert capsys.readouterr().err.startswith(SHARED_EIGENVALUE_ERROR)


def test_design_riccati_divergence_exit_3(pendulum_path, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.setattr(securekf.spectral, "RICCATI_MAX_ITER", 1)
    out = tmp_path / "d.json"
    assert main(["design", str(pendulum_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Riccati recursion did not converge within "
                          "1 iterations")
    assert "Traceback" not in err
    assert not out.exists()


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
    out = tmp_path / "d.json"
    assert main(["design", str(pendulum_path), "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


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


@pytest.mark.parametrize("command, flag", [("sweep-gamma", "--gamma"),
                                           ("simulate", "--trials")])
def test_a_flag_the_subcommand_does_not_read_exit_2(command, flag,
                                                    pendulum_path, tmp_path,
                                                    capsys):
    # sweep-gamma takes its gammas from --gammas, and simulate runs one
    # trial: each subcommand has only the flags it reads
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, str(pendulum_path), flag, "7", "--horizon", "30",
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
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


def test_design_file_rejects_other_model(pendulum_path, tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["design", str(pendulum_path), "--out", str(out)]) == 0
    other = write_model(tmp_path, "other.json", minimal_model())
    assert main(["simulate", other, "--horizon", "30",
                 "--design", str(out)]) == 2
    assert "different model" in capsys.readouterr().err


def test_design_file_unknown_key_rejected(pendulum_path, tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["design", str(pendulum_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    data["extra"] = 1
    out.write_text(json.dumps(data))
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 1
    assert "unknown key 'extra'" in capsys.readouterr().err


def _design_case(case, pendulum_model):
    if case == "pendulum":
        return pendulum_model
    if case == "minimal":  # no B, no K_lqr
        return model_from_dict(minimal_model())
    # complex closed-loop spectrum and a nonzero ridge
    return random_jordan_model(0, ensure_observable=True)


@pytest.mark.parametrize("case", ["pendulum", "minimal", "complex"])
def test_design_file_matches_reference_encoder(case, pendulum_model):
    model = _design_case(case, pendulum_model)
    design = spectral_design(model)
    decomp = build_decomposition(model, design)
    if case == "complex":
        F_row = fusion_weights(model, design)[1]
        assert np.iscomplexobj(F_row) and decomp.ridge_delta > 0.0
    data = design_to_dict(model, design)
    reference = reference_design_to_dict(model, design)
    assert json.dumps(data, indent=1) == json.dumps(reference, indent=1)

    # the loaded K gives the design and its rebuilt decomposition, bit for
    # bit, ridge_delta included
    d2 = design_from_dict(json.loads(json.dumps(data)), model)
    c2 = build_decomposition(model, d2)
    for a, b in ((design, d2), (decomp, c2)):
        for name in a.__dataclass_fields__:
            x, y = getattr(a, name), getattr(b, name)
            assert np.array_equal(x, y), name
            assert np.asarray(x).dtype == np.asarray(y).dtype, name


@pytest.fixture(scope="module")
def pendulum_design_text(pendulum_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("design") / "design.json"
    assert main(["design", str(pendulum_path), "--out", str(out)]) == 0
    return out.read_text()


def _set(path, value):
    def edit(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return edit


def _delete(data):
    del data["design"]["K"]


@pytest.mark.parametrize("edit, message", [
    (_set(["design"], []),
     "design file section 'design' must be an object"),
    (_delete,
     "missing key 'K' in design file section 'design'"),
    (_set(["design", "extra"], 1),
     "unknown key 'extra' in design file section 'design'"),
    (_set(["design", "riccati_residual"], [1]),
     "design key 'riccati_residual': expected a number"),
    (_set(["design", "riccati_residual"], True),
     "design key 'riccati_residual': expected a number"),
    (_set(["design", "K"], [[1.0, 2.0], [1.0]]),
     "design key 'K': entries must be numbers in equal-length rows"),
    (_set(["design", "K"], [1.0, 2.0]),
     "design key 'K': entries must be numbers in equal-length rows"),
    (_set(["design", "K"], [["a"]]),
     "design key 'K': entries must be numbers in equal-length rows"),
    (_set(["design", "K"], [[True]]),
     "design key 'K': entries must be numbers in equal-length rows"),
    (_set(["design", "K"], [[1.0]]),
     "design key 'K': expected shape (4, 4), got (1, 1)"),
    (_set(["format"], "other"), "not a design file (format 'other')"),
    (_set(["version"], 6), "unsupported design file version 6"),
    (None, "invalid JSON in design file"),
    (_set(["design", "K", 1, 2], float("inf")),
     "design key 'K': numbers must be finite, got NaN or Infinity"),
], ids=["section-not-object", "missing-key", "unknown-section-key",
        "float-not-number", "float-is-bool", "ragged-rows", "one-dimensional",
        "entry-not-number", "entry-is-bool", "gain-shape", "wrong-format",
        "wrong-version", "invalid-json", "infinity-in-gain"])
def test_design_file_format_errors_exit_1(edit, message, pendulum_path,
                                          pendulum_design_text, tmp_path,
                                          capsys):
    out = tmp_path / "d.json"
    if edit is None:
        out.write_text(pendulum_design_text[:-10])
    else:
        data = json.loads(pendulum_design_text)
        edit(data)
        out.write_text(json.dumps(data))
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_design_file_not_an_object_exit_1(pendulum_path, tmp_path, capsys):
    # the format and the version are read off an object only
    out = tmp_path / "d.json"
    out.write_text("[]")
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 1
    assert capsys.readouterr().err == ("error: design file section 'top "
                                       "level' must be an object\n")


def test_design_file_version_1_refused(pendulum_path, pendulum_model,
                                       pendulum_design, tmp_path, capsys):
    # a version-1 file carries keys v2 dropped; it is refused by version,
    # with the way to make a current one
    data = version_4_design_dict(pendulum_model, pendulum_design)
    data["version"] = 1
    data["design"]["assumption1_ok"] = True
    out = tmp_path / "v1.json"
    out.write_text(json.dumps(data))
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: unsupported design file version 1" in err
    assert "re-run the design subcommand" in err


def test_design_file_version_2_refused(pendulum_path, pendulum_model,
                                       pendulum_design, tmp_path, capsys):
    # a version-2 file held the decomposition in complex mode coordinates,
    # with Pi in place of bank and bank_input; it is refused by version
    data = version_4_design_dict(pendulum_model, pendulum_design)
    data["version"] = 2
    decomposition = data["decomposition"]
    del decomposition["bank"], decomposition["bank_input"]
    decomposition["Pi"] = data["design"]["Pi"]
    out = tmp_path / "v2.json"
    out.write_text(json.dumps(data))
    assert main(["simulate", str(pendulum_path), "--horizon", "60",
                 "--design", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: unsupported design file version 2" in err
    assert "re-run the design subcommand" in err


def test_design_file_version_3_refused(pendulum_path, pendulum_model,
                                       pendulum_design, tmp_path, capsys):
    # a version-3 file also held the design's P, P_plus, charpoly and V,
    # which no reader used; it is refused by version
    data = version_4_design_dict(pendulum_model, pendulum_design)
    data["version"] = 3
    model = load_model(pendulum_path)
    P, P_plus, K, _ = steady_state_kalman(model)
    design = data["design"]
    design["P"], design["P_plus"] = tagged_matrix(P), tagged_matrix(P_plus)
    design["charpoly"] = tagged_matrix(characteristic_polynomial(model.A))
    design["V"] = tagged_matrix(
        closed_loop_eigendecomposition(model.A, K, model.C)[0])
    out = tmp_path / "v3.json"
    out.write_text(json.dumps(data))
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: unsupported design file version 3" in err
    assert "re-run the design subcommand" in err


def test_design_file_version_4_refused(pendulum_path, pendulum_model,
                                       pendulum_design, tmp_path, capsys):
    # a version-4 file also held Pi and the decomposition, which loading
    # now rebuilds from K; it is refused by version
    out = tmp_path / "v4.json"
    out.write_text(json.dumps(version_4_design_dict(pendulum_model,
                                                    pendulum_design)))
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: unsupported design file version 4; re-run the design "
        "subcommand\n")


def test_design_file_unstable_gain_exit_3(pendulum_path, pendulum_design_text,
                                          tmp_path, capsys):
    # Pi is recomputed from the stored K, so a K that makes A - K C A
    # unstable is refused by Assumption 1, as design would refuse it
    data = json.loads(pendulum_design_text)
    data["design"]["K"] = (3.0 * np.array(data["design"]["K"])).tolist()
    out = tmp_path / "unstable.json"
    out.write_text(json.dumps(data))
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: Assumption 1 violated: closed-loop modes are not strictly "
        "stable (spectral radius 3.76825)")


def test_design_scaled_noise_converges(pendulum_path, tmp_path, capsys):
    # Q, R and Sigma scaled by 1e6 leave the gain unchanged; the Riccati
    # stop rule must not depend on the absolute size of P
    data = json.loads(pendulum_path.read_text())
    for key in ("Q", "R", "Sigma"):
        data[key] = (1e6 * np.array(data[key])).tolist()
    path = write_model(tmp_path, "scaled.json", data)
    assert main(["design", path, "--out", str(tmp_path / "d.json")]) == 0
    assert "design written to" in capsys.readouterr().out


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
    # random_jordan_model(8) passes validate_model, but its S is rounding
    # and walks drop their last active coordinate
    # (test_walk_goes_on_after_its_last_active_coordinate_drops): the run
    # still ends in finite traces, some steps flagged unconverged
    model = random_jordan_model(8, ensure_observable=True)
    path = write_model(tmp_path, "jordan.json", {
        key: getattr(model, key).tolist()
        for key in ("A", "C", "Q", "R", "Sigma")})
    for gamma, unconverged in (("0.1", 21), ("1", 18), ("5", 11)):
        out = tmp_path / f"trace-{gamma}.csv"
        assert main(["simulate", path, "--gamma", gamma, "--horizon", "120",
                     "--seed", "8", "--out", str(out)]) == 0
        assert f"{unconverged} step(s) did not converge" in \
            capsys.readouterr().out
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


def test_simulate_stdout_when_no_out(pendulum_path, capsys):
    assert main(["simulate", str(pendulum_path), "--horizon", "60"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("k,x_1")
    assert "mse_kalman=" in captured.err


def test_simulate_design_reuse_byte_identical(pendulum_path, tmp_path,
                                              capsys):
    d = tmp_path / "design.json"
    assert main(["design", str(pendulum_path), "--out", str(d)]) == 0
    args = ["simulate", str(pendulum_path), "--gamma", "2", "--horizon",
            "60", "--seed", "9", "--attack-kind", "uniform"]
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(args + ["--out", str(t1)]) == 0
    assert main(args + ["--design", str(d), "--out", str(t2)]) == 0
    capsys.readouterr()
    assert t1.read_bytes() == t2.read_bytes()


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
