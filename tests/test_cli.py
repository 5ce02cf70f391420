"""CLI surface: subcommands, exit codes, design files, CSV determinism."""

import dataclasses
import json

import numpy as np
import pytest

import securekf.spectral
from securekf import (SensorDecomposition, build_decomposition,
                      fusion_weights, load_model, spectral_design)
from securekf.cli import (
    design_from_dict,
    design_to_dict,
    load_design,
    main,
)
from securekf.model import model_from_dict

from helpers import random_jordan_model, reference_design_to_dict

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
    # format v2 stores only what the estimator reads (v1: 91,613 bytes)
    assert len(d1.read_bytes()) <= 40_000


def test_design_round_trip_exact(pendulum_path, tmp_path, capsys):
    out = tmp_path / "design.json"
    assert main(["design", str(pendulum_path), "--out", str(out)]) == 0
    capsys.readouterr()
    model = load_model(pendulum_path)
    design = spectral_design(model)
    decomp = build_decomposition(model, design)
    d2, c2 = load_design(out, model)
    for name in ("P", "P_plus", "K", "charpoly", "V", "Pi"):
        a, b = getattr(design, name), getattr(d2, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name
    for f in dataclasses.fields(SensorDecomposition):
        a, b = getattr(decomp, f.name), getattr(c2, f.name)
        if f.name == "Mtilde_factor":
            a, b = a[0], b[0]
        assert np.array_equal(a, b), f.name
    assert decomp.ridge_delta == c2.ridge_delta


def test_design_dict_round_trip_without_files(pendulum_model,
                                              pendulum_design,
                                              pendulum_decomposition):
    data = design_to_dict(pendulum_model, pendulum_design,
                          pendulum_decomposition)
    # through the JSON text layer, as a file write would do
    data = json.loads(json.dumps(data))
    d2, c2 = design_from_dict(data, pendulum_model)
    assert np.array_equal(d2.K, pendulum_design.K)
    assert np.array_equal(c2.Mtilde, pendulum_decomposition.Mtilde)


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
        F_row = fusion_weights(design)[1]
        assert np.iscomplexobj(F_row) and decomp.ridge_delta > 0.0
    data = design_to_dict(model, design, decomp)
    reference = reference_design_to_dict(model, design, decomp)
    assert json.dumps(data, indent=1) == json.dumps(reference, indent=1)

    d2, c2 = design_from_dict(json.loads(json.dumps(data)), model)
    for a, b in ((design, d2), (decomp, c2)):
        for name in a.__dataclass_fields__:
            x, y = getattr(a, name), getattr(b, name)
            if name == "Mtilde_factor":
                x, y = x[0], y[0]
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
    del data["decomposition"]["Mtilde"]


@pytest.mark.parametrize("edit, message", [
    (_set(["design"], []),
     "design file section 'design' must be an object"),
    (_delete,
     "missing key 'Mtilde' in design file section 'decomposition'"),
    (_set(["design", "extra"], 1),
     "unknown key 'extra' in design file section 'design'"),
    (_set(["design", "K"], [[1.0]]),
     "design key 'K': expected a tagged matrix"),
    (_set(["design", "K"], {"quaternion": [[1.0]]}),
     "design key 'K': unknown matrix tag 'quaternion'"),
    (_set(["design", "V"], {"complex": [[[1.0, 0.0, 2.0]]]}),
     "design key 'V': complex entries must be [re, im] pairs"),
    (_set(["design", "V"], {"complex": [[[1.0, "a"]]]}),
     "design key 'V': complex entries must be [re, im] pairs of numbers"),
    (_set(["design", "riccati_residual"], [1]),
     "design key 'riccati_residual': expected a number"),
    (_set(["decomposition", "ridge_delta"], True),
     "design key 'ridge_delta': expected a number"),
    (_set(["design", "K"], {"real": [[1.0, 2.0], [1.0]]}),
     "design key 'K': real entries must be numbers in equal-length rows"),
    (_set(["design", "K"], {"real": [1.0, 2.0]}),
     "design key 'K': real entries must be numbers in equal-length rows"),
    (_set(["design", "K"], {"real": [["a"]]}),
     "design key 'K': real entries must be numbers in equal-length rows"),
    (_set(["design", "K"], {"real": [[True]]}),
     "design key 'K': real entries must be numbers in equal-length rows"),
    (_set(["format"], "other"), "not a design file (format 'other')"),
    (_set(["version"], 3), "unsupported design file version 3"),
    (None, "invalid JSON in design file"),
], ids=["section-not-object", "missing-key", "unknown-section-key",
        "untagged-matrix", "unknown-tag", "malformed-complex",
        "complex-not-number", "float-not-number", "float-is-bool",
        "ragged-rows", "one-dimensional", "entry-not-number", "entry-is-bool",
        "wrong-format", "wrong-version", "invalid-json"])
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


def test_design_file_version_1_refused(pendulum_path, pendulum_design_text,
                                       tmp_path, capsys):
    # a version-1 file carries keys v2 dropped; it is refused by version,
    # with the way to make a current one
    data = json.loads(pendulum_design_text)
    data["version"] = 1
    data["design"]["assumption1_ok"] = True
    out = tmp_path / "v1.json"
    out.write_text(json.dumps(data))
    assert main(["simulate", str(pendulum_path), "--horizon", "30",
                 "--design", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: unsupported design file version 1" in err
    assert "re-run the design subcommand" in err


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


# ----------------------------------------------------------------- sweeps


def test_sweep_gamma_row_count_and_determinism(pendulum_path, tmp_path,
                                               capsys):
    base = ["sweep-gamma", str(pendulum_path), "--gammas", "2,5,20",
            "--trials", "2", "--horizon", "60", "--seed", "4"]
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(base + ["--out", str(s1)]) == 0
    assert main(base + ["--out", str(s2)]) == 0
    capsys.readouterr()
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
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 1.0, 2.0]


def test_sweep_attack_constant_kind(pendulum_path, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["sweep-attack", str(pendulum_path), "--magnitudes", "0.5",
                 "--attack-kind", "constant", "--attack-sensor", "2",
                 "--trials", "1", "--horizon", "40", "--burn-in", "20", "--out",
                 str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().strip().split("\n")) == 2
