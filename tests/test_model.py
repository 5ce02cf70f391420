import json

import numpy as np
import pytest

from securekf.model import (
    ModelFormatError,
    SystemModel,
    certify_resilience,
    jordan_blocks,
    load_model,
    model_from_dict,
    observability_matrix,
    validate_model,
)

from helpers import (BRUTE_FORCE_MAX_SENSORS, brute_force_sparse_index,
                     random_jordan_model)


def make(A, C):
    A = np.array(A, dtype=float)
    C = np.atleast_2d(np.array(C, dtype=float))
    n, m = A.shape[0], C.shape[0]
    return SystemModel(A=A, C=C, Q=0.01 * np.eye(n), R=0.01 * np.eye(m),
                       Sigma=0.01 * np.eye(n))


# ---------------------------------------------------------------- loading

def test_load_pendulum(pendulum_model):
    assert pendulum_model.n == 4
    assert pendulum_model.m == 4
    assert pendulum_model.q == 1
    assert pendulum_model.B.shape == (4, 1)
    assert pendulum_model.K_lqr.shape == (1, 4)
    assert len(pendulum_model.sensor_labels) == 4


def test_default_input_and_gain():
    model = make(np.eye(2) * 0.5, [[1.0, 0.0]])
    assert model.q == 1
    assert np.all(model.input_matrix() == 0.0)
    assert model.input_matrix().shape == (2, 1)
    assert np.all(model.feedback_gain() == 0.0)
    assert model.sensor_labels is None


def test_input_dimension_read_off_the_gain_without_b():
    # without B, K_lqr's rows say how many inputs there are
    model = make(np.eye(2) * 0.5, [[1.0, 0.0]])
    model = SystemModel(A=model.A, C=model.C, Q=model.Q, R=model.R,
                        Sigma=model.Sigma, K_lqr=np.ones((3, 2)))
    assert model.q == 3
    assert model.input_matrix().shape == (2, 3)


def _write(tmp_path, payload, raw=None):
    path = tmp_path / "model.json"
    if raw is None:
        raw = json.dumps(payload)
    path.write_text(raw, encoding="utf-8")
    return path


def test_load_rejects_bad_json(tmp_path):
    path = _write(tmp_path, None, raw="{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_non_object(tmp_path):
    path = _write(tmp_path, [1, 2, 3])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_nan_literal(tmp_path):
    payload = ('{"A": [[NaN]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],'
               ' "Sigma": [[1.0]]}')
    path = _write(tmp_path, None, raw=payload)
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("A, message", [
    ("[0.5, 0.5]", "model key 'A': expected 2 dimensions, got 1"),
    # json reads a finite literal out of range as inf
    ("[[1e999]]", "model key 'A': contains NaN or Inf entries"),
], ids=["1-D", "overflow"])
def test_load_rejects_a_malformed_matrix(A, message, tmp_path):
    payload = (f'{{"A": {A}, "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], '
               f'"Sigma": [[1.0]]}}')
    path = _write(tmp_path, None, raw=payload)
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == message


def test_model_from_dict_rejects_unknown_key():
    data = {"A": [[1.0]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
            "Sigma": [[1.0]], "bogus": 1}
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(data)
    assert "bogus" in str(exc.value)


def test_model_from_dict_rejects_missing_key():
    data = {"A": [[1.0]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(data)
    assert "Sigma" in str(exc.value)


def test_model_from_dict_rejects_ragged_array():
    data = {"A": [[1.0, 0.0], [1.0]], "C": [[1.0, 0.0]],
            "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
            "Sigma": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(ModelFormatError):
        model_from_dict(data)


def test_model_from_dict_rejects_non_numeric():
    data = {"A": [["x"]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
            "Sigma": [[1.0]]}
    with pytest.raises(ModelFormatError):
        model_from_dict(data)


def test_model_from_dict_rejects_bad_labels():
    data = {"A": [[1.0]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
            "Sigma": [[1.0]], "sensor_labels": [1, 2]}
    with pytest.raises(ModelFormatError):
        model_from_dict(data)


# ------------------------------------------------------------- validation

def test_validate_pendulum_passes(pendulum_model):
    report = validate_model(pendulum_model)
    assert report.passed, str(report)


def test_validate_random_models_pass():
    for seed in range(40):
        model = random_jordan_model(seed)
        report = validate_model(model)
        assert report.passed, f"seed {seed}:\n{report}"


def test_validate_rejects_nonsquare():
    model = SystemModel(A=np.ones((2, 3)), C=np.ones((1, 3)),
                        Q=np.eye(3), R=np.eye(1), Sigma=np.eye(3))
    report = validate_model(model)
    assert not report.passed
    assert any("square" in c.name for c in report.failures())


def test_validate_rejects_shape_mismatches():
    model = SystemModel(A=np.eye(2) * 0.5, C=np.ones((1, 3)),
                        Q=np.eye(2), R=np.eye(1), Sigma=np.eye(2))
    report = validate_model(model)
    assert any("dimensions" in c.name for c in report.failures())

    model = make(np.eye(2) * 0.5, [[1.0, 0.0]])
    model = SystemModel(A=model.A, C=model.C, Q=model.Q, R=model.R,
                        Sigma=model.Sigma, sensor_labels=("a", "b"))
    report = validate_model(model)
    assert any("dimensions" in c.name for c in report.failures())


@pytest.mark.parametrize("change, detail", [
    (dict(R=np.eye(2)), "R shape (2, 2), expected (1, 1)"),
    (dict(B=np.ones((3, 1))), "B shape (3, 1) incompatible with n=2"),
    (dict(K_lqr=np.ones((1, 3))), "K_lqr shape (1, 3) incompatible with n=2"),
    (dict(B=np.ones((2, 1)), K_lqr=np.ones((2, 2))),
     "B and K_lqr disagree on input dimension"),
], ids=["R", "B", "K_lqr", "B-K_lqr"])
def test_validate_names_each_shape_mismatch(change, detail):
    model = make(np.eye(2) * 0.5, [[1.0, 0.0]])
    fields = dict(A=model.A, C=model.C, Q=model.Q, R=model.R,
                  Sigma=model.Sigma)
    report = validate_model(SystemModel(**{**fields, **change}))
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("dimensions consistent", detail)]


def test_validate_rejects_singular_A():
    report = validate_model(make(np.diag([0.0, 0.5]), [[1.0, 1.0]]))
    assert any("nonsingular" in c.name for c in report.failures())


def test_validate_rejects_non_jordan_A():
    A = np.array([[0.5, 0.2], [0.1, 0.8]])
    report = validate_model(make(A, [[1.0, 0.0]]))
    assert any("Jordan" in c.name for c in report.failures())

    # superdiagonal entries must be exactly 0 or 1
    A = np.array([[0.5, 0.3], [0.0, 0.5]])
    report = validate_model(make(A, [[1.0, 0.0]]))
    assert any("Jordan" in c.name for c in report.failures())

    # diagonal must be constant inside a chain
    A = np.array([[0.5, 1.0], [0.0, 0.6]])
    report = validate_model(make(A, [[1.0, 0.0]]))
    assert any("Jordan" in c.name for c in report.failures())


def test_validate_rejects_repeated_block_eigenvalues():
    A = np.diag([0.5, 0.5])
    report = validate_model(make(A, [[1.0, 1.0]]))
    assert any("distinct" in c.name for c in report.failures())


def test_validate_rejects_bad_covariances():
    base = make(np.eye(2) * 0.5, [[1.0, 0.0]])
    bad_Q = SystemModel(A=base.A, C=base.C, Q=np.diag([1.0, -1.0]),
                        R=base.R, Sigma=base.Sigma)
    assert any(c.name.startswith("Q") for c in validate_model(bad_Q).failures())

    bad_R = SystemModel(A=base.A, C=base.C, Q=base.Q,
                        R=np.zeros((1, 1)), Sigma=base.Sigma)
    assert any(c.name.startswith("R") for c in validate_model(bad_R).failures())

    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    bad_S = SystemModel(A=base.A, C=base.C, Q=base.Q, R=base.R, Sigma=asym)
    assert any(c.name.startswith("Sigma") for c in validate_model(bad_S).failures())


def test_validation_report_str():
    report = validate_model(make(np.diag([0.0, 0.5]), [[1.0, 1.0]]))
    text = str(report)
    assert "[FAIL]" in text and "[ok ]" in text


def test_jordan_blocks_extents():
    A = np.zeros((5, 5))
    A[0, 0] = A[1, 1] = 0.3
    A[0, 1] = 1.0
    A[2, 2] = 0.7
    A[3, 3] = A[4, 4] = -0.2
    A[3, 4] = 1.0
    assert jordan_blocks(A, 1e-12) == [(0, 2), (2, 3), (3, 5)]
    A[4, 0] = 0.01
    assert jordan_blocks(A, 1e-12) is None


# ----------------------------------------------------- sensor coverage

def test_pendulum_support_sets(pendulum_model):
    structure = pendulum_model.structure
    assert structure.support[0] == (0, 1, 2)
    assert structure.support[1] == (0, 1, 2)
    assert structure.support[2] == (0, 1, 2, 3)
    assert structure.support[3] == (0, 1, 2, 3)
    assert structure.sparse_index == 2
    assert structure.observable
    assert brute_force_sparse_index(pendulum_model) == 2
    assert structure.covered_states(3) == (2, 3)


def test_structure_is_derived_once_per_model(pendulum_path):
    # the design and the decomposition of one set-up share one structure;
    # a new model derives its own, equal one
    model = load_model(pendulum_path)
    first = model.structure
    assert model.structure is first
    other = load_model(pendulum_path)
    assert other.structure is not first
    assert other.structure == first


def test_pendulum_resilience(pendulum_model):
    structure = pendulum_model.structure
    cert = certify_resilience(structure, p=1)
    assert cert.secure and cert.margin == 0 and cert.sparse_index == 2
    cert = certify_resilience(structure, p=2)
    assert not cert.secure and cert.margin == -2
    with pytest.raises(ValueError):
        certify_resilience(structure, p=-1)


def test_single_sensor_index_zero():
    model = make(np.diag([0.5, 0.9]), [[1.0, 1.0]])
    structure = model.structure
    assert structure.sparse_index == 0
    assert brute_force_sparse_index(model) == 0


def test_zero_row_sensor_covers_nothing():
    model = make(np.diag([0.5, 0.9]),
                 [[1.0, 1.0], [0.0, 0.0], [1.0, 2.0]])
    structure = model.structure
    assert structure.support == ((0, 2), (0, 2))
    assert structure.sparse_index == 1
    assert brute_force_sparse_index(model) == 1
    assert structure.covered_states(1) == ()


def test_unobservable_chain_tail():
    # sensing only the deep end of a chain misses the eigenvector direction
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    good = make(A, [[1.0, 0.0]]).structure
    assert good.support == ((0,), (0,))
    assert good.sparse_index == 0

    bad = make(A, [[0.0, 1.0]]).structure
    assert bad.support[0] == ()
    assert bad.sparse_index == -1
    assert not bad.observable
    assert brute_force_sparse_index(make(A, [[0.0, 1.0]])) == -1


def test_chain_support_monotone():
    # covering the first state of a chain implies covering every later one
    for seed in range(30):
        model = random_jordan_model(seed)
        structure = model.structure
        blocks = jordan_blocks(model.A, 1e-12)
        for lo, hi in blocks:
            first = set(structure.support[lo])
            for j in range(lo, hi):
                assert first <= set(structure.support[j]), f"seed {seed}"


def test_sparse_index_matches_brute_force():
    for seed in range(100):
        model = random_jordan_model(seed)
        structure = model.structure
        brute = brute_force_sparse_index(model)
        assert structure.sparse_index == brute, f"seed {seed}"


def test_observability_matrix_depth_saturates():
    # powers of A beyond n-1 add no new rank: O_n stacked on O_n A^n
    # holds the rows c A^k for k < 2n
    for seed in range(20):
        model = random_jordan_model(seed)
        n = model.n
        for i in range(model.m):
            O_n = observability_matrix(model.A, model.C[i])
            O_2n = np.vstack((O_n, O_n @ np.linalg.matrix_power(model.A, n)))
            assert np.linalg.matrix_rank(O_n) == np.linalg.matrix_rank(O_2n)


def test_certify_monotone_in_p():
    for seed in range(20):
        model = random_jordan_model(seed, ensure_observable=True)
        structure = model.structure
        flags = [certify_resilience(structure, p).secure
                 for p in range(model.m + 1)]
        # once insecure, larger budgets stay insecure
        for a, b in zip(flags, flags[1:]):
            assert a or not b


def test_brute_force_sensor_guard():
    n = 2
    C = np.ones((BRUTE_FORCE_MAX_SENSORS + 1, n))
    model = SystemModel(A=np.diag([0.5, 0.9]), C=C, Q=np.eye(n),
                        R=np.eye(C.shape[0]), Sigma=np.eye(n))
    with pytest.raises(ValueError):
        brute_force_sparse_index(model)
