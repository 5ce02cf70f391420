import dataclasses
import logging

import numpy as np
import pytest
import scipy.linalg

from securekf.decomposition import (
    build_decomposition,
    canonical_projector,
    conjugate_pairing,
    fusion_weights,
    local_gain_direct,
    local_gain_factored,
    realification_map,
    residual_covariances,
)
from securekf.model import SystemModel, observability_matrix, observability_structure
from securekf.spectral import SpectralDesign, characteristic_polynomial, spectral_design

from helpers import random_jordan_model, sensor_blocks


def dummy_design(A, Pi, V=None, K=None, m=1):
    n = A.shape[0]
    Pi = np.asarray(Pi, dtype=complex)
    return SpectralDesign(P=np.eye(n), P_plus=np.eye(n),
                          K=np.zeros((n, m)) if K is None else np.asarray(K, float),
                          charpoly=characteristic_polynomial(A),
                          V=np.eye(n, dtype=complex) if V is None else V,
                          Pi=Pi, riccati_residual=0.0)


def observable_designs(count, start=0):
    """Yield (model, design) pairs for random modal systems.

    Skips draws whose closed-loop modes land close to the spectrum of A:
    the decomposition is defined there but numerically hostile, which
    would force slack tolerances everywhere else.
    """
    produced = 0
    seed = start
    while produced < count:
        model = random_jordan_model(seed, ensure_observable=True)
        seed += 1
        try:
            design = spectral_design(model)
        except ValueError as exc:
            if str(exc).startswith("Assumption 1 violated"):
                continue
            raise
        if np.abs(np.polyval(design.charpoly[::-1], design.Pi)).min() < 1e-4:
            continue
        produced += 1
        yield model, design


# -------------------------------------------------------- per-mode gains

def test_scalar_gain_resolvent():
    model = SystemModel(A=np.array([[2.0]]), C=np.array([[1.0]]),
                        Q=np.eye(1), R=np.eye(1), Sigma=np.eye(1))
    design = dummy_design(model.A, [0.5])
    G = local_gain_direct(model, design, 0)
    assert np.abs(G - 4.0 / 3.0).max() < 1e-12
    G_f = local_gain_factored(model, design, 0)
    assert np.abs(G_f - 4.0 / 3.0).max() < 1e-12


def test_factored_gain_hand_expansion():
    # p(x) = x^2 - 3x + 2; quotient at pi = 0.5 is x - 2.5, p(0.5) = 0.75
    model = SystemModel(A=np.diag([1.0, 2.0]), C=np.array([[1.0, 1.0]]),
                        Q=np.eye(2), R=np.eye(1), Sigma=np.eye(2))
    design = dummy_design(model.A, [0.5, 0.25])
    G = local_gain_factored(model, design, 0)
    assert np.abs(G[0] - np.array([2.0, 4.0 / 3.0])).max() < 1e-12
    G_d = local_gain_direct(model, design, 0)
    assert np.abs(G - G_d).max() < 1e-12


def test_gain_rejects_shared_eigenvalue():
    model = SystemModel(A=np.diag([1.0, 2.0]), C=np.array([[1.0, 1.0]]),
                        Q=np.eye(2), R=np.eye(1), Sigma=np.eye(2))
    design = dummy_design(model.A, [1.0, 0.25])
    with pytest.raises(ValueError):
        local_gain_direct(model, design, 0)
    with pytest.raises(ValueError):
        local_gain_factored(model, design, 0)


def test_pendulum_angle_sensor_gain_columns(pendulum_model):
    design = spectral_design(pendulum_model)
    G4 = local_gain_direct(pendulum_model, design, 3)
    scale = np.abs(G4).max()
    # the angle sensor cannot observe the cart chain
    assert np.abs(G4[:, 0]).max() < 1e-10 * scale
    assert np.abs(G4[:, 1]).max() < 1e-10 * scale
    assert np.abs(G4[:, 2]).max() > 1e-3 * scale


def test_pendulum_gain_identity(pendulum_model):
    design = spectral_design(pendulum_model)
    ones = np.ones((4, 1))
    for i in range(4):
        G = local_gain_direct(pendulum_model, design, i)
        lhs = G @ pendulum_model.A
        rhs = design.Pi[:, None] * G + ones @ (pendulum_model.C[i:i + 1] @ pendulum_model.A)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_pendulum_route_equivalence(pendulum_model):
    design = spectral_design(pendulum_model)
    for i in range(4):
        G_d = local_gain_direct(pendulum_model, design, i)
        G_f = local_gain_factored(pendulum_model, design, i)
        assert np.abs(G_d - G_f).max() <= 1e-7 * np.abs(G_d).max()


def test_route_equivalence_random_models():
    for model, design in observable_designs(50):
        for i in range(model.m):
            G_d = local_gain_direct(model, design, i)
            G_f = local_gain_factored(model, design, i)
            scale = max(np.abs(G_d).max(), 1.0)
            assert np.abs(G_d - G_f).max() <= 1e-7 * scale


def test_companion_identity_random_models():
    # O_i A = companion(charpoly) O_i, from the matrix polynomial of A
    for seed in range(30):
        model = random_jordan_model(seed)
        a = characteristic_polynomial(model.A)
        n = model.n
        comp = np.zeros((n, n))
        comp[:-1, 1:] = np.eye(n - 1)
        comp[-1] = -a[:n]
        for i in range(model.m):
            O = observability_matrix(model.A, model.C[i])
            assert np.abs(O @ model.A - comp @ O).max() < 1e-8 * max(1.0, np.abs(O).max())


def test_row_span_ranks(pendulum_model):
    design = spectral_design(pendulum_model)
    structure = observability_structure(pendulum_model)
    for i in range(4):
        G = local_gain_direct(pendulum_model, design, i)
        O = observability_matrix(pendulum_model.A, pendulum_model.C[i])
        covered = structure.covered_states(i)
        rank_O = np.linalg.matrix_rank(O)
        assert rank_O == len(covered)
        stacked = np.vstack([G, O.astype(complex)])
        assert np.linalg.matrix_rank(stacked) == rank_O


# --------------------------------------------------- canonical projector

def test_projector_full_rank_inverts():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(3, 3))
    P, H = canonical_projector(G.astype(complex), [0, 1, 2])
    assert np.abs(H - np.eye(3)).max() == 0.0
    assert np.abs(P - np.linalg.inv(G)).max() < 1e-10


def test_projector_zero_gain_degenerates():
    P, H = canonical_projector(np.zeros((3, 3), dtype=complex), [])
    assert np.abs(H).max() == 0.0
    assert np.abs(P - np.eye(3)).max() < 1e-12


def test_projector_rejects_inconsistent_support():
    G = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        canonical_projector(G, [0, 1])  # column 2 is nonzero yet unmarked


def test_projector_rejects_dependent_columns():
    G = np.zeros((3, 3), dtype=complex)
    G[:, 0] = [1.0, 2.0, 3.0]
    G[:, 1] = [2.0, 4.0, 6.0]
    with pytest.raises(ValueError) as exc:
        canonical_projector(G, [0, 1])
    assert "Theorem 2 precondition violated" in str(exc.value)


def test_projector_pendulum_angle_sensor(pendulum_model):
    design = spectral_design(pendulum_model)
    structure = observability_structure(pendulum_model)
    pair = conjugate_pairing(design.Pi)
    G4 = local_gain_direct(pendulum_model, design, 3)
    P4, H4 = canonical_projector(G4, structure.covered_states(3), pair)
    assert np.abs(H4 - np.diag([0.0, 0.0, 1.0, 1.0])).max() == 0.0
    assert np.abs(P4 @ G4 - H4).max() < 1e-8


def test_realification_map_unitary():
    pair = np.array([0, 2, 1, 3])
    T = realification_map(pair)
    assert np.abs(T @ T.conj().T - np.eye(4)).max() < 1e-14
    # vectors with conjugate-pair symmetry map to real vectors
    z = np.array([1.3, 0.2 + 0.7j, 0.2 - 0.7j, -0.4], dtype=complex)
    assert np.abs((T @ z).imag).max() < 1e-14


def test_conjugate_pairing_detects_partners():
    Pi = np.array([0.3, 0.5 - 0.2j, 0.5 + 0.2j, 0.9])
    assert conjugate_pairing(Pi).tolist() == [0, 2, 1, 3]
    with pytest.raises(ValueError):
        conjugate_pairing(np.array([0.5 + 0.2j, 0.3]))


# -------------------------------------------------------- fusion weights

def test_fusion_weights_identity_eigenvectors():
    A = np.diag([0.5, 0.3])
    K = np.array([[0.7, 0.1], [0.2, 0.4]])
    design = dummy_design(A, [0.5, 0.3], K=K, m=2)
    F_list, F_row = fusion_weights(design)
    assert np.abs(F_list[0] - np.diag(K[:, 0])).max() < 1e-12
    assert np.abs(F_list[1] - np.diag(K[:, 1])).max() < 1e-12
    assert F_row.dtype.kind == "f"


def test_fusion_weights_pendulum_identities(pendulum_model):
    design = spectral_design(pendulum_model)
    F_list, F_row = fusion_weights(design)
    A, C, K = pendulum_model.A, pendulum_model.C, design.K
    E = A - K @ C @ A
    ones = np.ones(4)
    Pi = np.diag(design.Pi)
    total = np.zeros((4, 4), dtype=complex)
    for i, F_i in enumerate(F_list):
        assert np.abs(F_i @ ones - K[:, i]).max() < 1e-10
        assert np.abs(F_i @ Pi - E @ F_i).max() < 1e-10
        G_i = local_gain_direct(pendulum_model, design, i)
        total += F_i @ (G_i - np.ones((4, 1)) @ C[i:i + 1])
    assert np.abs(total - (np.eye(4) - K @ C)).max() < 1e-9


def test_fusion_weights_recover_gain_on_random_models():
    for model, design in observable_designs(20):
        F_list, F_row = fusion_weights(design)
        decomp = build_decomposition(model, design)
        assert np.abs(F_row @ decomp.G_stack - np.eye(model.n)).max() < 1e-7


# ----------------------------------------------------------- covariances

def test_scalar_stationary_covariance():
    model = SystemModel(A=np.array([[2.0]]), C=np.array([[1.0]]),
                        Q=np.array([[9.0]]), R=np.array([[0.0]]),
                        Sigma=np.eye(1))
    design = dummy_design(model.A, [0.5])
    G = local_gain_direct(model, design, 0)   # 4/3, so G - c = 1/3
    Qt, Wt, Mt, factor, delta = residual_covariances(
        model, design, [G], np.eye(1, dtype=complex))
    assert abs(Qt[0, 0] - 1.0) < 1e-12
    assert abs(Wt[0, 0] - 4.0 / 3.0) < 1e-12
    assert abs(Mt[0, 0] - 4.0 / 3.0) < 1e-12


def test_pendulum_covariances(pendulum_model):
    design = spectral_design(pendulum_model)
    decomp = build_decomposition(pendulum_model, design)
    mn = 16
    G_list = sensor_blocks(decomp, 4)[0]
    Qtilde, Wtilde, Mtilde, _, _ = residual_covariances(
        pendulum_model, design, G_list, decomp.Ptilde)
    assert np.array_equal(Mtilde, decomp.Mtilde)
    pi_t = np.tile(design.Pi, 4)
    Pit = np.diag(pi_t)
    residual = Wtilde - Pit @ Wtilde @ Pit.conj().T - Qtilde
    assert np.abs(residual).max() <= 1e-10

    for M in (Qtilde, Wtilde, decomp.Mtilde):
        assert np.abs(M - M.conj().T).max() < 1e-12
        trace = float(np.trace(M).real)
        assert np.linalg.eigvalsh(M).min() >= -1e-9 * trace

    # independent stationary solve for the same fixed point
    W_ref = scipy.linalg.solve_discrete_lyapunov(Pit, Qtilde)
    assert np.abs(Wtilde - W_ref).max() < 1e-8

    # conjugate-pair equivariant projectors keep Mtilde essentially real
    assert np.abs(decomp.Mtilde.imag).max() < 1e-10 * np.abs(decomp.Mtilde).max()
    assert decomp.ridge_delta == 0.0

    rhs = np.arange(mn, dtype=float)
    x = scipy.linalg.cho_solve(decomp.Mtilde_factor, rhs.astype(complex))
    # backward-stable solve: residual scales with ||Mtilde|| ||x||
    bound = 1e-13 * mn * max(1.0, np.abs(decomp.Mtilde).max()) \
        * max(1.0, np.abs(x).max())
    assert np.abs(decomp.Mtilde @ x - rhs).max() < bound


def test_ridge_engages_on_singular_covariance(caplog):
    # two perfectly correlated sensors with no process noise make the
    # stacked residual covariance exactly singular
    model = SystemModel(A=np.array([[0.6]]), C=np.array([[1.0], [1.0]]),
                        Q=np.array([[0.0]]), R=np.array([[1.0, 1.0], [1.0, 1.0]]),
                        Sigma=np.eye(1))
    design = dummy_design(model.A, [0.5], m=2)
    G = local_gain_direct(model, design, 0)
    with caplog.at_level(logging.WARNING, logger="securekf.decomposition"):
        Qt, Wt, Mt, factor, delta = residual_covariances(
            model, design, [G, G], np.eye(2, dtype=complex))
    assert np.abs(Wt - (4.0 / 3.0) * np.ones((2, 2))).max() < 1e-12
    assert delta > 0.0
    assert any("ridge" in rec.message for rec in caplog.records)
    rhs = np.ones(2, dtype=complex)
    x = scipy.linalg.cho_solve(factor, rhs)
    reg = Mt + delta * np.eye(2)
    assert np.abs(reg @ x - rhs).max() < 1e-6


# ------------------------------------------------------------- assembly

def test_build_decomposition_pendulum(pendulum_model):
    design = spectral_design(pendulum_model)
    decomp = build_decomposition(pendulum_model, design)
    structure = observability_structure(pendulum_model)
    G, H, P = sensor_blocks(decomp, 4)
    for i in range(4):
        assert np.abs(P[i] @ G[i] - H[i]).max() < 1e-8
        want = np.zeros(4)
        want[list(structure.covered_states(i))] = 1.0
        assert np.abs(np.diag(H[i]) - want).max() == 0.0
    assert decomp.G_stack.shape == (16, 4)
    assert decomp.H_stack.shape == (16, 4)
    assert decomp.Ptilde.shape == (16, 16)
    assert np.array_equal(decomp.Ptilde, scipy.linalg.block_diag(*P))
    assert fusion_weights(design)[1].shape == (4, 16)


def test_build_decomposition_deterministic(pendulum_model):
    design = spectral_design(pendulum_model)
    a = build_decomposition(pendulum_model, design)
    b = build_decomposition(pendulum_model, design)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "Mtilde_factor":
            x, y = x[0], y[0]
        assert np.array_equal(x, y), f.name
    assert np.array_equal(fusion_weights(design)[1], fusion_weights(design)[1])


def test_build_decomposition_random_models():
    for model, design in observable_designs(30):
        decomp = build_decomposition(model, design)
        structure = observability_structure(model)
        G, H, P = sensor_blocks(decomp, model.n)
        assert np.array_equal(decomp.Ptilde, scipy.linalg.block_diag(*P))
        for i in range(model.m):
            assert np.abs(P[i] @ G[i] - H[i]).max() \
                < 1e-7 * max(1.0, np.abs(G[i]).max())
            covered = structure.covered_states(i)
            assert np.diag(H[i]).sum() == len(covered)
        trace = float(np.trace(decomp.Mtilde).real)
        assert np.linalg.eigvalsh(decomp.Mtilde).min() >= -1e-9 * trace
        assert np.abs(decomp.Mtilde.imag).max() <= 1e-8 * max(1.0, np.abs(decomp.Mtilde).max())
