import dataclasses
import logging
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from securekf.decomposition import (
    CANONICAL_RTOL,
    SensorDecomposition,
    build_decomposition,
    canonical_projector,
    conjugate_pairing,
    factor_mtilde,
    local_gains,
    realification_map,
    residual_covariances,
)
from securekf.model import SystemModel, observability_matrix
from securekf.spectral import (EIG_SEPARATION, AssumptionError,
                               SpectralDesign, spectral_design)

from helpers import (characteristic_polynomial, complex_pair_design,
                     fusion_weights, local_gain_factored, mode_coordinates,
                     mode_covariances, random_jordan_model, sensor_blocks)


def dummy_design(A, Pi, K=None, m=1):
    n = A.shape[0]
    Pi = np.asarray(Pi, dtype=complex)
    return SpectralDesign(
        K=np.zeros((n, m)) if K is None else np.asarray(K, float),
        Pi=Pi)


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
        if np.abs(np.polyval(characteristic_polynomial(model.A)[::-1],
                             design.Pi)).min() < 1e-4:
            continue
        produced += 1
        yield model, design


# -------------------------------------------------------- per-mode gains

def test_scalar_gain_resolvent():
    model = SystemModel(A=np.array([[2.0]]), C=np.array([[1.0]]),
                        Q=np.eye(1), R=np.eye(1), Sigma=np.eye(1))
    design = dummy_design(model.A, [0.5])
    G = local_gains(model, design)[0]
    assert np.abs(G - 4.0 / 3.0).max() < 1e-12
    G_f = local_gain_factored(model, design, 0)
    assert np.abs(G_f - 4.0 / 3.0).max() < 1e-12


def test_stacked_gains_bit_equal_to_per_row_solves():
    # local_gains solves every sensor's rows in one stacked LAPACK call;
    # each row has the bits of its own np.linalg.solve of C_i A against
    # (A - pi_j I)^T, and a second call gives the same bits
    for model, design in observable_designs(150, start=1000):
        G = local_gains(model, design)
        n = model.n
        assert G.shape == (model.m, n, n)
        A = model.A.astype(complex)
        for i in range(model.m):
            cA = (model.C[i] @ model.A).astype(complex)
            for j, pi_j in enumerate(design.Pi):
                row = np.linalg.solve((A - pi_j * np.eye(n)).T, cA)
                assert G[i, j].tobytes() == row.tobytes()
            assert local_gains(model, design)[i].tobytes() == \
                G[i].tobytes()


def test_factored_gain_hand_expansion():
    # p(x) = x^2 - 3x + 2; quotient at pi = 0.5 is x - 2.5, p(0.5) = 0.75
    model = SystemModel(A=np.diag([1.0, 2.0]), C=np.array([[1.0, 1.0]]),
                        Q=np.eye(2), R=np.eye(1), Sigma=np.eye(2))
    design = dummy_design(model.A, [0.5, 0.25])
    G = local_gain_factored(model, design, 0)
    assert np.abs(G[0] - np.array([2.0, 4.0 / 3.0])).max() < 1e-12
    G_d = local_gains(model, design)[0]
    assert np.abs(G - G_d).max() < 1e-12


def test_gain_rejects_shared_eigenvalue():
    model = SystemModel(A=np.diag([1.0, 2.0]), C=np.array([[1.0, 1.0]]),
                        Q=np.eye(2), R=np.eye(1), Sigma=np.eye(2))
    design = dummy_design(model.A, [1.0, 0.25])
    message = ("^Assumption 1 violated: closed-loop eigenvalue 1\\+0j lies "
               "0.000e\\+00 from the spectrum of A")
    with pytest.raises(ValueError, match=message):
        local_gains(model, design)
    with pytest.raises(ValueError, match=message):
        local_gain_factored(model, design, 0)


def diagonal_family_model(seed, n, m):
    """A diagonal with real eigenvalues of modulus 0.2-1.2, dense Gaussian
    C, Q = R = 0.1 I and Sigma = I: a random family beyond the pendulum."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.2, 1.2, n) * rng.choice([-1.0, 1.0], n)
    return SystemModel(A=np.diag(lam), C=rng.standard_normal((m, n)),
                       Q=0.1 * np.eye(n), R=0.1 * np.eye(m), Sigma=np.eye(n))


def test_refusals_at_16_states_name_their_cause():
    # |p(pi)| = |det(pi I - A)| is a product of 16 distances to spec(A):
    # it falls below EIG_SEPARATION on most of these models although
    # every pi lies farther than that from spec(A), so a refusal must
    # come from the rank test, not from Assumption 1.  It names the
    # 1-based sensor and that sensor's sigma_min/sigma_max
    rank_refusal = re.compile(
        r"Theorem 2 precondition violated: sensor (\d+): nonzero columns "
        r"of G_i are rank deficient \(σ_min/σ_max = (\S+) <= "
        r"CANONICAL_RTOL = 1e-08\)")
    tiny = refused = 0
    for seed in range(10):
        model = diagonal_family_model(seed, 16, 8)
        design = spectral_design(model)
        gap = np.abs(design.Pi[:, None] - np.diag(model.A)[None, :]).min()
        assert gap > EIG_SEPARATION
        tiny += np.abs(np.polyval(characteristic_polynomial(model.A)[::-1],
                                  design.Pi)).min() < EIG_SEPARATION
        try:
            build_decomposition(model, design)
        except ValueError as exc:
            assert str(exc).startswith("Theorem 2 precondition violated"), exc
            assert isinstance(exc, AssumptionError)
            match = rank_refusal.fullmatch(str(exc))
            assert match, exc
            i = int(match[1]) - 1
            covered = model.structure.covered_states(i)
            T = realification_map(conjugate_pairing(design.Pi))
            sv = np.linalg.svd(
                (T @ local_gains(model, design)[i][:, covered]).real,
                compute_uv=False)
            assert float(match[2]) == float(f"{sv[-1] / sv[0]:.3e}")
            assert sv[-1] <= CANONICAL_RTOL * sv[0]
            refused += 1
    assert tiny >= 5
    assert refused == 10


def test_pendulum_angle_sensor_gain_columns(pendulum_model):
    design = spectral_design(pendulum_model)
    G4 = local_gains(pendulum_model, design)[3]
    scale = np.abs(G4).max()
    # the angle sensor cannot observe the cart chain
    assert np.abs(G4[:, 0]).max() < 1e-10 * scale
    assert np.abs(G4[:, 1]).max() < 1e-10 * scale
    assert np.abs(G4[:, 2]).max() > 1e-3 * scale


def test_pendulum_gain_identity(pendulum_model):
    design = spectral_design(pendulum_model)
    ones = np.ones((4, 1))
    for i in range(4):
        G = local_gains(pendulum_model, design)[i]
        lhs = G @ pendulum_model.A
        rhs = design.Pi[:, None] * G + ones @ (pendulum_model.C[i:i + 1] @ pendulum_model.A)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_pendulum_route_equivalence(pendulum_model):
    design = spectral_design(pendulum_model)
    for i in range(4):
        G_d = local_gains(pendulum_model, design)[i]
        G_f = local_gain_factored(pendulum_model, design, i)
        assert np.abs(G_d - G_f).max() <= 1e-7 * np.abs(G_d).max()


def test_route_equivalence_random_models():
    for model, design in observable_designs(50):
        for i in range(model.m):
            G_d = local_gains(model, design)[i]
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
    structure = pendulum_model.structure
    for i in range(4):
        G = local_gains(pendulum_model, design)[i]
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
    P, H = canonical_projector(G.astype(complex), [0, 1, 2], np.eye(3), 0)
    assert np.abs(H - np.eye(3)).max() == 0.0
    assert np.abs(P - np.linalg.inv(G)).max() < 1e-10


def test_projector_zero_gain_degenerates():
    P, H = canonical_projector(np.zeros((3, 3), dtype=complex), [],
                               np.eye(3), 0)
    assert np.abs(H).max() == 0.0
    assert np.abs(P - np.eye(3)).max() < 1e-12


def test_projector_rejects_inconsistent_support():
    G = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        # column 2 is nonzero yet unmarked
        canonical_projector(G, [0, 1], np.eye(3), 0)


def test_projector_rejects_dependent_columns():
    G = np.zeros((3, 3), dtype=complex)
    G[:, 0] = [1.0, 2.0, 3.0]
    G[:, 1] = [2.0, 4.0, 6.0]
    with pytest.raises(ValueError) as exc:
        canonical_projector(G, [0, 1], np.eye(3), 0)
    assert "Theorem 2 precondition violated" in str(exc.value)


def test_projector_pendulum_angle_sensor(pendulum_model):
    design = spectral_design(pendulum_model)
    structure = pendulum_model.structure
    T = realification_map(conjugate_pairing(design.Pi))
    G4 = local_gains(pendulum_model, design)[3]
    P4, H4 = canonical_projector(G4, structure.covered_states(3), T, 3)
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
    # C = K^-1 diag(0.8, 0.5) makes A - K C A = diag(0.1, 0.15), whose
    # eigenvectors, in ascending order, are the identity
    A = np.diag([0.5, 0.3])
    K = np.array([[0.7, 0.1], [0.2, 0.4]])
    model = SystemModel(A=A, C=np.linalg.solve(K, np.diag([0.8, 0.5])),
                        Q=np.eye(2), R=np.eye(2), Sigma=np.eye(2))
    design = dummy_design(A, [0.1, 0.15], K=K, m=2)
    F_list, F_row = fusion_weights(model, design)
    assert np.abs(F_list[0] - np.diag(K[:, 0])).max() < 1e-12
    assert np.abs(F_list[1] - np.diag(K[:, 1])).max() < 1e-12
    assert F_row.dtype.kind == "f"


def test_fusion_weights_pendulum_identities(pendulum_model):
    design = spectral_design(pendulum_model)
    F_list, F_row = fusion_weights(pendulum_model, design)
    A, C, K = pendulum_model.A, pendulum_model.C, design.K
    E = A - K @ C @ A
    ones = np.ones(4)
    Pi = np.diag(design.Pi)
    total = np.zeros((4, 4), dtype=complex)
    for i, F_i in enumerate(F_list):
        assert np.abs(F_i @ ones - K[:, i]).max() < 1e-10
        assert np.abs(F_i @ Pi - E @ F_i).max() < 1e-10
        G_i = local_gains(pendulum_model, design)[i]
        total += F_i @ (G_i - np.ones((4, 1)) @ C[i:i + 1])
    assert np.abs(total - (np.eye(4) - K @ C)).max() < 1e-9


def test_fusion_weights_recover_gain_on_random_models():
    for model, design in observable_designs(20):
        F_list, F_row = fusion_weights(model, design)
        decomp = build_decomposition(model, design)
        # G_stack is realified by T per sensor; F_row weighs mode coordinates
        Th = scipy.linalg.block_diag(
            *[mode_coordinates(model, design)[2].conj().T] * model.m)
        assert np.abs(F_row @ Th @ decomp.G_stack - np.eye(model.n)).max() \
            < 1e-7


# ----------------------------------------------------------- covariances

def test_scalar_stationary_covariance():
    model = SystemModel(A=np.array([[2.0]]), C=np.array([[1.0]]),
                        Q=np.array([[9.0]]), R=np.array([[0.0]]),
                        Sigma=np.eye(1))
    design = dummy_design(model.A, [0.5])
    G = local_gains(model, design)[0]   # 4/3, so G - c = 1/3
    Qt, Wt, Mt, delta = residual_covariances(
        model, design, [G], np.eye(1, dtype=complex))
    assert abs(Qt[0, 0] - 1.0) < 1e-12
    assert abs(Wt[0, 0] - 4.0 / 3.0) < 1e-12
    assert abs(Mt[0, 0] - 4.0 / 3.0) < 1e-12


def test_pendulum_covariances(pendulum_model):
    design = spectral_design(pendulum_model)
    decomp = build_decomposition(pendulum_model, design)
    mn = 16
    Qtilde, Wtilde, Mtilde, _ = mode_covariances(pendulum_model, design)
    # the decomposition keeps the factor of Mtilde's real part
    M_real = Mtilde.real
    assert np.array_equal(factor_mtilde(M_real, 0.0), decomp.Mtilde_factor)
    pi_t = np.tile(design.Pi, 4)
    Pit = np.diag(pi_t)
    residual = Wtilde - Pit @ Wtilde @ Pit.conj().T - Qtilde
    assert np.abs(residual).max() <= 1e-10

    for M in (Qtilde, Wtilde, M_real):
        assert np.abs(M - M.conj().T).max() < 1e-12
        trace = float(np.trace(M).real)
        assert np.linalg.eigvalsh(M).min() >= -1e-9 * trace

    # independent stationary solve for the same fixed point
    W_ref = scipy.linalg.solve_discrete_lyapunov(Pit, Qtilde)
    assert np.abs(Wtilde - W_ref).max() < 1e-8

    # conjugate-pair equivariant projectors keep Mtilde essentially real
    assert np.abs(Mtilde.imag).max() < 1e-10 * np.abs(Mtilde).max()
    assert decomp.ridge_delta == 0.0

    rhs = np.arange(mn, dtype=float)
    x = scipy.linalg.cho_solve((decomp.Mtilde_factor, True), rhs)
    # backward-stable solve: residual scales with ||Mtilde|| ||x||
    bound = 1e-13 * mn * max(1.0, np.abs(M_real).max()) \
        * max(1.0, np.abs(x).max())
    assert np.abs(M_real @ x - rhs).max() < bound


def test_ridge_engages_on_singular_covariance(caplog):
    # two perfectly correlated sensors with no process noise make the
    # stacked residual covariance exactly singular
    model = SystemModel(A=np.array([[0.6]]), C=np.array([[1.0], [1.0]]),
                        Q=np.array([[0.0]]), R=np.array([[1.0, 1.0], [1.0, 1.0]]),
                        Sigma=np.eye(1))
    design = dummy_design(model.A, [0.5], m=2)
    G = local_gains(model, design)[0]
    with caplog.at_level(logging.WARNING, logger="securekf.decomposition"):
        Qt, Wt, Mt, delta = residual_covariances(
            model, design, [G, G], np.eye(2, dtype=complex))
    assert np.abs(Wt - (4.0 / 3.0) * np.ones((2, 2))).max() < 1e-12
    assert delta > 0.0
    assert any("ridge" in rec.message for rec in caplog.records)
    # the ridge makes the singular covariance factorable, as
    # build_decomposition factors its real part
    factor = factor_mtilde(Mt.real, delta)
    rhs = np.ones(2, dtype=complex)
    x = scipy.linalg.cho_solve((factor, True), rhs)
    reg = Mt + delta * np.eye(2)
    assert np.abs(reg @ x - rhs).max() < 1e-6


@pytest.mark.parametrize("failures", [1, 4])
def test_failed_factorization_raises_the_ridge(failures, monkeypatch,
                                               caplog):
    # each failed factorization of the realified Mtilde retries with a
    # ridge of at least trace / (mn) / COND_LIMIT, ten times the last one
    # after that; four failures in a row are refused
    import securekf.decomposition as decomposition

    model = SystemModel(A=np.array([[2.0]]), C=np.array([[1.0]]),
                        Q=np.array([[9.0]]), R=np.array([[0.0]]),
                        Sigma=np.eye(1))
    design = dummy_design(model.A, [0.5])
    deltas, factor = [], decomposition.factor_mtilde

    def failing(Mtilde, delta):
        deltas.append(delta)
        if len(deltas) <= failures:
            raise np.linalg.LinAlgError("not positive definite")
        return factor(Mtilde, delta)

    monkeypatch.setattr(decomposition, "factor_mtilde", failing)
    with caplog.at_level(logging.WARNING, logger="securekf.decomposition"):
        if failures == 4:
            with pytest.raises(ValueError, match="^residual covariance "
                                                 "could not be factorized$"):
                build_decomposition(model, design)
        else:
            decomp = build_decomposition(model, design)
    # G = 4/3 and P = 3/4, so Mtilde = (3/4)^2 * 4/3
    Mt = 0.75
    ridge = Mt / decomposition.COND_LIMIT
    ridges = [0.0, ridge, 10 * ridge, 100 * ridge, 1000 * ridge]
    assert deltas == pytest.approx(ridges[:min(failures + 1, 4)], rel=1e-12)
    assert [r.message for r in caplog.records] == [
        f"factorization failed; raising ridge to {d:.3e}"
        for d in ridges[1:failures + 1]]
    if failures == 1:
        L, delta = decomp.Mtilde_factor, decomp.ridge_delta
        assert delta == deltas[-1]
        assert np.abs(L @ L.conj().T - Mt - delta).max() < 1e-12


# ------------------------------------------------------------- assembly

def test_build_decomposition_pendulum(pendulum_model):
    design = spectral_design(pendulum_model)
    decomp = build_decomposition(pendulum_model, design)
    structure = pendulum_model.structure
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
    assert fusion_weights(pendulum_model, design)[1].shape == (4, 16)


def test_build_decomposition_deterministic(pendulum_model):
    design = spectral_design(pendulum_model)
    a = build_decomposition(pendulum_model, design)
    b = build_decomposition(pendulum_model, design)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y), f.name
    assert np.array_equal(fusion_weights(pendulum_model, design)[1],
                          fusion_weights(pendulum_model, design)[1])


def test_build_decomposition_random_models():
    for model, design in observable_designs(30):
        decomp = build_decomposition(model, design)
        structure = model.structure
        G, H, P = sensor_blocks(decomp, model.n)
        assert np.array_equal(decomp.Ptilde, scipy.linalg.block_diag(*P))
        for i in range(model.m):
            assert np.abs(P[i] @ G[i] - H[i]).max() \
                < 1e-7 * max(1.0, np.abs(G[i]).max())
            covered = structure.covered_states(i)
            assert np.diag(H[i]).sum() == len(covered)
        # the residual covariance the decomposition factors, unfactored
        Mtilde = mode_covariances(model, design)[2]
        trace = float(np.trace(Mtilde.real))
        assert np.linalg.eigvalsh(Mtilde.real).min() >= -1e-9 * trace
        assert np.abs(Mtilde.imag).max() \
            <= 1e-8 * max(1.0, np.abs(Mtilde).max())


def assert_real_decomposition(model, design, decomp):
    """Every array real; P_i G_i = H_i in the realified coordinates; the
    bank's eigenvalues are the design's modes."""
    for f in dataclasses.fields(SensorDecomposition):
        value = getattr(decomp, f.name)
        if isinstance(value, np.ndarray):
            assert value.dtype == np.float64, f.name
    G, H, P = sensor_blocks(decomp, model.n)
    for i in range(model.m):
        assert np.abs(P[i] @ G[i] - H[i]).max() \
            <= CANONICAL_RTOL * max(1.0, np.abs(G[i]).max())
    modes = np.sort_complex(np.linalg.eigvals(decomp.bank))
    assert np.abs(modes - np.sort_complex(design.Pi)).max() <= 1e-12


def test_pendulum_decomposition_is_real(pendulum_model, pendulum_design,
                                        pendulum_decomposition):
    assert np.abs(pendulum_design.Pi.imag).max() > 0.0
    assert_real_decomposition(pendulum_model, pendulum_design,
                              pendulum_decomposition)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**4))
def test_decomposition_is_real_on_models_with_a_complex_pair(seed):
    assert_real_decomposition(*complex_pair_design(seed))
