import dataclasses

import numpy as np
import pytest

from securekf.model import SystemModel
from securekf.simulator import fixed_gain_kalman_step
from securekf.spectral import (
    RiccatiDivergenceError,
    closed_loop_eigendecomposition,
    spectral_design,
    steady_state_kalman,
)

from helpers import characteristic_polynomial, random_jordan_model


def eigenvectors(model, design):
    """The closed-loop eigenvectors V of a design, which it does not keep."""
    return closed_loop_eigendecomposition(model.A, design.K, model.C)[0]


def scalar_model(a, c, q, r, sigma):
    return SystemModel(A=np.array([[a]]), C=np.array([[c]]),
                       Q=np.array([[q]]), R=np.array([[r]]),
                       Sigma=np.array([[sigma]]))


# ------------------------------------------------------------- Riccati

def test_scalar_golden_ratio_fixed_point():
    # P_plus solves P_plus = P_plus/(P_plus+1) + 1, i.e. P_plus^2 - P_plus - 1 = 0
    model = scalar_model(1.0, 1.0, 1.0, 1.0, 1.0)
    P, P_plus, K, residual = steady_state_kalman(model)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    assert abs(P_plus[0, 0] - phi) < 1e-10
    assert abs(K[0, 0] - phi / (phi + 1.0)) < 1e-10
    assert abs(P[0, 0] - phi / (phi + 1.0)) < 1e-10
    assert residual <= 1e-12


def test_scalar_no_process_noise_collapses():
    model = scalar_model(0.5, 1.0, 0.0, 1.0, 1.0)
    P, P_plus, K, residual = steady_state_kalman(model)
    assert abs(P[0, 0]) < 1e-10
    assert abs(K[0, 0]) < 1e-10
    assert residual <= 1e-12


def test_pendulum_riccati_converges(pendulum_model):
    P, P_plus, K, residual = steady_state_kalman(pendulum_model)
    assert residual <= 1e-10
    A, C, Q, R = (pendulum_model.A, pendulum_model.C,
                  pendulum_model.Q, pendulum_model.R)
    assert np.abs(P_plus - (A @ P @ A.T + Q)).max() < 1e-14
    S = C @ P_plus @ C.T + R
    assert np.abs(K @ S - P_plus @ C.T).max() < 1e-14
    assert np.abs(P - P.T).max() == 0.0
    assert np.linalg.eigvalsh(P).min() > 0.0


def test_riccati_fixed_point_on_random_models():
    count = 0
    for seed in range(60):
        model = random_jordan_model(seed, ensure_observable=True)
        P, P_plus, K, residual = steady_state_kalman(model)
        # stopping rule bounds successive iterates; the re-measured gap
        # after recomputing K from the final P can sit a hair above it
        assert residual <= 2e-12
        assert np.linalg.eigvalsh(P).min() >= -1e-12
        E = model.A - K @ model.C @ model.A
        assert np.abs(np.linalg.eigvals(E)).max() < 1.0, f"seed {seed}"
        count += 1
    assert count == 60


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_riccati_gain_invariant_under_noise_scaling(pendulum_model, scale):
    # Q, R and Sigma scaled together leave K unchanged; the stop rule has
    # to follow the size of P instead of an absolute threshold
    _, _, K0, _ = steady_state_kalman(pendulum_model)
    scaled = dataclasses.replace(pendulum_model, Q=scale * pendulum_model.Q,
                                 R=scale * pendulum_model.R,
                                 Sigma=scale * pendulum_model.Sigma)
    _, _, K, _ = steady_state_kalman(scaled)
    assert np.abs(K - K0).max() <= 1e-9 * np.abs(K0).max()


def test_riccati_divergence_reports_residual():
    # unstable state seen by no sensor: covariance grows without bound
    model = SystemModel(A=np.diag([1.5, 0.5]), C=np.array([[0.0, 1.0]]),
                        Q=np.eye(2), R=np.eye(1), Sigma=np.eye(2))
    with pytest.raises(RiccatiDivergenceError) as exc:
        steady_state_kalman(model)
    assert exc.value.residual > 0.0


def test_riccati_stalled_in_rounding_noise_stops_at_its_least_step(
        monkeypatch):
    # a 4 x 1 model whose A has a triple eigenvalue of modulus 1.47: from
    # iteration ~100 the step sits at 1e-13 to 1e-10 of max|P_plus|, above
    # the RICCATI_NOISE_RTOL floor, so the recursion used to run all
    # RICCATI_MAX_ITER iterations (4.2 s) and raise
    import time

    import securekf.spectral as spectral

    model = random_jordan_model(1839689325, ensure_observable=True)
    start = time.perf_counter()
    P, P_plus, K, residual = steady_state_kalman(model)
    assert time.perf_counter() - start < 1.0
    scale = np.abs(P_plus).max()
    assert residual <= spectral.RICCATI_STALL_RTOL * scale
    assert residual > spectral.RICCATI_NOISE_RTOL * scale
    assert np.abs(P - P.T).max() == 0.0
    spectral_design(model)
    # without the stall rule the same recursion does not stop
    monkeypatch.setattr(spectral, "RICCATI_STALL", 10**9)
    monkeypatch.setattr(spectral, "RICCATI_MAX_ITER", 5000)
    with pytest.raises(RiccatiDivergenceError, match="did not converge"):
        steady_state_kalman(model)


@pytest.mark.parametrize("seed", [2429898066, 3823917490, 262138317,
                                  3673705259])
def test_riccati_stalled_above_the_bound_raises_at_once(seed):
    # these recursions set no new lowest step for RICCATI_STALL iterations
    # while their steps reach 5.6e-7 to 8.5e-2 of max|P_plus|: they raise
    # there, naming the stall, instead of running all RICCATI_MAX_ITER
    # iterations (2.2 s each)
    import time

    import securekf.spectral as spectral

    model = random_jordan_model(seed, ensure_observable=True)
    start = time.perf_counter()
    with pytest.raises(RiccatiDivergenceError, match="stalled") as exc:
        steady_state_kalman(model)
    assert time.perf_counter() - start < 1.0
    message = str(exc.value)
    iteration = int(message.split("iteration ")[1].split(":")[0])
    assert spectral.RICCATI_STALL < iteration < spectral.RICCATI_MAX_ITER
    spread = float(message.split("steps since reach ")[1].split(" ")[0])
    assert spread > spectral.RICCATI_STALL_RTOL
    assert exc.value.residual > 0.0


# ------------------------------------------- characteristic polynomial

def test_charpoly_scalar():
    coeffs = characteristic_polynomial(np.array([[2.0]]))
    assert np.allclose(coeffs, [-2.0, 1.0])


def test_charpoly_pendulum(pendulum_model):
    # (x-1)^2 (x-0.642) (x-1.557) expanded by hand
    coeffs = characteristic_polynomial(pendulum_model.A)
    expected = np.array([0.999594, -4.198188, 6.397594, -4.199, 1.0])
    assert np.abs(coeffs - expected).max() < 1e-12


def test_charpoly_constant_term_is_signed_determinant():
    for seed in range(100):
        model = random_jordan_model(seed)
        coeffs = characteristic_polynomial(model.A)
        n = model.n
        assert coeffs.shape == (n + 1,)
        assert coeffs[n] == 1.0
        det = np.linalg.det(model.A)
        assert abs(coeffs[0] - (-1) ** n * det) < 1e-9 * max(1.0, abs(det))


def test_charpoly_matches_determinant_evaluation():
    for seed in range(20):
        model = random_jordan_model(seed)
        coeffs = characteristic_polynomial(model.A)
        n = model.n
        for x in (-1.7, 0.3, 2.2):
            direct = np.linalg.det(x * np.eye(n) - model.A)
            via_poly = sum(c * x ** k for k, c in enumerate(coeffs))
            assert abs(direct - via_poly) < 1e-8 * max(1.0, abs(direct))


# --------------------------------------------------- eigendecomposition

def test_eigendecomposition_diagonal_case():
    # A - K C A = diag(0.35, 0.15): sorted ascending, columns permuted
    A = np.diag([0.7, 0.3])
    K = 0.5 * np.eye(2)
    C = np.eye(2)
    V, Pi = closed_loop_eigendecomposition(A, K, C)
    assert np.allclose(Pi, [0.15, 0.35])
    assert np.abs(np.abs(V) - np.eye(2)[:, ::-1]).max() < 1e-12
    # K = 0 leaves Pi equal to spec(A), which Assumption 1 excludes
    with pytest.raises(ValueError, match="Assumption 1 violated: "
                       "closed-loop eigenvalue 0.3"):
        closed_loop_eigendecomposition(A, np.zeros((2, 1)),
                                       np.array([[1.0, 1.0]]))


def test_eigendecomposition_shared_eigenvalue_flagged():
    A = np.array([[0.5]])
    C = np.array([[1.0]])
    with pytest.raises(ValueError) as exc:
        closed_loop_eigendecomposition(A, np.zeros((1, 1)), C)
    assert str(exc.value).startswith(
        "Assumption 1 violated: closed-loop eigenvalue 0.5 lies "
        "0.000e+00 from the spectrum of A")


def test_eigendecomposition_rejects_repeated_and_unstable_modes():
    # distinct eigenvalues of A, but K C A maps both onto 0.4
    A = np.diag([0.8, 0.5])
    with pytest.raises(ValueError, match="Assumption 1 violated: "
                       "closed-loop eigenvalues are not pairwise distinct"):
        closed_loop_eigendecomposition(A, np.diag([0.5, 0.2]), np.eye(2))
    # 1.5 (1 - (-0.5)) = 2.25 lies outside the unit circle
    with pytest.raises(ValueError, match="Assumption 1 violated: "
                       "closed-loop modes are not strictly stable"):
        closed_loop_eigendecomposition(np.array([[1.5]]), np.array([[-0.5]]),
                                       np.array([[1.0]]))


def test_eigendecomposition_pendulum(pendulum_model):
    design = spectral_design(pendulum_model)
    assert design.Pi.shape == (4,)
    assert np.abs(design.Pi).max() < 1.0
    sep = np.abs(design.Pi[:, None] - design.Pi[None, :])
    sep = sep + np.eye(4)
    assert sep.min() > 1e-6
    lam_A = np.linalg.eigvals(pendulum_model.A)
    assert np.abs(design.Pi[:, None] - lam_A[None, :]).min() > 1e-6
    E = pendulum_model.A - design.K @ pendulum_model.C @ pendulum_model.A
    V = eigenvectors(pendulum_model, design)
    assert np.abs(E @ V - V * design.Pi).max() < 1e-8


def test_eigendecomposition_deterministic_and_conjugate():
    for seed in range(40):
        model = random_jordan_model(seed, ensure_observable=True)
        design_a = spectral_design(model)
        design_b = spectral_design(model)
        V = eigenvectors(model, design_a)
        assert np.array_equal(V, eigenvectors(model, design_b))
        assert np.array_equal(design_a.Pi, design_b.Pi)

        Pi = design_a.Pi
        order = np.lexsort((Pi.imag, Pi.real))
        assert np.array_equal(order, np.arange(len(Pi)))
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0)

        j = 0
        while j < len(Pi):
            if abs(Pi[j].imag) > 0.0:
                # conjugate partner must be adjacent with exact symmetry
                assert Pi[j + 1] == np.conj(Pi[j])
                assert np.array_equal(V[:, j + 1], np.conj(V[:, j]))
                j += 2
            else:
                j += 1


def test_eigendecomposition_off_diagonal_small():
    for seed in range(20):
        model = random_jordan_model(seed, ensure_observable=True)
        design = spectral_design(model)
        E = model.A - design.K @ model.C @ model.A
        V = eigenvectors(model, design)
        D = np.linalg.solve(V, E @ V)
        off = D - np.diag(np.diag(D))
        assert np.abs(off).max() < 1e-8 * max(1.0, np.abs(D).max())


def test_eigendecomposition_rejects_defective():
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(ValueError) as exc:
        closed_loop_eigendecomposition(A, np.zeros((2, 1)), np.array([[1.0, 0.0]]))
    assert "not diagonalizable" in str(exc.value)


def test_spectral_design_rejects_unobservable():
    model = SystemModel(A=np.array([[1.0, 1.0], [0.0, 1.0]]),
                        C=np.array([[0.0, 1.0]]),
                        Q=np.eye(2), R=np.eye(1), Sigma=np.eye(2))
    with pytest.raises(ValueError):
        spectral_design(model)


# ------------------------------------------------------------ filtering

def test_fixed_gain_step_innovation_free(pendulum_model):
    design = spectral_design(pendulum_model)
    rng = np.random.default_rng(7)
    x_hat = rng.normal(size=4)
    u = rng.normal(size=1)
    predicted = pendulum_model.A @ x_hat + pendulum_model.input_matrix() @ u
    y = pendulum_model.C @ predicted
    x_next = fixed_gain_kalman_step(x_hat, y, u, design, pendulum_model)
    assert np.abs(x_next - predicted).max() < 1e-12


def test_fixed_gain_step_zero_gain_is_prediction(pendulum_model):
    design = spectral_design(pendulum_model)
    design = dataclasses.replace(design, K=np.zeros_like(design.K))
    rng = np.random.default_rng(8)
    x_hat = rng.normal(size=4)
    u = rng.normal(size=1)
    y = rng.normal(size=4)
    x_next = fixed_gain_kalman_step(x_hat, y, u, design, pendulum_model)
    expected = pendulum_model.A @ x_hat + pendulum_model.input_matrix() @ u
    assert np.abs(x_next - expected).max() < 1e-12


def test_fixed_gain_step_tracks_noise_free_rollout(pendulum_model):
    design = spectral_design(pendulum_model)
    K_lqr = pendulum_model.feedback_gain()
    B = pendulum_model.input_matrix()
    x = np.array([0.01, -0.02, 0.005, 0.001])
    x_hat = x.copy()
    for _ in range(50):
        u = -K_lqr @ x
        x = pendulum_model.A @ x + B @ u
        y = pendulum_model.C @ x
        x_hat = fixed_gain_kalman_step(x_hat, y, u, design, pendulum_model)
        assert np.abs(x_hat - x).max() < 1e-9


def test_fixed_gain_step_rejects_bad_shapes(pendulum_model):
    design = spectral_design(pendulum_model)
    with pytest.raises(ValueError, match="^state estimate has length 3, "
                                         "expected 4$"):
        fixed_gain_kalman_step(np.zeros(3), np.zeros(4), np.zeros(1),
                               design, pendulum_model)
    with pytest.raises(ValueError, match="^measurement has length 2, "
                                         "expected 4$"):
        fixed_gain_kalman_step(np.zeros(4), np.zeros(2), np.zeros(1),
                               design, pendulum_model)
    with pytest.raises(ValueError, match="^input has length 3, expected 1$"):
        fixed_gain_kalman_step(np.zeros(4), np.zeros(4), np.zeros(3),
                               design, pendulum_model)
