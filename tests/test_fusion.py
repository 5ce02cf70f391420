"""Fusion layer: local bank dynamics, least squares, and the l1 solver."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from securekf import (
    assemble_canonical_measurement,
    build_decomposition,
    build_fusion_problem,
    empirical_equivalence_probability,
    fixed_gain_kalman_step,
    load_model,
    local_estimator_step,
    psd_factor,
    secure_fuse,
    spectral_design,
)
from securekf.decomposition import factor_mtilde
from securekf.fusion import lasso_paths
from securekf.model import SystemModel
from securekf.simulator import (AttackSpec, _rollout, simulate,
                                trial_generators)

from helpers import (_reference_lasso_path, fusion_objective, fusion_weights,
                     mode_coordinates, mode_covariances, reference_secure_fuse,
                     sensor_blocks)

EYE3 = np.eye(3)   # the Cholesky factor of I
H3 = np.ones((3, 1))
Y3 = np.array([0.0, 0.0, 10.0])
PROB3 = build_fusion_problem(H3, EYE3)


def unit_model():
    # minimal observable single-sensor model for shape-level tests
    return SystemModel(
        A=np.diag([0.5, -0.3]),
        C=np.array([[1.0, 1.0]]),
        Q=0.01 * np.eye(2),
        R=np.array([[0.01]]),
        Sigma=0.01 * np.eye(2),
    )


def rollout_setup(pendulum_model, pendulum_design, pendulum_decomposition,
                  seed=7, x0=None):
    g_x0, g_w, g_v, _ = trial_generators(seed, 0)
    Ls = psd_factor(pendulum_model.Sigma)
    x = Ls @ g_x0.standard_normal(4) if x0 is None else np.asarray(x0, float)
    return x, g_w, g_v


def test_local_step_zero_stays_zero(pendulum_model, pendulum_decomposition):
    nxt = local_estimator_step(np.zeros((4, 4)), np.zeros(4), np.zeros(1),
                               pendulum_decomposition, pendulum_model)
    assert nxt.shape == (4, 4)
    assert np.abs(nxt).max() == 0.0


def test_local_step_dimension_errors(pendulum_model, pendulum_decomposition):
    zeta = np.zeros((4, 4))
    with pytest.raises(ValueError, match="^measurement has length 3, "
                                         "expected 4$"):
        local_estimator_step(zeta, np.zeros(3), np.zeros(1),
                             pendulum_decomposition, pendulum_model)
    with pytest.raises(ValueError, match="^input has length 2, expected 1$"):
        local_estimator_step(zeta, np.zeros(4), np.zeros(2),
                             pendulum_decomposition, pendulum_model)
    with pytest.raises(ValueError, match=r"^bank holds states of shape "
                                         r"\(4, 3\), expected \(4, 4\)$"):
        local_estimator_step(np.zeros((4, 3)), np.zeros(4), np.zeros(1),
                             pendulum_decomposition, pendulum_model)


def test_local_step_tracks_state_noise_free(pendulum_model, pendulum_design,
                                            pendulum_decomposition):
    # bank started on the manifold zeta_i = G_i x stays there exactly
    m = pendulum_model
    dec = pendulum_decomposition
    x = np.array([0.2, -0.1, 0.3, 0.05])
    G = sensor_blocks(dec, 4)[0]
    zeta = np.array([G[i] @ x for i in range(4)])
    K = m.feedback_gain()
    for _ in range(60):
        u = -(K @ x)
        x = m.A @ x + m.B @ u
        y = m.C @ x
        zeta = local_estimator_step(zeta, y, u, dec, m)
        scale = max(1.0, float(np.abs(x).max()))
        for i in range(4):
            assert np.abs(zeta[i] - G[i] @ x).max() < 1e-8 * scale


def test_local_step_attack_impulse_decay(pendulum_model, pendulum_design,
                                        pendulum_decomposition):
    # a one-step additive corruption enters as 1*delta and decays mode by
    # mode: T^H maps the real bank state back to mode coordinates
    m, dec, Pi = pendulum_model, pendulum_decomposition, pendulum_design.Pi
    Th = mode_coordinates(m, pendulum_design)[2].conj().T
    delta = 0.7
    y = np.zeros(4)
    y[1] = delta
    zeta = local_estimator_step(np.zeros((4, 4)), y, np.zeros(1), dec, m)
    assert np.abs(Th @ zeta[1] - delta).max() < 1e-12
    assert np.abs(zeta[0]).max() == 0.0
    for t in range(1, 30):
        zeta = local_estimator_step(zeta, np.zeros(4), np.zeros(1), dec, m)
        assert np.abs(Th @ zeta[1] - Pi ** t * delta).max() < 1e-12
        assert np.abs(zeta[3]).max() == 0.0
    rho = float(np.abs(Pi).max())
    assert np.abs(Th @ zeta[1]).max() <= rho ** 29 * delta * (1 + 1e-9)


def test_assemble_zero_and_single_sensor():
    model = unit_model()
    design = spectral_design(model)
    dec = build_decomposition(model, design)
    zero = np.zeros((1, 2))
    assert np.abs(assemble_canonical_measurement(zero, dec)).max() == 0.0
    z = np.array([0.3, -1.2])
    got = assemble_canonical_measurement(z[None], dec)
    assert np.abs(got - sensor_blocks(dec, 2)[2][0] @ z).max() < 1e-14


def test_assemble_tracks_canonical_signal(pendulum_model, pendulum_decomposition):
    m, dec = pendulum_model, pendulum_decomposition
    x = np.array([0.1, 0.4, -0.2, 0.3])
    G = sensor_blocks(dec, 4)[0]
    zeta = np.array([G[i] @ x for i in range(4)])
    K = m.feedback_gain()
    for _ in range(40):
        u = -(K @ x)
        x = m.A @ x + m.B @ u
        zeta = local_estimator_step(zeta, m.C @ x, u, dec, m)
        Y = assemble_canonical_measurement(zeta, dec)
        assert np.abs(Y - dec.H_stack @ x).max() < 1e-8


def test_wls_hand_examples():
    H = np.array([[1.0], [1.0]])
    x, mu = build_fusion_problem(H, np.linalg.cholesky(np.eye(2))
                                 ).least_squares(np.array([1.0, 3.0]))
    assert abs(x[0] - 2.0) < 1e-12
    assert np.abs(mu - np.array([-1.0, 1.0])).max() < 1e-12
    x, _ = build_fusion_problem(H, np.linalg.cholesky(np.diag([1.0, 4.0]))
                                ).least_squares(np.array([1.0, 3.0]))
    assert abs(x[0] - 1.4) < 1e-12


def test_wls_unobservable_error():
    H = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="state unobservable in canonical coordinates"):
        build_fusion_problem(H, np.linalg.cholesky(np.eye(2)))


def test_problem_reads_the_factor_from_the_triangle_lower_names():
    # factor_mtilde gives the lower factor L, zero above the diagonal, and
    # the Minv built from it is the one scipy's upper factor names
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 6))
    M = X @ X.T + 6.0 * np.eye(6)
    H = rng.standard_normal((6, 2))
    L = factor_mtilde(M, 0.0)
    assert np.array_equal(L, np.tril(L))
    Minv = build_fusion_problem(H, L).Minv
    upper = build_fusion_problem(H, scipy.linalg.cholesky(M).T).Minv
    assert np.abs(upper - Minv).max() <= 1e-14 * np.abs(Minv).max()


def test_minv_as_accurate_as_a_cholesky_solve(pendulum_model, pendulum_design,
                                              pendulum_decomposition):
    # Minv = L^-T L^-1 inverts the ridged covariance no worse than a
    # Cholesky solve against I does
    dec = pendulum_decomposition
    Mtilde = mode_covariances(pendulum_model, pendulum_design)[2].real
    M = Mtilde + dec.ridge_delta * np.eye(len(Mtilde))
    Minv = build_fusion_problem(dec.H_stack, dec.Mtilde_factor).Minv
    solved = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), np.eye(len(M)))
    eye = np.eye(len(M))
    assert (np.abs(Minv @ M - eye).max()
            <= 2.0 * np.abs(solved @ M - eye).max())


def test_block_walk_falls_back_to_least_squares_on_the_singular_row(
        monkeypatch):
    # S = [[1, 1, 0], [1, 1, 0], [0, 0, 2]]: the row d = (3, 1, 0) walks
    # coordinate 0 in with +1, then coordinate 1 with -1 (its own +1 root
    # is a tie), and S_AA = [[1, 1], [1, 1]] is singular: LAPACK stops at
    # a zero pivot and fills w with NaN.  In a block with two rows that
    # never meet that support, only it calls lstsq, which gives the
    # minimum-norm w, no warning escapes, and every row has the
    # reference walk's bits
    S = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    problem = dataclasses.replace(PROB3, S_pm=np.vstack((S, -S)), S=S)
    d = np.array([[0.0, 0.0, 3.0], [3.0, 1.0, 0.0], [2.5, 2.5, 0.0]])
    calls = []
    lstsq = np.linalg.lstsq

    def recording(a, b, rcond=None):
        calls.append((np.array(a), np.array(b)))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu, breakpoints = lasso_paths(problem, d, 0.1)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], np.ones((2, 2)))
    assert np.array_equal(calls[0][1], [1.0, -1.0])
    calls.clear()
    for row, row_nu, it in zip(d, nu, breakpoints.tolist()):
        want_nu, want_it = _reference_lasso_path(S, row, row, 0.1, None)
        assert (row_nu.tobytes(), it) == (want_nu.tobytes(), want_it)
    assert len(calls) == 1


def test_wls_matches_fixed_gain_filter(pendulum_model, pendulum_design,
                                       pendulum_decomposition):
    # the least-squares fusion of the bank replays the filter exactly
    m, d, dec = pendulum_model, pendulum_design, pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    # F_row weighs the bank in mode coordinates, T^H maps it there
    F_row = fusion_weights(m, d)[1] @ scipy.linalg.block_diag(
        *[mode_coordinates(m, d)[2].conj().T] * m.m)
    x, g_w, g_v = rollout_setup(m, d, dec, seed=11)
    Lq, Lr = psd_factor(m.Q), psd_factor(m.R)
    K = m.feedback_gain()
    zeta = np.zeros((4, 4))
    xh = np.zeros(4)
    for _ in range(300):
        u = -(K @ x)
        x = m.A @ x + m.B @ u + Lq @ g_w.standard_normal(4)
        y = m.C @ x + Lr @ g_v.standard_normal(4)
        xh = fixed_gain_kalman_step(xh, y, u, d, m)
        zeta = local_estimator_step(zeta, y, u, dec, m)
        Y = assemble_canonical_measurement(zeta, dec)
        x_ls, _ = problem.least_squares(Y)
        assert np.abs(x_ls - xh).max() < 1e-6
        # the fusion-weight reconstruction agrees as well
        xf = F_row @ zeta.reshape(-1)
        assert np.abs(xf.imag).max() < 1e-8
        assert np.abs(xf.real - xh).max() < 1e-6


def test_secure_fuse_exact_data():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((6, 2))
    factor = np.linalg.cholesky(np.eye(6))
    x0 = np.array([1.5, -0.5])
    Y = H @ x0
    problem = build_fusion_problem(H, factor)
    for gamma in (0.3, 1.0, 100.0):
        res = secure_fuse(problem, Y, gamma)
        assert res.kalman_equivalent
        assert res.iterations == 0
        assert np.abs(res.x_tilde - x0).max() < 1e-10
        assert np.abs(res.mu).max() < 1e-10
        assert np.abs(res.nu).max() == 0.0


def test_secure_fuse_hand_instance():
    res = secure_fuse(PROB3, Y3, 1.0)
    assert res.converged
    assert res.kkt_residual <= 1e-8
    assert abs(res.x_tilde[0] - 0.5) < 1e-6
    assert np.abs(res.nu - np.array([0.0, 0.0, 8.5])).max() < 1e-6
    assert np.abs(res.mu - np.array([-0.5, -0.5, 1.0])).max() < 1e-6
    assert not res.kalman_equivalent
    # the returned decomposition is exact by construction
    assert np.abs(Y3 - H3 @ res.x_tilde - res.mu - res.nu).max() < 1e-15


def test_secure_fuse_threshold_collapse():
    for gamma in (20.0 / 3.0, 8.0, 50.0):
        res = secure_fuse(PROB3, Y3, gamma)
        assert res.kalman_equivalent
        assert res.iterations == 0
        assert abs(res.x_tilde[0] - 10.0 / 3.0) < 1e-12
        assert np.abs(res.nu).max() == 0.0
        assert abs(res.x_ls[0] - 10.0 / 3.0) < 1e-12
    res = secure_fuse(PROB3, Y3, 6.6)
    assert not res.kalman_equivalent
    assert res.nu[2].real > 0.0
    assert res.x_tilde[0] < 10.0 / 3.0


def test_secure_fuse_gamma_zero_rejected():
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError, match="non-identifiable"):
            secure_fuse(PROB3, Y3, gamma)
        with pytest.raises(ValueError, match="non-identifiable"):
            empirical_equivalence_probability(None, None, None, gamma)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_non_finite_gamma_rejected(gamma, pendulum_model, pendulum_design,
                                   pendulum_decomposition):
    # nan passes a gamma <= 0 test and max(1, nan) is 1, so a nan gamma
    # would run with a finite tolerance; every entry point names the value
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    message = f"γ must be finite, got {gamma}"
    with pytest.raises(ValueError, match=message):
        secure_fuse(problem, dec.H_stack[:, 0].real + 10.0, gamma)
    with pytest.raises(ValueError, match=message):
        secure_fuse(PROB3, Y3, gamma)
    with pytest.raises(ValueError, match=message):
        simulate(pendulum_model, pendulum_design, dec, AttackSpec(), gamma,
                 horizon=10)
    with pytest.raises(ValueError, match=message):
        empirical_equivalence_probability(pendulum_model, pendulum_design,
                                          dec, gamma, trials=1, horizon=60)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_measurement_rejected(value, pendulum_model,
                                         pendulum_design,
                                         pendulum_decomposition):
    # a non-finite entry is never screened, even at a huge gamma, and
    # would walk the homotopy to the breakpoint cap; it raises instead
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    Y = _rollout(pendulum_model, pendulum_design, dec, problem, AttackSpec(),
                 1, 0, 0).Y[0]
    Y[5] = value
    message = rf"non-finite measurement Y\[5\] = {value}"
    for gamma in (5.0, 1e300):
        # the least-squares products on an infinite entry warn first
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match=message):
            secure_fuse(problem, Y, gamma)


def test_overflowing_measurement_rejected(pendulum_model, pendulum_design,
                                          pendulum_decomposition):
    # a finite Y whose least-squares products overflow once walked all
    # MAX_BREAKPOINTS to x_tilde = NaN; it raises, naming the overflow
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    Y = _rollout(pendulum_model, pendulum_design, dec, problem, AttackSpec(),
                 5, 0, 0).Y[4] * 1e306
    assert np.isfinite(Y).all()
    for gamma in (5.0, 1e300):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="least-squares products "
                                                "overflow"):
            secure_fuse(problem, Y, gamma)


def test_secure_fuse_real_and_complex_input_agree(pendulum_decomposition):
    # a complex Y is rejected; its real part must give the answer of the
    # float Y, on a screened and an l1 step
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    Y = dec.H_stack @ np.array([0.3, -0.2, 0.1, 0.05])
    Y = Y + 1e-3 * np.sin(np.arange(Y.size))
    Y_hit = Y.copy()
    Y_hit[15] += 10.0
    for y, gamma, screened in ((Y, 1e6, True), (Y_hit, 5.0, False)):
        real = secure_fuse(problem, y, gamma)
        with pytest.raises(ValueError, match="real measurement, got a "
                                             "complex one"):
            secure_fuse(problem, y + 0j, gamma)
        cplx = secure_fuse(problem, (y + 0j).real, gamma)
        assert real.kalman_equivalent is cplx.kalman_equivalent is screened
        for f in ("x_tilde", "mu", "nu", "x_ls"):
            assert np.array_equal(getattr(real, f), getattr(cplx, f)), f
        assert (real.kkt_residual, real.iterations, real.converged) == \
            (cplx.kkt_residual, cplx.iterations, cplx.converged)


def test_equivalence_condition_basics():
    zero, statistic = PROB3.split(np.vstack((np.zeros(3), Y3))).statistic
    assert zero <= 1e-9
    assert zero <= 1e6
    _, mu_ls = PROB3.least_squares(Y3)
    assert np.abs(scipy.linalg.cho_solve((EYE3, True), mu_ls)).max() == pytest.approx(20.0 / 3.0)
    assert not statistic <= 1.0
    assert not statistic <= 6.66
    assert statistic <= 20.0 / 3.0 + 1e-12


def random_instance(rng, n, m_sensors):
    mn = m_sensors * n
    H = rng.standard_normal((mn, n))
    A = rng.standard_normal((mn, mn))
    M = A @ A.T / mn + 0.5 * np.eye(mn)
    x_true = rng.standard_normal(n)
    Y = H @ x_true + 0.3 * rng.standard_normal(mn)
    if rng.random() < 0.5:
        Y[rng.integers(mn)] += rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 6.0)
    gamma = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    return Y, H, M, gamma


def test_secure_fuse_objective_monotone_and_bounded():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m_sensors = int(rng.integers(1, 4))
        Y, H, M, gamma = random_instance(rng, n, m_sensors)
        factor = np.linalg.cholesky(M)
        problem = build_fusion_problem(H, factor)
        history = []
        res = secure_fuse(problem, Y, gamma)
        assert res.converged
        # the reference walks the same path, to the same bits, and records
        # the objective at nu = 0, at every breakpoint and at the answer
        ref = reference_secure_fuse(problem, Y, gamma, history=history)
        assert ref.nu.tobytes() == res.nu.tobytes()
        # the accept gate tolerates ascents up to the rounding floor of
        # the cancelled quadratic form
        mu_ls = Y - H @ res.x_ls
        d_ls = scipy.linalg.cho_solve((factor, True), mu_ls)
        floor = 1e-13 * max(1.0, np.linalg.norm(mu_ls) * np.linalg.norm(d_ls))
        diffs = np.diff(history)
        assert (diffs <= floor).all()
        f_ls = fusion_objective(problem, Y, res.x_ls, np.zeros(len(Y)), gamma)
        f_final = fusion_objective(problem, Y, res.x_tilde, res.nu, gamma)
        assert f_final <= f_ls + 1e-10 * max(1.0, abs(f_ls))


def test_secure_fuse_oracle_perturbations():
    # returned point beats 1000 random perturbations on 200 random instances
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m_sensors = int(rng.integers(1, 4))
        Y, H, M, gamma = random_instance(rng, n, m_sensors)
        mn = len(Y)
        problem = build_fusion_problem(H, np.linalg.cholesky(M))
        res = secure_fuse(problem, Y, gamma)
        assert res.converged
        Minv = np.linalg.inv(M)
        f_star = fusion_objective(problem, Y, res.x_tilde, res.nu, gamma)

        d = rng.standard_normal((1000, n + mn)) + 1j * rng.standard_normal((1000, n + mn))
        d *= 1e-3 / np.linalg.norm(d, axis=1)[:, None]
        X = res.x_tilde[None, :] + d[:, :n]
        NU = res.nu[None, :] + d[:, n:]
        R = Y[None, :] - X @ H.T - NU
        quad = 0.5 * np.einsum("ij,jk,ik->i", R.conj(), Minv, R).real
        f_pert = quad + gamma * np.abs(NU).sum(axis=1)
        assert f_star <= f_pert.min() + 1e-9 * max(1.0, f_star)


def test_secure_fuse_permutation_equivariance():
    rng = np.random.default_rng(5)
    n, m_sensors = 2, 3
    Y, H, M, _ = random_instance(rng, n, m_sensors)
    Y[3] += 6.0
    gamma = 0.4
    sigma = [2, 0, 1]
    idx = np.concatenate([np.arange(s * n, s * n + n) for s in sigma])
    res = secure_fuse(build_fusion_problem(H, np.linalg.cholesky(M)), Y,
                      gamma)
    res_p = secure_fuse(build_fusion_problem(
        H[idx], np.linalg.cholesky(M[np.ix_(idx, idx)])), Y[idx], gamma)
    assert not res.kalman_equivalent
    assert np.abs(res_p.x_tilde - res.x_tilde).max() < 1e-6
    assert np.abs(res_p.nu - res.nu[idx]).max() < 1e-6
    assert np.abs(res_p.mu - res.mu[idx]).max() < 1e-6


def test_secure_fuse_realified_formulation_agrees():
    # stacking real and imaginary parts with l1 on both must agree on
    # real-valued data
    rng = np.random.default_rng(9)
    for _ in range(5):
        Y, H, M, gamma = random_instance(rng, 2, 2)
        mn = len(Y)
        res = secure_fuse(build_fusion_problem(H, np.linalg.cholesky(M)),
                          Y, gamma)
        H_r = np.block([[H, np.zeros_like(H)], [np.zeros_like(H), H]])
        M_r = scipy.linalg.block_diag(M, M)
        Y_r = np.concatenate([Y, np.zeros(mn)])
        res_r = secure_fuse(build_fusion_problem(H_r, np.linalg.cholesky(M_r)),
                            Y_r, gamma)
        assert np.abs(res_r.x_tilde[:2] - res.x_tilde).max() < 1e-6
        assert np.abs(res_r.x_tilde[2:]).max() < 1e-6
        assert np.abs(res_r.nu[:mn] - res.nu).max() < 1e-6
        assert np.abs(res_r.nu[mn:]).max() < 1e-6


def test_secure_fuse_equivalence_rate_on_pendulum(pendulum_model, pendulum_design,
                                                  pendulum_decomposition):
    # gamma = 100 attack-free: the threshold condition holds at most steps
    # and the secure estimate equals the filter there
    m, d, dec = pendulum_model, pendulum_design, pendulum_decomposition
    prob = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    x, g_w, g_v = rollout_setup(m, d, dec, seed=2)
    Lq, Lr = psd_factor(m.Q), psd_factor(m.R)
    K = m.feedback_gain()
    zeta = np.zeros((4, 4))
    xh = np.zeros(4)
    hits, total = 0, 0
    for k in range(1, 401):
        u = -(K @ x)
        x = m.A @ x + m.B @ u + Lq @ g_w.standard_normal(4)
        y = m.C @ x + Lr @ g_v.standard_normal(4)
        xh = fixed_gain_kalman_step(xh, y, u, d, m)
        zeta = local_estimator_step(zeta, y, u, dec, m)
        if k <= 50:
            continue
        Y = assemble_canonical_measurement(zeta, dec)
        res = secure_fuse(prob, Y, 100.0)
        total += 1
        if res.kalman_equivalent:
            hits += 1
            assert np.abs(res.x_tilde - res.x_ls).max() <= 10 * 1e-8
            assert np.abs(res.nu).max() == 0.0
            assert np.abs(res.x_tilde - xh).max() < 1e-6
    assert hits / total >= 0.95


def test_empirical_equivalence_probability(pendulum_model, pendulum_design,
                                           pendulum_decomposition):
    args = (pendulum_model, pendulum_design, pendulum_decomposition)
    p_hi, se_hi = empirical_equivalence_probability(*args, 1e6, trials=2,
                                                    horizon=120, seed=0)
    assert p_hi == 1.0
    assert se_hi == 0.0
    p2, _ = empirical_equivalence_probability(*args, 2.0, trials=4,
                                              horizon=200, seed=0)
    p50, _ = empirical_equivalence_probability(*args, 50.0, trials=4,
                                               horizon=200, seed=0)
    p100, se100 = empirical_equivalence_probability(*args, 100.0, trials=4,
                                                    horizon=200, seed=0)
    assert 0.0 <= p2 <= p50 <= p100 <= 1.0
    assert p50 > p2
    assert p100 >= 0.9
    assert se100 >= 0.0
    with pytest.raises(ValueError, match="burn-in"):
        empirical_equivalence_probability(*args, 2.0, trials=1, horizon=10)


def test_empirical_equivalence_probability_rejects_other_design(
        pendulum_model, pendulum_design, pendulum_decomposition):
    other = dataclasses.replace(pendulum_design, Pi=0.5 * pendulum_design.Pi)
    with pytest.raises(ValueError, match="different design"):
        empirical_equivalence_probability(
            pendulum_model, other, pendulum_decomposition, 2.0, trials=1)


def pendulum_wtilde(model, design):
    """Wtilde, the stationary covariance of zeta - G x in complex mode
    coordinates, recomputed."""
    return mode_covariances(model, design)[1]


def test_raw_coordinate_formulation_agrees(pendulum_model, pendulum_design,
                                           pendulum_decomposition):
    # legacy check: the same solver on the unprojected bank, in the real
    # coordinates of the decomposition (zeta and G_stack, with Wtilde, the
    # stationary covariance of zeta - G x, realified per sensor by T),
    # reproduces the canonical answer whenever both collapse onto least
    # squares.  The collapse thresholds differ because the weightings
    # differ: the unprojected residual statistic runs about 50x larger on
    # this design.
    m, d, dec = pendulum_model, pendulum_design, pendulum_decomposition
    T = scipy.linalg.block_diag(*[mode_coordinates(m, d)[2]] * m.m)
    W_real = T @ pendulum_wtilde(m, d) @ T.conj().T
    assert np.abs(W_real.imag).max() < 1e-12 * np.abs(W_real).max()
    prob_raw = build_fusion_problem(
        dec.G_stack, np.linalg.cholesky(W_real.real))
    prob_can = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    x, g_w, g_v = rollout_setup(m, d, dec, seed=5)
    Lq, Lr = psd_factor(m.Q), psd_factor(m.R)
    K = m.feedback_gain()
    zeta = np.zeros((4, 4))
    both, total = 0, 0
    for k in range(1, 151):
        u = -(K @ x)
        x = m.A @ x + m.B @ u + Lq @ g_w.standard_normal(4)
        y = m.C @ x + Lr @ g_v.standard_normal(4)
        zeta = local_estimator_step(zeta, y, u, dec, m)
        if k <= 50:
            continue
        total += 1
        res_raw = secure_fuse(prob_raw, zeta.reshape(-1), 5000.0)
        res_can = secure_fuse(prob_can, assemble_canonical_measurement(zeta, dec),
                              100.0)
        assert np.abs(res_raw.x_ls - res_can.x_ls).max() < 1e-8
        if res_raw.kalman_equivalent and res_can.kalman_equivalent:
            both += 1
            assert np.abs(res_raw.x_tilde - res_can.x_tilde).max() < 1e-6
    assert both >= 0.9 * total


def test_complex_problem_build_raises(pendulum_model, pendulum_design,
                                     pendulum_decomposition):
    # the unprojected bank in mode coordinates keeps genuinely complex
    # data, which the fusion refuses until they are realified
    G = np.vstack(mode_coordinates(pendulum_model, pendulum_design)[0])
    Wtilde = pendulum_wtilde(pendulum_model, pendulum_design)
    for H, W in ((G, Wtilde), (pendulum_decomposition.G_stack, Wtilde),
                 (G, Wtilde.real)):
        with pytest.raises(ValueError, match="realification_map"):
            build_fusion_problem(H, np.linalg.cholesky(W))


def test_psd_factor_paths():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    L = psd_factor(M)
    assert np.abs(L @ L.T - M).max() < 1e-12
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    L = psd_factor(singular)
    assert np.abs(L @ L.T - singular).max() < 1e-12
    with pytest.raises(ValueError, match="positive semidefinite"):
        psd_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))
