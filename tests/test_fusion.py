"""Fusion layer: local bank dynamics, least squares, and the l1 solver."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import securekf
from securekf import (
    assemble_canonical_measurement,
    build_decomposition,
    build_fusion_problem,
    empirical_equivalence_probability,
    fixed_gain_kalman_step,
    fusion_weights,
    initial_bank,
    load_model,
    local_estimator_step,
    psd_factor,
    real_canonical,
    residual_covariances,
    secure_fuse,
    spectral_design,
)
from securekf.decomposition import conjugate_pairing, realification_map
from securekf.fusion import LocalBankState
from securekf.model import SystemModel
from securekf.simulator import trial_generators

from helpers import sensor_blocks

EYE3 = scipy.linalg.cho_factor(np.eye(3))
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
    bank = initial_bank(pendulum_model)
    nxt = local_estimator_step(bank, np.zeros(4), np.zeros(1),
                               pendulum_decomposition, pendulum_model)
    assert nxt.k == 1
    for z in nxt.zeta:
        assert np.abs(z).max() == 0.0


def test_local_step_dimension_errors(pendulum_model, pendulum_decomposition):
    bank = initial_bank(pendulum_model)
    with pytest.raises(ValueError):
        local_estimator_step(bank, np.zeros(3), np.zeros(1),
                             pendulum_decomposition, pendulum_model)
    with pytest.raises(ValueError):
        local_estimator_step(bank, np.zeros(4), np.zeros(2),
                             pendulum_decomposition, pendulum_model)
    bad = LocalBankState(zeta=[np.zeros(3, complex)] * 4)
    with pytest.raises(ValueError):
        local_estimator_step(bad, np.zeros(4), np.zeros(1),
                             pendulum_decomposition, pendulum_model)


def test_local_step_tracks_state_noise_free(pendulum_model, pendulum_design,
                                            pendulum_decomposition):
    # bank started on the manifold zeta_i = G_i x stays there exactly
    m = pendulum_model
    dec = pendulum_decomposition
    x = np.array([0.2, -0.1, 0.3, 0.05])
    G = sensor_blocks(dec, 4)[0]
    bank = LocalBankState(zeta=[G[i] @ x for i in range(4)], k=0)
    K = m.feedback_gain()
    for _ in range(60):
        u = -(K @ x)
        x = m.A @ x + m.B @ u
        y = m.C @ x
        bank = local_estimator_step(bank, y, u, dec, m)
        scale = max(1.0, float(np.abs(x).max()))
        for i in range(4):
            assert np.abs(bank.zeta[i] - G[i] @ x).max() < 1e-8 * scale


def test_local_step_attack_impulse_decay(pendulum_model, pendulum_decomposition):
    # a one-step additive corruption enters as 1*delta and decays mode by mode
    m, dec = pendulum_model, pendulum_decomposition
    delta = 0.7
    bank = initial_bank(m)
    y = np.zeros(4)
    y[1] = delta
    bank = local_estimator_step(bank, y, np.zeros(1), dec, m)
    assert np.abs(bank.zeta[1] - delta).max() < 1e-12
    assert np.abs(bank.zeta[0]).max() == 0.0
    for t in range(1, 30):
        bank = local_estimator_step(bank, np.zeros(4), np.zeros(1), dec, m)
        assert np.abs(bank.zeta[1] - dec.Pi ** t * delta).max() < 1e-12
        assert np.abs(bank.zeta[3]).max() == 0.0
    rho = float(np.abs(dec.Pi).max())
    assert np.abs(bank.zeta[1]).max() <= rho ** 29 * delta * (1 + 1e-9)


def test_bank_conjugate_structure(pendulum_model, pendulum_design,
                                  pendulum_decomposition):
    m, dec = pendulum_model, pendulum_decomposition
    pair = conjugate_pairing(dec.Pi)
    x, g_w, g_v = rollout_setup(pendulum_model, pendulum_design, dec)
    Lq, Lr = psd_factor(m.Q), psd_factor(m.R)
    K = m.feedback_gain()
    bank = initial_bank(m)
    for _ in range(40):
        u = -(K @ x)
        x = m.A @ x + m.B @ u + Lq @ g_w.standard_normal(4)
        y = m.C @ x + Lr @ g_v.standard_normal(4)
        bank = local_estimator_step(bank, y, u, dec, m)
    for z in bank.zeta:
        assert np.abs(np.conj(z) - z[pair]).max() < 1e-10


def test_assemble_zero_and_single_sensor():
    model = unit_model()
    design = spectral_design(model)
    dec = build_decomposition(model, design)
    bank = initial_bank(model)
    assert np.abs(assemble_canonical_measurement(bank, dec)).max() == 0.0
    z = np.array([0.3 + 0j, -1.2 + 0j])
    bank = LocalBankState(zeta=[z], k=0)
    got = assemble_canonical_measurement(bank, dec)
    assert np.abs(got - sensor_blocks(dec, 2)[2][0] @ z).max() < 1e-14


def test_assemble_tracks_canonical_signal(pendulum_model, pendulum_decomposition):
    m, dec = pendulum_model, pendulum_decomposition
    x = np.array([0.1, 0.4, -0.2, 0.3])
    G = sensor_blocks(dec, 4)[0]
    bank = LocalBankState(zeta=[G[i] @ x for i in range(4)], k=0)
    K = m.feedback_gain()
    for _ in range(40):
        u = -(K @ x)
        x = m.A @ x + m.B @ u
        bank = local_estimator_step(bank, m.C @ x, u, dec, m)
        Y = assemble_canonical_measurement(bank, dec)
        assert np.abs(Y - dec.H_stack @ x).max() < 1e-8


def test_wls_hand_examples():
    H = np.array([[1.0], [1.0]])
    x, mu = build_fusion_problem(H, scipy.linalg.cho_factor(np.eye(2))
                                 ).least_squares(np.array([1.0, 3.0]))
    assert abs(x[0] - 2.0) < 1e-12
    assert np.abs(mu - np.array([-1.0, 1.0])).max() < 1e-12
    x, _ = build_fusion_problem(H, scipy.linalg.cho_factor(np.diag([1.0, 4.0]))
                                ).least_squares(np.array([1.0, 3.0]))
    assert abs(x[0] - 1.4) < 1e-12


def test_wls_unobservable_error():
    H = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="state unobservable in canonical coordinates"):
        build_fusion_problem(H, scipy.linalg.cho_factor(np.eye(2)))


def test_wls_matches_fixed_gain_filter(pendulum_model, pendulum_design,
                                       pendulum_decomposition):
    # the least-squares fusion of the bank replays the filter exactly
    m, d, dec = pendulum_model, pendulum_design, pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    F_row = fusion_weights(d)[1]
    x, g_w, g_v = rollout_setup(m, d, dec, seed=11)
    Lq, Lr = psd_factor(m.Q), psd_factor(m.R)
    K = m.feedback_gain()
    bank = initial_bank(m)
    xh = np.zeros(4)
    for _ in range(300):
        u = -(K @ x)
        x = m.A @ x + m.B @ u + Lq @ g_w.standard_normal(4)
        y = m.C @ x + Lr @ g_v.standard_normal(4)
        xh = fixed_gain_kalman_step(xh, y, u, d, m)
        bank = local_estimator_step(bank, y, u, dec, m)
        Y = assemble_canonical_measurement(bank, dec)
        x_ls, _ = problem.least_squares(Y)
        assert np.abs(x_ls - xh).max() < 1e-6
        # the fusion-weight reconstruction agrees as well
        xf = F_row @ np.concatenate(bank.zeta)
        assert np.abs(xf.imag).max() < 1e-8
        assert np.abs(xf.real - xh).max() < 1e-6


def test_secure_fuse_exact_data():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((6, 2))
    factor = scipy.linalg.cho_factor(np.eye(6))
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


def test_secure_fuse_real_and_complex_input_agree(pendulum_decomposition):
    # a complex Y is rejected; the same Y made real by real_canonical must
    # give the answer of the float Y, on a screened and an l1 step
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    Y = dec.H_stack @ np.array([0.3, -0.2, 0.1, 0.05])
    Y = Y + 1e-3 * np.sin(np.arange(Y.size))
    Y_hit = Y.copy()
    Y_hit[15] += 10.0
    for y, gamma, screened in ((Y, 1e6, True), (Y_hit, 5.0, False)):
        real = secure_fuse(problem, y, gamma)
        with pytest.raises(ValueError, match="real_canonical"):
            secure_fuse(problem, y + 0j, gamma)
        cplx = secure_fuse(problem, real_canonical(y + 0j), gamma)
        assert real.kalman_equivalent is cplx.kalman_equivalent is screened
        for f in ("x_tilde", "mu", "nu", "x_ls"):
            assert np.array_equal(getattr(real, f), getattr(cplx, f)), f
        assert (real.kkt_residual, real.iterations, real.converged) == \
            (cplx.kkt_residual, cplx.iterations, cplx.converged)
    dusty = Y + 1j * 1e-6 * np.abs(Y).max()
    with pytest.raises(ValueError, match="complex canonical measurement"):
        real_canonical(dusty)


def test_real_canonical_raises_under_optimized_python():
    # the check is a raise, not an assert, so python -O keeps it
    src = pathlib.Path(securekf.__file__).resolve().parent.parent
    code = ("import numpy as np\n"
            "from securekf import real_canonical\n"
            "real_canonical(np.array([1 + 0.5j, 2.0]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "ValueError: complex canonical measurement" in proc.stderr


def test_equivalence_condition_basics():
    assert PROB3.screen_statistic(np.zeros(3)) <= 1e-9
    assert PROB3.screen_statistic(np.zeros(3)) <= 1e6
    _, mu_ls = PROB3.least_squares(Y3)
    assert np.abs(scipy.linalg.cho_solve(EYE3, mu_ls)).max() == pytest.approx(20.0 / 3.0)
    assert not PROB3.screen_statistic(Y3) <= 1.0
    assert not PROB3.screen_statistic(Y3) <= 6.66
    assert PROB3.screen_statistic(Y3) <= 20.0 / 3.0 + 1e-12


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
        factor = scipy.linalg.cho_factor(M)
        problem = build_fusion_problem(H, factor)
        history = []
        res = secure_fuse(problem, Y, gamma, history=history)
        assert res.converged
        # the accept gate tolerates ascents up to the rounding floor of
        # the cancelled quadratic form
        mu_ls = Y - H @ res.x_ls
        d_ls = scipy.linalg.cho_solve(factor, mu_ls)
        floor = 1e-13 * max(1.0, np.linalg.norm(mu_ls) * np.linalg.norm(d_ls))
        diffs = np.diff(history)
        assert (diffs <= floor).all()
        f_ls = problem.objective(Y, res.x_ls, np.zeros(len(Y)), gamma)
        f_final = problem.objective(Y, res.x_tilde, res.nu, gamma)
        assert f_final <= f_ls + 1e-10 * max(1.0, abs(f_ls))


def test_secure_fuse_oracle_perturbations():
    # returned point beats 1000 random perturbations on 200 random instances
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m_sensors = int(rng.integers(1, 4))
        Y, H, M, gamma = random_instance(rng, n, m_sensors)
        mn = len(Y)
        problem = build_fusion_problem(H, scipy.linalg.cho_factor(M))
        res = secure_fuse(problem, Y, gamma)
        assert res.converged
        Minv = np.linalg.inv(M)
        f_star = problem.objective(Y, res.x_tilde, res.nu, gamma)

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
    res = secure_fuse(build_fusion_problem(H, scipy.linalg.cho_factor(M)), Y,
                      gamma)
    res_p = secure_fuse(build_fusion_problem(
        H[idx], scipy.linalg.cho_factor(M[np.ix_(idx, idx)])), Y[idx], gamma)
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
        res = secure_fuse(build_fusion_problem(H, scipy.linalg.cho_factor(M)),
                          Y, gamma)
        H_r = np.block([[H, np.zeros_like(H)], [np.zeros_like(H), H]])
        M_r = scipy.linalg.block_diag(M, M)
        Y_r = np.concatenate([Y, np.zeros(mn)])
        res_r = secure_fuse(build_fusion_problem(H_r, scipy.linalg.cho_factor(M_r)),
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
    bank = initial_bank(m)
    xh = np.zeros(4)
    hits, total = 0, 0
    for _ in range(400):
        u = -(K @ x)
        x = m.A @ x + m.B @ u + Lq @ g_w.standard_normal(4)
        y = m.C @ x + Lr @ g_v.standard_normal(4)
        xh = fixed_gain_kalman_step(xh, y, u, d, m)
        bank = local_estimator_step(bank, y, u, dec, m)
        if bank.k <= 50:
            continue
        Y = assemble_canonical_measurement(bank, dec)
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


def pendulum_wtilde(model, design, dec):
    """Wtilde, the stationary covariance of zeta - G x, recomputed."""
    G = sensor_blocks(dec, model.n)[0]
    return residual_covariances(model, design, G, dec.Ptilde)[1]


def test_raw_coordinate_formulation_agrees(pendulum_model, pendulum_design,
                                           pendulum_decomposition):
    # legacy check: the same solver on the unprojected bank, realified per
    # sensor by T (applied to zeta, G_stack and Wtilde, the stationary
    # covariance of zeta - G x), reproduces the canonical answer whenever
    # both collapse onto least squares.  The collapse thresholds differ
    # because the weightings differ: the unprojected residual statistic
    # runs about 50x larger on this design.
    m, d, dec = pendulum_model, pendulum_design, pendulum_decomposition
    T = scipy.linalg.block_diag(
        *[realification_map(conjugate_pairing(dec.Pi))] * m.m)
    Wtilde = pendulum_wtilde(m, d, dec)
    prob_raw = build_fusion_problem(
        T @ dec.G_stack, scipy.linalg.cho_factor(T @ Wtilde @ T.conj().T))
    prob_can = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    x, g_w, g_v = rollout_setup(m, d, dec, seed=5)
    Lq, Lr = psd_factor(m.Q), psd_factor(m.R)
    K = m.feedback_gain()
    bank = initial_bank(m)
    both, total = 0, 0
    for _ in range(150):
        u = -(K @ x)
        x = m.A @ x + m.B @ u + Lq @ g_w.standard_normal(4)
        y = m.C @ x + Lr @ g_v.standard_normal(4)
        bank = local_estimator_step(bank, y, u, dec, m)
        if bank.k <= 50:
            continue
        total += 1
        zeta = np.concatenate(bank.zeta)
        res_raw = secure_fuse(prob_raw, real_canonical(T @ zeta), 5000.0)
        res_can = secure_fuse(prob_can, assemble_canonical_measurement(bank, dec),
                              100.0)
        assert np.abs(res_raw.x_ls - res_can.x_ls).max() < 1e-8
        if res_raw.kalman_equivalent and res_can.kalman_equivalent:
            both += 1
            assert np.abs(res_raw.x_tilde - res_can.x_tilde).max() < 1e-6
    assert both >= 0.9 * total


def test_complex_problem_build_raises(pendulum_model, pendulum_design,
                                     pendulum_decomposition):
    # the unprojected bank keeps genuinely complex data, which the fusion
    # refuses until they are realified
    dec = pendulum_decomposition
    Wtilde = pendulum_wtilde(pendulum_model, pendulum_design, dec)
    with pytest.raises(ValueError, match="realification_map"):
        build_fusion_problem(dec.G_stack, scipy.linalg.cho_factor(Wtilde))


def test_psd_factor_paths():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    L = psd_factor(M)
    assert np.abs(L @ L.T - M).max() < 1e-12
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    L = psd_factor(singular)
    assert np.abs(L @ L.T - singular).max() < 1e-12
    with pytest.raises(ValueError, match="positive semidefinite"):
        psd_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))
