"""Property tests of the l1 fusion against two references.

The independent reference minimizes the same objective with L-BFGS-B over
(x, p, q), nu = p - q with p, q >= 0, so it shares no code with the
homotopy.  The bit-for-bit reference is the homotopy solve as first
written (helpers.reference_secure_fuse): secure_fuse must return exactly
its bits.  Instances are drawn from a hypothesis-chosen seed and shape, so
every failing example replays from its seed.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from securekf import (build_decomposition, build_fusion_problem, fusion,
                      secure_fuse, spectral_design)
from securekf.fusion import FusionProblem, FusionResult
from securekf.simulator import AttackSpec, _rollout
from securekf.spectral import RiccatiDivergenceError

import helpers
from helpers import (_reference_lasso_path, fusion_objective,
                     random_jordan_model, reference_secure_fuse)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
PENDULUM_H = np.vstack([np.eye(4), np.eye(4), np.eye(4),
                        np.diag([0.0, 0.0, 1.0, 1.0])])


def kkt_residual(Y, H, Minv, x, nu, gamma):
    s = Minv @ (Y - H @ x - nu)
    dev = np.where(nu != 0.0, np.abs(s - gamma * np.sign(nu)),
                   np.maximum(0.0, np.abs(s) - gamma))
    return max(float(np.abs(H.T @ s).max()), float(dev.max()))


def reference(Y, H, Minv, gamma):
    """L-BFGS-B on (x, p, q); returns (x, nu, objective)."""
    mn, n = H.shape

    def f(z):
        x, p, q = z[:n], z[n:n + mn], z[n + mn:]
        r = Y - H @ x - p + q
        s = Minv @ r
        val = 0.5 * r @ s + gamma * (p.sum() + q.sum())
        return val, np.concatenate([-H.T @ s, gamma - s, gamma + s])

    z0 = np.concatenate([np.linalg.lstsq(H, Y, rcond=None)[0],
                         np.zeros(2 * mn)])
    bounds = [(None, None)] * n + [(0.0, None)] * (2 * mn)
    res = scipy.optimize.minimize(
        f, z0, jac=True, method="L-BFGS-B", bounds=bounds,
        options=dict(maxiter=20000, maxfun=40000, ftol=1e-16, gtol=1e-12))
    x, nu = res.x[:n], res.x[n:n + mn] - res.x[n + mn:]
    return x, nu, float(res.fun)


def draw_instance(seed, n, m_sensors, pattern="gaussian"):
    """H, a random SPD residual covariance, and a measurement with sparse
    large outliers.  H is Gaussian, the pendulum's, or a coverage pattern:
    stacked identities with random zero rows, each sensor seeing a subset
    of the modes, as canonical coordinates do."""
    rng = np.random.default_rng(seed)
    if pattern == "pendulum":
        H = PENDULUM_H.copy()
    elif pattern == "coverage":
        seen = rng.random((m_sensors * n, 1)) < 0.6
        H = np.vstack([np.eye(n)] * m_sensors) * seen
    else:
        H = rng.standard_normal((m_sensors * n, n))
    mn = H.shape[0]
    A = rng.standard_normal((mn, mn))
    M = A @ A.T / mn + 0.3 * np.eye(mn)
    Y = H @ rng.standard_normal(H.shape[1]) + 0.5 * rng.standard_normal(mn)
    hit = rng.random(mn) < 0.25
    Y[hit] += (rng.choice([-1.0, 1.0], hit.sum())
               * rng.uniform(2.0, 20.0, hit.sum()))
    gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    return Y, H, M, gamma


def check_against_reference(Y, H, M, gamma):
    problem = build_fusion_problem(H, np.linalg.cholesky(M))
    Minv = np.linalg.inv(M)
    res = secure_fuse(problem, Y, gamma)
    tol = 1e-8 * max(1.0, gamma)
    if res.kalman_equivalent:
        assert np.abs(Minv @ (Y - H @ res.x_ls)).max() <= gamma
    else:
        assert res.converged
    assert kkt_residual(Y, H, Minv, res.x_tilde, res.nu, gamma) <= tol
    x_ref, nu_ref, f_ref = reference(Y, H, Minv, gamma)
    f = fusion_objective(problem, Y, res.x_tilde, res.nu, gamma)
    # the exact solver must never lose to the first-order reference
    assert f <= f_ref + 1e-9 * max(1.0, abs(f_ref))
    return res, x_ref


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       m_sensors=st.integers(2, 4))
def test_gaussian_instances_match_reference(seed, n, m_sensors):
    Y, H, M, gamma = draw_instance(seed, n, m_sensors)
    res, x_ref = check_against_reference(Y, H, M, gamma)
    # a Gaussian H makes the minimizer unique, so the states agree too
    scale = max(1.0, float(np.abs(x_ref).max()))
    assert np.abs(res.x_tilde - x_ref).max() <= 1e-6 * scale


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_pendulum_pattern_matches_reference(seed):
    # H = [I; I; I; diag(0, 0, 1, 1)] has flat directions (S H e_k = 0),
    # so only the objective and the optimality conditions are compared
    Y, H, M, gamma = draw_instance(seed, 4, 4, pattern="pendulum")
    check_against_reference(Y, H, M, gamma)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       m_sensors=st.integers(3, 7))
@example(seed=61, n=3, m_sensors=7)
@example(seed=99, n=2, m_sensors=3)
@example(seed=210, n=4, m_sensors=7)
def test_coverage_pattern_matches_reference(seed, n, m_sensors):
    # a coordinate that would complete a flat direction moves with the
    # bound and must not join; the examples cycled to the breakpoint cap
    # or stopped short of the optimum when it did
    Y, H, M, gamma = draw_instance(seed, n, m_sensors, pattern="coverage")
    assume(np.linalg.matrix_rank(H) == n)
    check_against_reference(Y, H, M, gamma)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       m_sensors=st.integers(2, 4), log_c=st.floats(-3.0, 3.0))
def test_scaling_equivariance(seed, n, m_sensors, log_c):
    # (Y, M, gamma) -> (c Y, c^2 M, gamma / c) scales the estimate by c
    Y, H, M, gamma = draw_instance(seed, n, m_sensors)
    c = 10.0 ** log_c
    res = secure_fuse(build_fusion_problem(H, np.linalg.cholesky(M)), Y,
                      gamma)
    scaled = secure_fuse(
        build_fusion_problem(H, np.linalg.cholesky(c * c * M)), c * Y,
        gamma / c)
    assert scaled.kalman_equivalent == res.kalman_equivalent
    assert scaled.converged
    for got, want in ((scaled.x_tilde, res.x_tilde), (scaled.nu, res.nu)):
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got / c - want).max() <= 1e-7 * scale


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       m_sensors=st.integers(2, 4))
def test_translation_equivariance_far_from_origin(seed, n, m_sensors):
    # Y -> Y + H x0 moves the estimate by x0 and leaves nu alone; with
    # |x0| ~ 1e6 the measurement is large next to its residual, and the
    # answer must still meet the absolute KKT tolerance
    Y, H, M, gamma = draw_instance(seed, n, m_sensors)
    x0 = 1e6 * np.random.default_rng(seed).standard_normal(n)
    problem = build_fusion_problem(H, np.linalg.cholesky(M))
    res = secure_fuse(problem, Y, gamma)
    moved = secure_fuse(problem, Y + H @ x0, gamma)
    assert moved.converged
    assert np.abs(moved.x_tilde - x0 - res.x_tilde).max() <= 1e-6
    scale = max(1.0, float(np.abs(res.nu).max()))
    assert np.abs(moved.nu - res.nu).max() <= 1e-6 * scale


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       m_sensors=st.integers(2, 4),
       pattern=st.sampled_from(["gaussian", "pendulum"]), data=st.data())
def test_sensor_permutation_equivariance(seed, n, m_sensors, pattern, data):
    # relabelling the sensors permutes mu and nu and leaves the optimal
    # objective alone; x_tilde is compared only where it is unique
    Y, H, M, gamma = draw_instance(seed, n, m_sensors, pattern)
    n = H.shape[1]
    sigma = data.draw(st.permutations(range(H.shape[0] // n)))
    idx = np.concatenate([np.arange(s * n, s * n + n) for s in sigma])
    Minv = np.linalg.inv(M)
    problem = build_fusion_problem(H, np.linalg.cholesky(M))
    permuted = build_fusion_problem(
        H[idx], np.linalg.cholesky(M[np.ix_(idx, idx)]))
    res = secure_fuse(problem, Y, gamma)
    res_p = secure_fuse(permuted, Y[idx], gamma)
    tol = 1e-8 * max(1.0, gamma)
    assert kkt_residual(Y, H, Minv, res.x_tilde, res.nu, gamma) <= tol
    assert kkt_residual(Y[idx], H[idx], Minv[np.ix_(idx, idx)],
                        res_p.x_tilde, res_p.nu, gamma) <= tol
    f = fusion_objective(problem, Y, res.x_tilde, res.nu, gamma)
    f_p = fusion_objective(permuted, Y[idx], res_p.x_tilde, res_p.nu, gamma)
    assert abs(f_p - f) <= 1e-9 * max(1.0, abs(f))
    assert res_p.kalman_equivalent == res.kalman_equivalent
    if pattern == "gaussian":
        for got, want in ((res_p.x_tilde, res.x_tilde), (res_p.nu, res.nu[idx]),
                          (res_p.mu, res.mu[idx])):
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-6 * scale


def assert_bit_equal(problem, Y, gamma, split=None):
    got = secure_fuse(problem, Y, gamma, split=split)
    want = reference_secure_fuse(problem, Y, gamma)
    for field in FusionResult._fields:
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is type(b), field
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field
        else:
            assert a == b, field
    return got


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       m_sensors=st.integers(2, 5), coverage=st.booleans(),
       diagonal=st.booleans(),
       log_gamma=st.floats(float(np.log(0.005)), float(np.log(20.0))))
def test_secure_fuse_bit_equal_to_reference(seed, n, m_sensors, coverage,
                                            diagonal, log_gamma):
    # Gaussian H, or stacked identities with random zero rows (flat
    # directions: the TIE_RATE roots); a dense SPD Mtilde or a diagonal
    # one spread over 1e-4 .. 1e2; spikes of 1 to 1e6 on about a quarter
    # of the coordinates
    rng = np.random.default_rng(seed)
    if coverage:
        H = np.vstack([np.eye(n)] * m_sensors) * (
            rng.random((m_sensors * n, 1)) < 0.6)
        assume(np.linalg.matrix_rank(H) == n)
    else:
        H = rng.standard_normal((m_sensors * n, n))
    mn = H.shape[0]
    if diagonal:
        M = np.diag(10.0 ** rng.uniform(-4.0, 2.0, mn))
    else:
        A = rng.standard_normal((mn, mn))
        M = A @ A.T / mn + 0.3 * np.eye(mn)
    Y = H @ rng.standard_normal(n) + 0.5 * rng.standard_normal(mn)
    hit = rng.random(mn) < 0.25
    Y[hit] += (rng.choice([-1.0, 1.0], hit.sum())
               * 10.0 ** rng.uniform(0.0, 6.0, hit.sum()))
    problem = build_fusion_problem(H, np.linalg.cholesky(M))
    assert_bit_equal(problem, Y, float(np.exp(log_gamma)))


def test_secure_fuse_bit_equal_on_pendulum_under_large_attack(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # a constant 1e6 on the angle sensor drives steps past the KKT
    # tolerance, through the refinement step, to unconverged answers
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    attack = AttackSpec(support=(3,), kind="constant", magnitude=1e6)
    Y = _rollout(pendulum_model, pendulum_design, dec, problem, attack, 200,
                 0, 0).Y
    results = [assert_bit_equal(problem, row, 5.0) for row in Y]
    assert not all(r.converged for r in results)
    assert not any(r.kalman_equivalent for r in results)


def test_secure_fuse_bit_equal_on_clean_pendulum_rows(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # the 500 clean rows of a screened run (gamma = 1000, as the screened
    # benchmark workloads run them), and the same rows at gamma = 20,
    # where the screen leaves some steps to the homotopy
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    Y = _rollout(pendulum_model, pendulum_design, dec, problem, AttackSpec(),
                 500, 0, 0).Y
    screened = [assert_bit_equal(problem, row, 1000.0).kalman_equivalent
                for row in Y]
    assert sum(screened) >= 495
    screened = [assert_bit_equal(problem, row, 20.0).kalman_equivalent
                for row in Y]
    assert 0 < sum(screened) < len(Y)


def test_secure_fuse_bit_equal_on_every_input_form(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # a 1-D float64 ndarray is used as given and every other form is
    # converted first; each form must give the reference's bits, on a
    # screened and an open step, and no result may alias the input
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    rollout = _rollout(pendulum_model, pendulum_design, dec, problem,
                       AttackSpec(), 500, 0, 0)
    row = next(r for r, s in zip(rollout.Y, rollout.split.statistic)
               if s > 20.0)
    strided = np.empty(2 * len(row))[::2]
    strided[:] = row
    read_only = row.copy()
    read_only.flags.writeable = False
    forms = (row.tolist(), row.astype(np.float32), row[None, :], strided,
             read_only)
    for form in forms:
        for gamma, screened in ((1000.0, True), (20.0, False)):
            got = assert_bit_equal(problem, form, gamma)
            assert got.kalman_equivalent is screened
            if isinstance(form, np.ndarray):
                assert not any(np.shares_memory(a, form) for a in got
                               if isinstance(a, np.ndarray))


def result_bytes(res):
    return tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in res)


def attacked_pendulum_rollout(model, design, dec):
    """A problem and a rollout on it under a constant attack of 10 on the
    angle sensor."""
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    attack = AttackSpec(support=(3,), kind="constant", magnitude=10.0)
    return problem, _rollout(model, design, dec, problem, attack, 200, 0, 0)


def attacked_pendulum_problem_and_rows(model, design, dec):
    problem, rollout = attacked_pendulum_rollout(model, design, dec)
    return problem, rollout.Y


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       m_sensors=st.integers(2, 5), coverage=st.booleans(),
       log_gamma=st.floats(float(np.log(0.05)), float(np.log(5.0))),
       data=st.data())
def test_revisited_supports_bit_equal_to_reference(seed, n, m_sensors,
                                                   coverage, log_gamma,
                                                   data):
    # rows that spike the same coordinates revisit the same signed
    # supports; one problem solves them in a drawn order, twice, and
    # keeps nothing between solves, so every answer is the reference's
    rng = np.random.default_rng(seed)
    if coverage:
        H = np.vstack([np.eye(n)] * m_sensors) * (
            rng.random((m_sensors * n, 1)) < 0.6)
        assume(np.linalg.matrix_rank(H) == n)
    else:
        H = rng.standard_normal((m_sensors * n, n))
    mn = H.shape[0]
    A = rng.standard_normal((mn, mn))
    M = A @ A.T / mn + 0.3 * np.eye(mn)
    hit = rng.random(mn) < 0.3
    direction = rng.choice([-1.0, 1.0], mn)
    rows = []
    for _ in range(8):
        Y = H @ rng.standard_normal(n) + 0.5 * rng.standard_normal(mn)
        Y[hit] += direction[hit] * 10.0 ** rng.uniform(0.0, 3.0, hit.sum())
        rows.append(Y)
    order = data.draw(st.permutations(range(len(rows))))
    problem = build_fusion_problem(H, np.linalg.cholesky(M))
    gamma = float(np.exp(log_gamma))
    for _ in range(2):
        for r in order:
            assert_bit_equal(problem, rows[r], gamma)


def test_solve_order_does_not_change_answers(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # two problems, one solving the rows forward and one in reverse, must
    # answer bit for bit alike
    forward, Y = attacked_pendulum_problem_and_rows(
        pendulum_model, pendulum_design, pendulum_decomposition)
    backward = dataclasses.replace(forward)
    ahead = [result_bytes(secure_fuse(forward, row, 5.0)) for row in Y]
    behind = [result_bytes(secure_fuse(backward, row, 5.0))
              for row in Y[::-1]]
    assert ahead == behind[::-1]
    assert not all(r[5] for r in ahead)    # some steps walked the homotopy


def open_and_screened_rows(model, design, dec, count=6):
    """A problem, an attacked rollout, which carries its block's split,
    and the first count of its row indices that screen at gamma = 1000
    but walk the homotopy at gamma = 20."""
    problem, rollout = attacked_pendulum_rollout(model, design, dec)
    picks = [t for t, s in enumerate(rollout.split.statistic)
             if 20.0 < s <= 1000.0]
    assert len(picks) >= count
    return problem, rollout, picks[:count]


@pytest.mark.parametrize("gammas", [(1000.0, 20.0), (20.0, 1000.0)])
def test_split_row_bit_equal_at_every_gamma_order(
        gammas, pendulum_model, pendulum_design, pendulum_decomposition):
    # a row fused at two gammas with its row of the block split, as
    # simulate hands it over: each must be the reference's bits on every
    # field, whether the row first screens or first walks the homotopy,
    # and both share the split's x_ls row
    problem, rollout, picks = open_and_screened_rows(
        pendulum_model, pendulum_design, pendulum_decomposition)
    for t in picks:
        row, row_split = rollout.Y[t], rollout.split.rows[t]
        first = assert_bit_equal(problem, row, gammas[0], split=row_split)
        second = assert_bit_equal(problem, row, gammas[1], split=row_split)
        assert first.x_ls is second.x_ls is row_split[0]
        assert first.kalman_equivalent is (gammas[0] == 1000.0)
        assert second.kalman_equivalent is (gammas[1] == 1000.0)


def test_split_row_results_share_only_read_only_arrays(
        pendulum_model, pendulum_design, pendulum_decomposition):
    # results for one row at several gammas share x_ls, and mu when
    # screened, read-only rows of the split; a screened x_tilde is that
    # x_ls and its nu the problem's read-only zero row, while the walked
    # result's x_tilde, nu and mu are fresh and writable
    problem, rollout, picks = open_and_screened_rows(
        pendulum_model, pendulum_design, pendulum_decomposition, count=1)
    split = rollout.split
    row, row_split = rollout.Y[picks[0]], split.rows[picks[0]]
    screened = [secure_fuse(problem, row, g, split=row_split)
                for g in (1000.0, 2000.0)]
    walked = secure_fuse(problem, row, 20.0, split=row_split)
    a, b = screened
    assert a.x_ls is b.x_ls is walked.x_ls
    assert a.mu is b.mu
    for r in screened:
        assert r.x_tilde is r.x_ls
        assert r.nu is problem.zero_nu
    for shared in (a.x_ls, a.mu, a.nu):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0
    fresh = [walked.x_tilde, walked.nu, walked.mu]
    for k, arr in enumerate(fresh):
        assert arr.flags.writeable
        others = fresh[:k] + fresh[k + 1:] + [a.x_ls, a.mu, a.nu]
        assert not any(np.shares_memory(arr, o) for o in others)
    for arr in split[:5]:
        assert not arr.flags.writeable


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(8, 40),
       log_magnitude=st.floats(-1.0, 3.0), log_gamma=st.floats(-2.0, 3.0))
def test_screened_result_is_its_split_row_and_the_zero_row(
        seed, horizon, log_magnitude, log_gamma):
    # on random Jordan designs, a result that screens returns its x_ls
    # itself as x_tilde and the problem's one zero row as nu, handed the
    # row's split or not; an open result's x_tilde is never its x_ls
    model = random_jordan_model(seed, ensure_observable=True)
    try:
        design = spectral_design(model)
        dec = build_decomposition(model, design)
        problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    except (ValueError, RiccatiDivergenceError):
        assume(False)
    attack = AttackSpec(support=(0,), kind="uniform",
                        magnitude=10.0 ** log_magnitude)
    rollout = _rollout(model, design, dec, problem, attack, horizon, seed, 0)
    gamma = 10.0 ** log_gamma
    for y, row_split in zip(rollout.Y, rollout.split.rows):
        for r in (secure_fuse(problem, y, gamma, split=row_split),
                  secure_fuse(problem, y, gamma)):
            assert r.kalman_equivalent == (row_split[3] <= gamma)
            if r.kalman_equivalent:
                assert r.x_tilde is r.x_ls
                assert r.nu is problem.zero_nu
                assert not r.nu.any() and r.nu.shape == y.shape
            else:
                assert r.x_tilde is not r.x_ls


@pytest.mark.parametrize("scale, value", [(1.0, np.nan), (1e306, None)])
def test_non_finite_statistic_raises_every_time_and_is_not_stored(
        scale, value, pendulum_model, pendulum_design,
        pendulum_decomposition):
    # a NaN entry, or a finite row whose products overflow, raises on
    # every call, at a screening and an open gamma, and in a block; the
    # problem keeps nothing of it
    problem, rollout, picks = open_and_screened_rows(
        pendulum_model, pendulum_design, pendulum_decomposition, count=1)
    row = rollout.Y[picks[0]] * scale
    if value is not None:
        row[5] = value
    messages = set()
    for gamma in (1e300, 5.0, 1e300):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite measurement|"
                                                "least-squares products "
                                                "overflow") as err:
            secure_fuse(problem, row, gamma)
        messages.add(str(err.value))
    # in a block, the bad row raises the same error as on its own
    block = np.vstack((rollout.Y[:3], row, rollout.Y[3:]))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError) as err:
        problem.split(block)
    assert messages == {str(err.value)}


def row_products(problem, y):
    """The least-squares split of one row, as secure_fuse formed it row by
    row: (x_ls, mu_ls, d, statistic, kkt)."""
    x_ls = y.dot(problem.wls_op.T)
    mu_ls = y - x_ls.dot(problem.H.T)
    d = problem.Minv.dot(mu_ls)
    return (x_ls, mu_ls, d, float(np.maximum.reduce(np.abs(d))),
            max(map(abs, problem.Ht.dot(d).tolist())))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(8, 60),
       log_magnitude=st.floats(-2.0, 3.0))
def test_block_split_bit_equal_to_row_products(seed, horizon,
                                               log_magnitude):
    # on random Jordan designs, a block of 1, 2, 7 or every row of an
    # attacked rollout gives each row the bits of its own row products,
    # and so does a block of the row alone, the split a lone secure_fuse
    # takes; least_squares on the block
    # and the rollout's statistic agree with them
    model = random_jordan_model(seed, ensure_observable=True)
    try:
        design = spectral_design(model)
        dec = build_decomposition(model, design)
        problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    except ValueError:
        assume(False)
    attack = AttackSpec(support=(0,), kind="uniform",
                        magnitude=10.0 ** log_magnitude)
    rollout = _rollout(model, design, dec, problem, attack, horizon, seed, 0)
    Y, statistic = rollout.Y, rollout.split.statistic
    for size in (1, 2, 7, horizon):
        block = Y[:size]
        split = problem.split(block)
        x_ls, mu_ls = problem.least_squares(block)
        assert len(split.rows) == size
        for t, y in enumerate(block):
            want = row_products(problem, y)
            got = (split.x_ls[t], split.mu_ls[t], split.d[t],
                   split.statistic[t], split.kkt[t])
            alone = problem.split(y[None]).rows[0]
            for g, w, r, a in zip(got, want, split.rows[t], alone):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
                assert np.asarray(r).tobytes() == np.asarray(w).tobytes()
                assert np.asarray(a).tobytes() == np.asarray(w).tobytes()
            assert type(split.rows[t][3]) is type(split.rows[t][4]) is float
            assert type(alone[3]) is type(alone[4]) is float
            assert x_ls[t].tobytes() == want[0].tobytes()
            assert mu_ls[t].tobytes() == want[1].tobytes()
            assert statistic[t] == want[3]


def assert_walks_equal_lone(problem, Y, d, gamma):
    """lasso_paths on the rows d of a block gives each row the nu bytes
    (signs of zero included) and breakpoint count of the reference walk
    on the row alone; returns the block's (nu, breakpoints)."""
    nu, breakpoints = fusion.lasso_paths(problem, d, gamma)
    assert nu.shape == d.shape and breakpoints.shape == (len(d),)
    for y, row_d, row_nu, it in zip(Y, d, nu, breakpoints.tolist()):
        want_nu, want_it = _reference_lasso_path(problem.S, y, row_d, gamma,
                                                 None)
        assert row_nu.tobytes() == want_nu.tobytes()
        assert it == want_it
    return nu, breakpoints


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(8, 40),
       log_magnitude=st.floats(-1.0, 3.0), log_gamma=st.floats(-2.0, 3.0))
def test_block_walk_bit_equal_to_lone_walk_and_reference(
        seed, horizon, log_magnitude, log_gamma):
    # on random Jordan designs, a block of 1, 2, 7 or every open row of
    # an attacked rollout walks each row to the nu and breakpoints of the
    # reference walk on the row alone, and secure_fuse handed that walk
    # answers with the reference's bits on every field
    model = random_jordan_model(seed, ensure_observable=True)
    try:
        design = spectral_design(model)
        dec = build_decomposition(model, design)
        problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    except (ValueError, RiccatiDivergenceError):
        assume(False)
    attack = AttackSpec(support=(0,), kind="uniform",
                        magnitude=10.0 ** log_magnitude)
    rollout = _rollout(model, design, dec, problem, attack, horizon, seed, 0)
    gamma = 10.0 ** log_gamma
    split = rollout.split
    open_rows = (split.statistic > gamma).nonzero()[0]
    assume(len(open_rows) > 0)
    for size in sorted({1, 2, 7, len(open_rows)}):
        picks = open_rows[:size]
        assert_walks_equal_lone(problem, rollout.Y[picks], split.d[picks],
                                gamma)
    fused = fusion.fuse_open(problem, rollout.Y[open_rows],
                             split.d[open_rows], gamma)
    for t, walk in zip(open_rows, fused.rows()):
        got = secure_fuse(problem, rollout.Y[t], gamma, split=split.rows[t],
                          walk=walk)
        want = reference_secure_fuse(problem, rollout.Y[t], gamma)
        assert result_bytes(got) == result_bytes(want)


def rounding_parity_problem(H, factor):
    """The FusionProblem of the normal equations on any H, square or not:
    S = Minv - Minv H wls_op, which a square H leaves at rounding level
    (build_fusion_problem sets it to zero there)."""
    Linv = np.linalg.inv(factor)
    Minv = Linv.T @ Linv
    Minv = 0.5 * (Minv + Minv.T)
    MiH = Minv @ H
    normal = H.T @ MiH
    wls_op = np.linalg.solve(0.5 * (normal + normal.T), MiH.T)
    S = Minv - MiH @ wls_op
    S_pm = 0.5 * np.vstack((S + S.T, -(S + S.T)))
    return FusionProblem(H=H, Ht=H.T.copy(), Minv=Minv, wls_op=wls_op,
                         S_pm=S_pm, S=S_pm[:len(S)])


@pytest.mark.parametrize("gamma", [0.1, 1.0, 5.0])
def test_walk_goes_on_after_its_last_active_coordinate_drops(gamma):
    # random_jordan_model(8) (n = 4, m = 1) passes validate_model; its
    # design's own problem has S = 0 and screens every row, but on the
    # normal equations' rounding-level S walks drop their last active
    # coordinate; from nu = 0, where c = c_ls and every rate is 1, the
    # passed root fires.  Every open row of a clean run walks to the
    # reference's bits, and secure_fuse answers with the reference's bits
    model = random_jordan_model(8, ensure_observable=True)
    design = spectral_design(model)
    dec = build_decomposition(model, design)
    assert not build_fusion_problem(dec.H_stack, dec.Mtilde_factor).S.any()
    problem = rounding_parity_problem(dec.H_stack, dec.Mtilde_factor)
    assert (model.n, model.m) == (4, 1)
    assert 0.0 < np.abs(problem.S).max() < 1e-13
    rollout = _rollout(model, design, dec, problem, AttackSpec(), 120, 8, 0)
    split = rollout.split
    open_rows = (split.statistic > gamma).nonzero()[0]
    assert len(open_rows) > 0
    assert_walks_equal_lone(problem, rollout.Y[open_rows],
                            split.d[open_rows], gamma)
    for t in open_rows[:10]:
        got = secure_fuse(problem, rollout.Y[t], gamma, split=split.rows[t])
        want = reference_secure_fuse(problem, rollout.Y[t], gamma)
        assert result_bytes(got) == result_bytes(want)


def test_block_walk_takes_the_breakpoint_cap_as_lone_walks_do(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # with the cap at 2, rows that need more breakpoints stop at their
    # second one and report the cap, in a block as on their own, while
    # the rows that end at their second breakpoint leave the block there
    problem, rollout = attacked_pendulum_rollout(
        pendulum_model, pendulum_design, pendulum_decomposition)
    split = rollout.split
    open_rows = (split.statistic > 50.0).nonzero()[0]
    _, uncapped = fusion.lasso_paths(problem, split.d[open_rows], 50.0)
    monkeypatch.setattr(fusion, "MAX_BREAKPOINTS", 2)
    # helpers imports the cap by value
    monkeypatch.setattr(helpers, "MAX_BREAKPOINTS", 2)
    _, capped = assert_walks_equal_lone(problem, rollout.Y[open_rows],
                                        split.d[open_rows], 50.0)
    assert (uncapped > 2).any() and (uncapped <= 2).any()
    assert np.array_equal(capped, np.minimum(uncapped, 2))


def lone_answer(problem, y, d, gamma):
    """The answer secure_fuse forms on row y alone before its refinement
    step: (x_tilde, mu, nu, kkt, breakpoints), from 1-D products on the
    reference walk's nu."""
    nu, it = _reference_lasso_path(problem.S, y, d, gamma, None)
    x = problem.wls_op.dot(y - nu)
    mu = y - problem.H.dot(x) - nu
    s = problem.Minv.dot(mu)
    deviation = np.abs(s - gamma * np.sign(nu)) - gamma * (nu == 0.0)
    kkt = max(float(np.abs(problem.Ht.dot(s)).max()),
              float(deviation.max()))
    return x, mu, nu, kkt, it


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(8, 40),
       log_magnitude=st.floats(-1.0, 3.0), log_gamma=st.floats(-2.0, 3.0))
def test_fuse_open_rows_bit_equal_to_lone_secure_fuse_and_reference(
        seed, horizon, log_magnitude, log_gamma):
    # on random Jordan designs, every field of every row of fuse_open on a
    # block of 1, 2, 7 or every open row has the bytes of the lone answer,
    # and secure_fuse handed that row answers as a lone secure_fuse and
    # the reference do, on every field
    model = random_jordan_model(seed, ensure_observable=True)
    try:
        design = spectral_design(model)
        dec = build_decomposition(model, design)
        problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    except ValueError:
        assume(False)
    attack = AttackSpec(support=(0,), kind="uniform",
                        magnitude=10.0 ** log_magnitude)
    rollout = _rollout(model, design, dec, problem, attack, horizon, seed, 0)
    gamma = 10.0 ** log_gamma
    split = rollout.split
    open_rows = (split.statistic > gamma).nonzero()[0]
    assume(len(open_rows) > 0)
    for size in sorted({1, 2, 7, len(open_rows)}):
        picks = open_rows[:size]
        fused = fusion.fuse_open(problem, rollout.Y[picks], split.d[picks],
                                 gamma)
        rows = fused.rows()
        assert len(rows) == len(picks)
        for t, walk in zip(picks, rows):
            y = rollout.Y[t]
            want = lone_answer(problem, y, split.d[t], gamma)
            assert [type(v) for v in walk[3:]] == [float, int]
            assert result_bytes(walk) == result_bytes(want)
            got = secure_fuse(problem, y, gamma, split=split.rows[t],
                              walk=walk)
            lone = secure_fuse(problem, y, gamma)
            ref = reference_secure_fuse(problem, y, gamma)
            assert result_bytes(got) == result_bytes(lone) == \
                result_bytes(ref)



@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(8, 40),
       log_magnitude=st.floats(-1.0, 3.0), log_gamma=st.floats(-2.0, 3.0),
       k=st.integers(-40, 40))
def test_block_path_is_exactly_homogeneous_under_powers_of_two(
        seed, horizon, log_magnitude, log_gamma, k):
    # (Y, gamma) -> (s Y, s gamma) with s = 2^k scales every product, sum,
    # ratio and comparison of the split, the walk and the stacked answers
    # exactly, so the split, x_tilde, mu, nu and kkt are s times their
    # unscaled bits, with the same open rows and breakpoints.  |k| <= 40
    # keeps every value of these designs clear of overflow and subnormals
    model = random_jordan_model(seed, ensure_observable=True)
    try:
        design = spectral_design(model)
        dec = build_decomposition(model, design)
        problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    except (ValueError, RiccatiDivergenceError):
        assume(False)
    attack = AttackSpec(support=(0,), kind="uniform",
                        magnitude=10.0 ** log_magnitude)
    rollout = _rollout(model, design, dec, problem, attack, horizon, seed, 0)
    scale, gamma = 2.0 ** k, 10.0 ** log_gamma
    split = rollout.split
    assume(np.abs(rollout.Y).max() < 1e250)
    scaled_split = problem.split(scale * rollout.Y)
    for got, want in zip(scaled_split[:5], split[:5]):
        assert got.tobytes() == (scale * want).tobytes()
    open_rows = (split.statistic > gamma).nonzero()[0]
    assert np.array_equal(
        open_rows, (scaled_split.statistic > scale * gamma).nonzero()[0])
    assume(len(open_rows) > 0)
    fused = fusion.fuse_open(problem, rollout.Y[open_rows],
                             split.d[open_rows], gamma)
    scaled = fusion.fuse_open(problem, scale * rollout.Y[open_rows],
                              scaled_split.d[open_rows], scale * gamma)
    for got, want in zip(scaled[:4], fused[:4]):
        assert got.tobytes() == (scale * want).tobytes()
    assert np.array_equal(scaled.breakpoints, fused.breakpoints)

def test_fuse_open_walks_in_blocks_of_at_most_the_cap(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # with the cap at 7, the 200 open rows of the attacked pendulum run
    # walk in 29 calls of at most 7 rows, to the bytes of one uncapped call
    problem, rollout = attacked_pendulum_rollout(
        pendulum_model, pendulum_design, pendulum_decomposition)
    split = rollout.split
    open_rows = (split.statistic > 5.0).nonzero()[0]
    Y, d = rollout.Y[open_rows], split.d[open_rows]
    whole = fusion.fuse_open(problem, Y, d, 5.0)
    sizes, walk = [], fusion.lasso_paths

    def recording(problem, d, gamma):
        sizes.append(len(d))
        return walk(problem, d, gamma)

    monkeypatch.setattr(fusion, "lasso_paths", recording)
    monkeypatch.setattr(fusion, "MAX_BLOCK_ROWS", 7)
    capped = fusion.fuse_open(problem, Y, d, 5.0)
    assert len(open_rows) == 200
    assert sizes == [7] * 28 + [4]
    assert result_bytes(capped) == result_bytes(whole)


def test_split_refuses_a_lone_row(pendulum_decomposition):
    # a 1-D Y is one row, not a block: the caller passes Y[None]
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    with pytest.raises(ValueError, match=r"^split takes an \(h, mn\) block, "
                                         r"got shape \(16,\)$"):
        problem.split(np.zeros(16))


def test_fuse_runs_batches_whole_runs_under_the_cap(
        monkeypatch, pendulum_model, pendulum_design, pendulum_decomposition):
    # with the cap at 7, runs of 3, 0, 4, 13 and 0 open rows fuse as the
    # batches [3, 0, 4] and [13] (walked as 7 + 6), and the last run's
    # batch has no open row, so it gets None; each other run's part has
    # the bytes of fuse_open on its rows alone (the second run's part is
    # empty), and a batch is fused only when its first run is asked for
    problem, rollout = attacked_pendulum_rollout(
        pendulum_model, pendulum_design, pendulum_decomposition)
    split = rollout.split
    open_rows = (split.statistic > 5.0).nonzero()[0]
    runs = [(rollout.Y, split.d, rows) for rows in (
        open_rows[:3], open_rows[:0], open_rows[3:7], open_rows[7:20],
        open_rows[:0])]
    alone = [fusion.fuse_open(problem, rollout.Y[rows], split.d[rows], 5.0)
             for _, _, rows in runs[:4] if len(rows)]
    walks, blocks = [], []
    lasso_paths, answer = fusion.lasso_paths, fusion._answer

    def recording_walk(problem, d, gamma):
        walks.append(len(d))
        return lasso_paths(problem, d, gamma)

    def recording_answer(problem, Y, nu, gamma):
        blocks.append(len(Y))
        return answer(problem, Y, nu, gamma)

    monkeypatch.setattr(fusion, "lasso_paths", recording_walk)
    monkeypatch.setattr(fusion, "_answer", recording_answer)
    monkeypatch.setattr(fusion, "MAX_BLOCK_ROWS", 7)
    parts = fusion.fuse_runs(problem, runs, 5.0)
    assert walks == []
    first = next(parts)
    assert (walks, blocks) == ([7], [7])
    parts = [first, *parts]
    assert (walks, blocks) == ([7, 7, 6], [7, 13])
    assert parts[4] is None
    assert [a.shape for a in parts[1]] == [(0, 4), (0, 16), (0, 16), (0,),
                                           (0,)]
    assert [result_bytes(p) for p in (parts[0], *parts[2:4])] == [
        result_bytes(a) for a in alone]
