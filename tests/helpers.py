"""Shared test utilities: deterministic random model generation, a
step-by-step reference for simulate, a one-attack rollout with 2-D
arrays as a reference for the stacked one, the bank rolled out in complex
mode coordinates as a reference for the real one, a value-by-value reference
for trace_csv, and the first-written homotopy solve as a bit-for-bit
reference for secure_fuse.

Second constructions the package does not ship sit here too, as oracles
of what it does: the per-sensor gains from the characteristic polynomial
of A (against local_gains), the sparse observability index by
enumerating removal sets (against ObservabilityStructure.sparse_index),
the fusion weights F_i = V diag(V^-1 K_i), and the per-step gap between
paired attacked and clean traces.  A SpectralDesign keeps K and Pi only,
so these recompute V and the characteristic polynomial from the model.

Models are drawn in Jordan coordinates directly so every sample satisfies
the structural requirements by construction: block-diagonal A with 0/1
superdiagonals, distinct block eigenvalues bounded away from zero, PSD
process/initial covariances, PD measurement covariance, exact zero
patterns in C so sensor coverage is unambiguous.
"""

import dataclasses
import itertools

import numpy as np
import scipy.linalg

from securekf import (assemble_canonical_measurement, attack_sequence,
                      build_fusion_problem, closed_loop_eigendecomposition,
                      fixed_gain_kalman_step, build_decomposition,
                      local_estimator_step, psd_factor, secure_fuse,
                      spectral_design)
from securekf.decomposition import (CANONICAL_RTOL, _resolvent_guard,
                                    canonical_projector, conjugate_pairing,
                                    local_gains, realification_map,
                                    residual_covariances)
from securekf.fusion import KKT_TOL, MAX_BREAKPOINTS, TIE_RATE, FusionResult
from securekf.model import (OBSERVABILITY_RTOL, SystemModel,
                            observability_matrix)
from securekf.simulator import DEFAULT_BURN_IN, _tail, trial_generators

BRUTE_FORCE_MAX_SENSORS = 12


def random_jordan_model(seed, n_max=5, m_max=8, ensure_observable=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))

    sizes = []
    left = n
    while left > 0:
        size = int(rng.integers(1, min(3, left) + 1))
        sizes.append(size)
        left -= size

    # distinct eigenvalues away from zero; separation keeps rank tests clean
    lams = []
    while len(lams) < len(sizes):
        lam = float(rng.uniform(0.15, 1.6)) * (1 if rng.random() < 0.7 else -1)
        if all(abs(lam - other) > 0.05 for other in lams):
            lams.append(lam)

    A = np.zeros((n, n))
    starts = []
    pos = 0
    for size, lam in zip(sizes, lams):
        starts.append(pos)
        for k in range(size):
            A[pos + k, pos + k] = lam
            if k + 1 < size:
                A[pos + k, pos + k + 1] = 1.0
        pos += size

    m = int(rng.integers(1, m_max + 1))
    C = np.zeros((m, n))
    for i in range(m):
        for b, (start, size) in enumerate(zip(starts, sizes)):
            u = rng.random()
            if u < 0.55:
                # full coverage of the chain: nonzero at its first state
                C[i, start] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
                extra = rng.random(size) < 0.3
                C[i, start:start + size][extra] += rng.normal(0, 1, extra.sum())
            elif u < 0.7 and size > 1:
                # partial coverage: first nonzero entry sits deeper in the chain
                t = int(rng.integers(1, size))
                C[i, start + t] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])

    if ensure_observable:
        for start in starts:
            if not np.any(C[:, start] != 0.0):
                i = int(rng.integers(0, m))
                C[i, start] = rng.uniform(0.5, 2.0)

    L = rng.normal(0, 0.1, (n, n))
    Q = L @ L.T
    M = rng.normal(0, 0.1, (m, m))
    R = M @ M.T + 0.01 * np.eye(m)
    Ls = rng.normal(0, 0.1, (n, n))
    Sigma = Ls @ Ls.T
    return SystemModel(A=A, C=C, Q=Q, R=R, Sigma=Sigma)


def complex_pair_design(seed):
    """(model, design, decomposition) of the first random Jordan model from
    seed on whose closed loop has a complex mode pair, keeps clear of the
    spectrum of A (Assumption 1 with room to spare, as in the
    decomposition tests) and meets the Theorem 2 preconditions."""
    for s in itertools.count(seed):
        model = random_jordan_model(s, ensure_observable=True)
        try:
            design = spectral_design(model)
            if not (np.abs(design.Pi.imag).max() > 0.0 and np.abs(np.polyval(
                    characteristic_polynomial(model.A)[::-1],
                    design.Pi)).min() >= 1e-4):
                continue
            return model, design, build_decomposition(model, design)
        except ValueError as exc:
            if not str(exc).startswith(("Assumption 1 violated",
                                        "Theorem 2 precondition violated")):
                raise


def characteristic_polynomial(A):
    """Coefficients a_0 .. a_n of det(xI - A), ascending, with a_n = 1.

    A must be in Jordan form so the eigenvalues can be read off the
    diagonal; the expansion is then a plain polynomial product.
    """
    coeffs = np.atleast_1d(np.poly(np.diag(np.asarray(A, dtype=float))))
    return coeffs[::-1].astype(float)


def local_gain_factored(model, design, i):
    """Oracle of local_gains: G_i assembled from the characteristic
    polynomial of A.

    Row j carries the coefficients of the quotient (p(x) - p(pi_j))/(x - pi_j)
    applied to the rows of O_i A, scaled by -1/p(pi_j).  Algebraically equal
    to the resolvent route.
    """
    _resolvent_guard(model, design)
    a = characteristic_polynomial(model.A)
    n = model.n
    D1 = np.diag(-1.0 / np.polyval(a[::-1], design.Pi))
    D2 = np.vander(design.Pi, N=n, increasing=False)
    # lower-triangular Toeplitz with first column a_n, ..., a_1
    D3 = np.tril(a[:0:-1][np.subtract.outer(np.arange(n), np.arange(n))])
    O_iA = observability_matrix(model.A, model.C[i]) @ model.A
    return D1 @ D2 @ D3 @ O_iA


def fusion_weights(model, design):
    """Per-sensor weights F_i = V diag(V^-1 K_i) and their row stack F,
    with V the closed-loop eigenvectors closed_loop_eigendecomposition
    gives for design.K.

    F is real whenever the closed-loop spectrum is real and is returned as
    a real array in that case (after checking the imaginary residue).  For
    complex spectra F is genuinely complex; its conjugate-pair column
    structure is verified instead, and products against the local bank
    still come out real.
    """
    V = closed_loop_eigendecomposition(model.A, design.K, model.C)[0]
    K = design.K
    n, m = K.shape
    coeffs = np.linalg.solve(V, K)
    F_list = [V * coeffs[:, i][None, :] for i in range(m)]
    F_row = np.hstack(F_list)
    scale = max(1.0, float(np.abs(F_row).max()))

    imag = float(np.abs(F_row.imag).max())
    if imag <= CANONICAL_RTOL * scale:
        F_list = [F.real.copy() for F in F_list]
        return F_list, F_row.real.copy()

    pair = conjugate_pairing(design.Pi)
    for F in F_list:
        mismatch = float(np.abs(F[:, pair] - np.conj(F)).max())
        if mismatch > CANONICAL_RTOL * scale:
            raise ValueError(
                "conjugate-pair bookkeeping broken in fusion weights "
                f"(column mismatch {mismatch:.3e})")
    return F_list, F_row


def brute_force_sparse_index(model):
    """Oracle of ObservabilityStructure.sparse_index: the sparse
    observability index by direct enumeration of removal sets.

    Returns the largest s such that (A, C with any s sensors removed) stays
    observable, or -1 if the full sensor set is already unobservable.  The
    enumeration is exponential in m and refuses m > BRUTE_FORCE_MAX_SENSORS.
    """
    m, n = model.m, model.n
    if m > BRUTE_FORCE_MAX_SENSORS:
        raise ValueError(
            f"brute-force enumeration limited to m <= {BRUTE_FORCE_MAX_SENSORS} sensors, got {m}")
    obs = [observability_matrix(model.A, model.C[i]) for i in range(m)]

    def observable_without(removed):
        keep = [obs[i] for i in range(m) if i not in removed]
        if not keep:
            return False
        stack = np.vstack(keep)
        tol = OBSERVABILITY_RTOL * np.linalg.norm(stack, 2)
        return np.linalg.matrix_rank(stack, tol=tol) == n

    for s in range(m + 1):
        for removed in itertools.combinations(range(m), s):
            if not observable_without(removed):
                return s - 1
    return m  # unreachable: removing all m sensors is never observable


@dataclasses.dataclass(frozen=True)
class SecurityGap:
    """Per-step distance between paired attacked and clean estimates.

    Each array holds d_k = ||x_hat_attacked(k) - x_hat_clean(k)||_2 for
    one estimator; max_* is the largest gap over the whole run and
    tail_mean_* the average over k >= burn_in.
    """

    kalman: np.ndarray
    secure: np.ndarray
    least_squares: np.ndarray
    max_kalman: float
    max_secure: float
    max_least_squares: float
    tail_mean_kalman: float
    tail_mean_secure: float
    tail_mean_least_squares: float


def security_gap(trace_clean, trace_attacked, burn_in=DEFAULT_BURN_IN):
    """Estimator-by-estimator attack impact for a paired pair of runs.

    Both traces must come from the same (seed, trial) and horizon so
    their noise realizations match; the clean measurement streams are
    checked for exact equality.  The tail keeps the steps k >= burn_in;
    a negative burn_in raises ValueError, as does one past the horizon.
    """
    if (trace_clean.seed, trace_clean.trial) != (trace_attacked.seed,
                                                 trace_attacked.trial):
        raise ValueError(
            f"traces are not paired: seeds (seed={trace_clean.seed}, "
            f"trial={trace_clean.trial}) vs (seed={trace_attacked.seed}, "
            f"trial={trace_attacked.trial})")
    if trace_clean.horizon != trace_attacked.horizon:
        raise ValueError(f"traces are not paired: horizons "
                         f"{trace_clean.horizon} vs {trace_attacked.horizon}")
    if not np.array_equal(trace_clean.z, trace_attacked.z):
        raise ValueError("traces are not paired: clean measurement streams "
                         "differ")
    keep = _tail(trace_clean.horizon, burn_in)

    def gap(field):
        d = getattr(trace_attacked, field) - getattr(trace_clean, field)
        return np.linalg.norm(d, axis=1)

    dk = gap("xhat_kal")
    ds = gap("xhat_sec")
    dl = gap("xhat_ls")
    return SecurityGap(
        kalman=dk, secure=ds, least_squares=dl,
        max_kalman=float(dk.max()), max_secure=float(ds.max()),
        max_least_squares=float(dl.max()),
        tail_mean_kalman=float(dk[keep].mean()),
        tail_mean_secure=float(ds[keep].mean()),
        tail_mean_least_squares=float(dl[keep].mean()))


def mode_coordinates(model, design):
    """The per-sensor G_i and P_i in complex mode coordinates, computed as
    build_decomposition computes them before it realifies, and the
    realification map T it then applies to each sensor."""
    structure = model.structure
    T = realification_map(conjugate_pairing(design.Pi))
    G = list(local_gains(model, design))
    P = [canonical_projector(G_i, structure.covered_states(i), T, i)[0]
         for i, G_i in enumerate(G)]
    return G, P, T


def mode_covariances(model, design):
    """residual_covariances on the mode coordinates' G_i and P_i:
    (Qtilde, Wtilde, Mtilde, delta), Mtilde with the bits whose real part
    build_decomposition factors."""
    G, P, _ = mode_coordinates(model, design)
    return residual_covariances(model, design, G,
                                scipy.linalg.block_diag(*P))


def reference_complex_rollout(model, design, u, y):
    """Reference for the bank and projection of _rollout: the bank in
    complex mode coordinates, n scalar filters per sensor,
    zeta_ij <- pi_j zeta_ij + y_i + (G_i - 1 C_i)_j B u, one step at a
    time, projected by the P_i.  The last step drops Y's imaginary
    rounding residue, after checking that it is rounding.  u and y hold
    one row per step.  Returns Y, one row per step, and the largest entry
    of |Ptilde| |zeta|: the size of the terms the projection sums, which
    sets the scale of Y's rounding when Ptilde is ill-conditioned."""
    G, P, _ = mode_coordinates(model, design)
    n, m = model.n, model.m
    Bu = u @ model.input_matrix().T
    drive = ((Bu @ np.vstack(G).T).reshape(-1, m, n)
             + (y - Bu @ model.C.T)[:, :, None])
    zeta = np.zeros((m, n), dtype=complex)
    rows = []
    for e in drive:
        zeta = design.Pi * zeta + e
        rows.append(zeta.reshape(-1))
    zeta, Ptilde = np.array(rows), scipy.linalg.block_diag(*P)
    Y = zeta @ Ptilde.T
    assert (np.abs(Y.imag).max(axis=-1)
            <= 1e-9 * np.abs(Y.real).max(axis=-1)).all()
    return Y.real.copy(), float((np.abs(zeta) @ np.abs(Ptilde).T).max())


def _reference_recurrence(M, e, s0):
    """Rows s[t] = M s[t-1] + e[t] of a 2-D e, s[-1] = s0, by the
    recursive doubling the simulator's rollout uses."""
    s = e.copy()
    s[0] += M @ s0
    power, shift = M, 1
    while shift < len(s):
        s[shift:] += s[:-shift] @ power.T
        power = power @ power
        shift *= 2
    return s


@np.errstate(over="ignore", invalid="ignore")
def reference_rollout(model, design, decomposition, problem, attack,
                      horizon, seed, trial):
    """Reference for a rollout of one attack, with 2-D arrays throughout:
    the plant, the fixed-gain filter and the bank rolled out over the
    horizon, and Y split on problem.  Returns (x, u, z, y, a, xhat_kal, Y,
    split) with the bits a stacked rollout must give each attack, or
    raises the ValueError that rolling this attack out raises."""
    n, m = model.n, model.m
    A, C = model.A, model.C
    B, K = model.input_matrix(), model.feedback_gain()
    g_init, g_proc, g_meas, g_att = trial_generators(seed, trial)
    x0 = psd_factor(model.Sigma) @ g_init.standard_normal(n)
    w = g_proc.standard_normal((horizon, n)) @ psd_factor(model.Q).T
    v = g_meas.standard_normal((horizon, m)) @ psd_factor(model.R).T
    x = _reference_recurrence(A - B @ K, w, x0)
    u = -(np.vstack((x0, x[:-1])) @ K.T)
    z = x @ C.T + v
    for name, arr in (("x", x), ("u", u), ("z", z)):
        if not np.isfinite(arr).all():
            raise ValueError(f"simulation produced non-finite {name}")
    a = attack_sequence(attack, m, horizon, g_att)
    y = z + a
    KC = design.K @ C
    x_kal = _reference_recurrence(
        A - KC @ A, y @ design.K.T + u @ (B - KC @ B).T, np.zeros(n))
    Bu = u @ B.T
    drive = ((Bu @ decomposition.G_stack.T).reshape(horizon, m, n)
             + (y - Bu @ C.T)[:, :, None] * decomposition.bank_input
             ).reshape(horizon, m * n)
    zeta = _reference_recurrence(np.kron(np.eye(m), decomposition.bank),
                                 drive, np.zeros(m * n))
    Y = zeta @ decomposition.Ptilde.T
    for name, arr in (("y", y), ("a", a), ("xhat_kal", x_kal),
                      ("canonical measurement", Y)):
        if not np.isfinite(arr).all():
            raise ValueError(f"simulation produced non-finite {name}")
    return x, u, z, y, a, x_kal, Y, problem.split(Y)


def step_by_step_simulate(model, design, decomposition, attack, gamma,
                          horizon, seed, trial=0):
    """Reference for simulate: one loop over time through the public
    one-step functions, drawing from the same (seed, trial) substreams.

    Returns a dict of (horizon, .) arrays named as SimulationTrace fields.
    """
    g_init, g_proc, g_meas, g_att = trial_generators(seed, trial)
    Lq, Lr = psd_factor(model.Q), psd_factor(model.R)
    x = psd_factor(model.Sigma) @ g_init.standard_normal(model.n)
    w = g_proc.standard_normal((horizon, model.n))
    v = g_meas.standard_normal((horizon, model.m))
    a = attack_sequence(attack, model.m, horizon, g_att)
    problem = build_fusion_problem(decomposition.H_stack,
                                   decomposition.Mtilde_factor)
    B, K = model.input_matrix(), model.feedback_gain()
    zeta, x_kal = np.zeros((model.m, model.n)), np.zeros(model.n)
    out = {f: [] for f in ("x", "xhat_kal", "xhat_ls", "xhat_sec",
                           "kalman_equivalent", "solver_converged")}
    for t in range(horizon):
        u = -(K @ x)
        x = model.A @ x + B @ u + Lq @ w[t]
        y = model.C @ x + Lr @ v[t] + a[t]
        x_kal = fixed_gain_kalman_step(x_kal, y, u, design, model)
        zeta = local_estimator_step(zeta, y, u, decomposition, model)
        Y = assemble_canonical_measurement(zeta, decomposition)
        res = secure_fuse(problem, Y, gamma)
        for f, value in (("x", x), ("xhat_kal", x_kal), ("xhat_ls", res.x_ls),
                         ("xhat_sec", res.x_tilde),
                         ("kalman_equivalent", res.kalman_equivalent),
                         ("solver_converged", res.converged)):
            out[f].append(value)
    return {f: np.array(values) for f, values in out.items()}


def reference_trace_csv(trace):
    """Reference for trace_csv: formats every value on its own."""
    def fmt(value):
        return "%.17g" % float(value)

    n = trace.x.shape[1]
    q = trace.u.shape[1]
    m = trace.y.shape[1]
    header = (["k"]
              + [f"x_{i + 1}" for i in range(n)]
              + [f"u_{i + 1}" for i in range(q)]
              + [f"y_{i + 1}" for i in range(m)]
              + [f"a_{i + 1}" for i in range(m)]
              + [f"xhat_kal_{i + 1}" for i in range(n)]
              + [f"xhat_sec_{i + 1}" for i in range(n)]
              + [f"xhat_ls_{i + 1}" for i in range(n)]
              + ["solver_iters", "kkt_residual", "solver_warn"])
    lines = [",".join(header)]
    for t in range(trace.horizon):
        row = ([str(t + 1)]
               + [fmt(v) for v in trace.x[t]]
               + [fmt(v) for v in trace.u[t]]
               + [fmt(v) for v in trace.y[t]]
               + [fmt(v) for v in trace.a[t]]
               + [fmt(v) for v in trace.xhat_kal[t]]
               + [fmt(v) for v in trace.xhat_sec[t]]
               + [fmt(v) for v in trace.xhat_ls[t]]
               + [str(int(trace.solver_iters[t])),
                  fmt(trace.kkt_residual[t]),
                  str(0 if trace.solver_converged[t] else 1)])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sensor_blocks(decomp, n):
    """Per-sensor G_i, H_i, P_i read off a decomposition's stacked forms.

    Sensor i owns rows i*n .. (i+1)*n - 1 of G_stack and H_stack and the
    matching diagonal block of Ptilde.
    """
    rows = [slice(i * n, (i + 1) * n) for i in range(len(decomp.G_stack) // n)]
    return ([decomp.G_stack[r] for r in rows],
            [decomp.H_stack[r] for r in rows],
            [decomp.Ptilde[r, r] for r in rows])


def _reference_residuals(problem, Y, x, nu, gamma):
    mu = Y - problem.H @ x - nu
    s = problem.Minv @ mu
    deviation = np.where(nu != 0.0, np.abs(s - gamma * np.sign(nu)),
                         np.maximum(0.0, np.abs(s) - gamma))
    return mu, float(max(np.abs(problem.Ht @ s).max(initial=0.0),
                         deviation.max(initial=0.0)))


def _reference_lasso_path(S, Y, c_ls, gamma, history):
    mn = len(c_ls)
    S2 = np.vstack((S, -S))
    c2_ls = np.concatenate((c_ls, -c_ls))
    nu = np.zeros(mn)
    sign = np.zeros(mn)
    blocked = np.zeros(2 * mn, dtype=bool)
    root = int(c2_ls.argmax())
    lam = float(c2_ls[root])
    held = -1
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, MAX_BREAKPOINTS + 1):
            if root >= 0:
                j = root % mn
                sign[j] = 1.0 if root < mn else -1.0
                blocked[j] = blocked[j + mn] = True
            act = sign.nonzero()[0]
            cols = S2.take(act, axis=1)
            s_act, nu_act = sign.take(act), nu.take(act)
            c2 = c2_ls - cols @ nu_act
            if history is not None:
                history.append(float(0.5 * (Y - nu) @ c2[:mn]
                                     + gamma * np.abs(nu).sum()))
            S_aa = cols.take(act, axis=0)
            try:
                w = np.linalg.solve(S_aa, s_act)
            except np.linalg.LinAlgError:
                w = np.linalg.lstsq(S_aa, s_act, rcond=None)[0]
            rate = 1.0 - cols @ w
            join = (lam - c2) / rate
            join[blocked | (rate <= TIE_RATE)] = np.inf
            np.maximum(join, 0.0, out=join)
            drop = -nu_act / w
            drop[w * s_act >= 0.0] = np.inf
            np.maximum(drop, 0.0, out=drop)
            # an empty active set (its last coordinate dropped) has no drop
            drop = np.append(drop, np.inf)
            root, i = int(join.argmin()), int(drop.argmin())
            t = min(join[root], drop[i])
            if t >= lam - gamma:
                nu[act] = nu_act + (lam - gamma) * w
                return nu, it
            nu[act] = nu_act + t * w
            lam -= t
            if held >= 0:
                blocked[held] = False
                held = -1
            if drop[i] <= join[root]:
                k = int(act[i])
                held = k if sign[k] > 0.0 else k + mn
                nu[k] = sign[k] = 0.0
                blocked[(held + mn) % (2 * mn)] = False
                root = -1
    return nu, MAX_BREAKPOINTS


def fusion_objective(problem, Y, x, nu, gamma):
    """0.5 mu' Minv mu + gamma |nu|_1 at (x, nu), mu = Y - H x - nu, for one
    measurement Y or for each row of an (h, mn) block."""
    mu = Y - x @ problem.H.T - nu
    return (0.5 * (mu * (mu @ problem.Minv.T)).sum(axis=-1)
            + gamma * np.abs(nu).sum(axis=-1))


def reference_secure_fuse(problem, Y, gamma, *, history=None):
    """Reference for secure_fuse: the homotopy solve as first written, with
    plain array operations throughout and [S; -S] stacked on every call.
    Every FusionResult field of secure_fuse must equal its output bit for
    bit.  history, when given a list, collects the objective at nu = 0, at
    every homotopy breakpoint and at the answer.  It does not increase:
    along the path its derivative in lambda is
    (lambda - gamma) s_A' S_AA^-1 s_A."""
    if gamma <= 0:
        raise ValueError("γ = 0 leaves x̃ non-identifiable")
    Y = np.asarray(Y)
    if np.iscomplexobj(Y):
        raise ValueError("secure_fuse takes a real measurement")
    Y = Y.astype(float, copy=False).reshape(-1)
    H, Ht, Minv = problem.H, problem.Ht, problem.Minv
    x_ls, mu_ls = problem.least_squares(Y)
    d_ls = Minv @ mu_ls

    if float(np.abs(d_ls).max(initial=0.0)) <= gamma:
        if history is not None:
            history.append(float(0.5 * mu_ls @ d_ls))
        return FusionResult(
            x_tilde=x_ls.copy(), mu=mu_ls, nu=np.zeros(H.shape[0]),
            kkt_residual=float(np.abs(Ht @ d_ls).max(initial=0.0)),
            iterations=0, kalman_equivalent=True, x_ls=x_ls, converged=True)

    eps_eff = KKT_TOL * max(1.0, gamma)
    nu, it = _reference_lasso_path(problem.S, Y, d_ls, gamma, history)
    x = problem.wls_op @ (Y - nu)
    mu, kkt = _reference_residuals(problem, Y, x, nu, gamma)
    if kkt > eps_eff:
        act = np.flatnonzero(nu)
        x_r = x + problem.wls_op @ mu
        s = Minv @ (Y - H @ x_r - nu)
        step = np.linalg.lstsq(problem.S[np.ix_(act, act)],
                               s[act] - gamma * np.sign(nu[act]),
                               rcond=None)[0]
        nu_r = nu.copy()
        nu_r[act] += step
        x_r -= problem.wls_op[:, act] @ step
        mu_r, kkt_r = _reference_residuals(problem, Y, x_r, nu_r, gamma)
        if kkt_r < kkt:
            x, nu, mu, kkt = x_r, nu_r, mu_r, kkt_r
    if history is not None:
        history.append(float(fusion_objective(problem, Y, x, nu, gamma)))
    return FusionResult(
        x_tilde=x, mu=mu, nu=nu, kkt_residual=kkt, iterations=it,
        kalman_equivalent=False, x_ls=x_ls, converged=bool(kkt <= eps_eff))
