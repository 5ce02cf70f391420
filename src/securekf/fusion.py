"""Local estimator bank and secure fusion of its canonical measurement.

Every sensor runs a bank of n scalar filters, one per mode pi_j of the
fixed-gain filter's closed loop.  Projecting each bank state through its
canonical matrix P_i and stacking gives a redundant linear view of the
plant state, Y = H x + mu + nu, where mu carries the stationary Gaussian
residual (covariance Mtilde) and nu absorbs whole-sensor corruption.  The
fused estimate minimizes

    0.5 * mu' Mtilde^-1 mu + gamma * sum_a |nu_a|

over (x, nu) after eliminating mu = Y - H x - nu.  Eliminating x too
leaves the lasso min 0.5 (Y - nu)' S (Y - nu) + gamma |nu|_1 with
S = Minv - Minv H (H' Minv H)^-1 H' Minv (Minv = Mtilde^-1), and then
x_tilde = wls_op (Y - nu).  Its optimality test at nu = 0 is the threshold
condition max |Minv mu_ls| <= gamma; when it holds the solution is the
least-squares baseline, i.e. the fixed-gain Kalman estimate.  Otherwise the
lasso homotopy (Osborne, Presnell & Turlach 2000; the LARS-lasso path of
Efron et al. 2004) follows nu(lambda) from lambda = max |Minv mu_ls| down
to gamma, and ends after finitely many breakpoints on the exact support.

The solver runs in real arithmetic: the canonical projectors realify
conjugate pairs, so designs built by this package are real up to rounding.
Genuinely complex problem data keep the least-squares estimate and the
threshold test; an l1 solve on them raises ValueError.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv as _dgesv

from .decomposition import CANONICAL_RTOL, SensorDecomposition
from .model import SystemModel

KKT_TOL = 1e-8          # KKT residual target on unit-scaled problems
MAX_BREAKPOINTS = 500   # homotopy segments before a solve gives up (cycling)
TIE_RATE = 1e-9         # join rate below which a root never fires


@dataclasses.dataclass
class LocalBankState:
    """States of the per-sensor scalar filter banks at time index k."""

    zeta: list
    k: int = 0


@dataclasses.dataclass(frozen=True)
class FusionResult:
    """Solution of one fusion problem.

    mu is the raw residual Y - H x_tilde - nu, so the decomposition
    Y = H x_tilde + mu + nu holds exactly by construction.  x_ls is the
    weighted least-squares baseline; kalman_equivalent records whether
    the threshold condition held, in which case x_tilde equals x_ls and
    nu is zero.  iterations counts the homotopy breakpoints walked (0 for
    a screened step or an accepted warm start).  converged records
    whether the returned point meets the KKT tolerance; a solve that hits
    the breakpoint cap still returns its last point.
    """

    x_tilde: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    kkt_residual: float
    iterations: int
    kalman_equivalent: bool
    x_ls: np.ndarray
    converged: bool


def initial_bank(model: SystemModel) -> LocalBankState:
    """All-zero bank, matching a zero prior state estimate."""
    return LocalBankState(
        zeta=[np.zeros(model.n, dtype=complex) for _ in range(model.m)], k=0)


def local_estimator_step(bank: LocalBankState, y, u,
                         decomposition: SensorDecomposition,
                         model: SystemModel) -> LocalBankState:
    """Advance every sensor's filter bank by one measurement.

    zeta_i(k+1) = Pi zeta_i(k) + 1 y_i(k+1) + (G_i - 1 C_i) B u(k); the
    input term keeps the residual zeta_i - G_i x driven by noise and
    attack only, independent of the control signal.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    n, m = model.n, model.m
    if y.shape[0] != m:
        raise ValueError(f"measurement has length {y.shape[0]}, expected {m}")
    B = model.input_matrix()
    if u.shape[0] != B.shape[1]:
        raise ValueError(f"input has length {u.shape[0]}, expected {B.shape[1]}")
    z = np.asarray(bank.zeta, dtype=complex)
    if z.shape != (m, n):
        raise ValueError(f"bank holds states of shape {z.shape}, expected {(m, n)}")
    Bu = B @ u
    drive = (decomposition.G_stack @ Bu).reshape(m, n) - (model.C @ Bu)[:, None]
    z_next = decomposition.Pi[None, :] * z + y[:, None] + drive
    return LocalBankState(zeta=list(z_next), k=bank.k + 1)


def assemble_canonical_measurement(bank: LocalBankState,
                                   decomposition: SensorDecomposition) -> np.ndarray:
    """Stack P_i zeta_i over sensors into the fused measurement Y."""
    return decomposition.Ptilde @ np.concatenate(
        [np.asarray(z, dtype=complex).reshape(-1) for z in bank.zeta])


def _cho_solve(factor, rhs):
    c, lower = factor
    if np.iscomplexobj(rhs) and not np.iscomplexobj(c):
        c = c.astype(complex)
    return scipy.linalg.cho_solve((c, lower), rhs, check_finite=False)


def _real_vector(x, tol, label):
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return x.astype(float)
    scale = max(1.0, float(np.abs(x.real).max(initial=0.0)))
    imag = float(np.abs(x.imag).max(initial=0.0))
    assert imag <= tol * scale, \
        f"{label} has imaginary residue {imag:.3e} (tolerance {tol * scale:.3e})"
    return x.real.copy()


def _normal_operator(H, factor):
    MiH = _cho_solve(factor, H)
    normal = H.conj().T @ MiH
    normal = 0.5 * (normal + normal.conj().T)
    vals = np.linalg.eigvalsh(normal)
    if vals[0] <= 1e-12 * max(vals[-1], 1e-300):
        raise ValueError("state unobservable in canonical coordinates")
    return MiH, normal


@dataclasses.dataclass(frozen=True)
class FusionProblem:
    """Precomputed operators for repeated fusion solves on one design."""

    H: np.ndarray          # mn x n
    Ht: np.ndarray         # n x mn, H conjugate-transposed
    Minv: np.ndarray       # inverse of the (ridged) residual covariance
    wls_op: np.ndarray     # x_ls = wls_op @ Y
    S: np.ndarray          # Minv - Minv H wls_op, the x-eliminated quadratic

    @property
    def is_real(self) -> bool:
        """True when the problem data allowed an all-real formulation."""
        return not np.iscomplexobj(self.H)


REAL_DUST = 1e-12     # relative imaginary residue treated as rounding


def build_fusion_problem(H_stack, Mtilde_factor) -> FusionProblem:
    """Assemble the solve operators shared by every time step.

    On any design built by this package H and Mtilde are real up to
    rounding, and every operator is stored real.  Genuinely complex data
    keeps complex operators, which serve x_ls and the threshold test only.
    """
    H = np.asarray(H_stack, dtype=complex)
    mn = H.shape[0]
    Minv = _cho_solve(Mtilde_factor, np.eye(mn, dtype=complex))
    Minv = 0.5 * (Minv + Minv.conj().T)
    MiH, normal = _normal_operator(H, Mtilde_factor)
    wls_op = np.linalg.solve(normal, MiH.conj().T)
    dust = max(float(np.abs(H.imag).max(initial=0.0))
               / max(float(np.abs(H.real).max(initial=0.0)), 1e-300),
               float(np.abs(Minv.imag).max(initial=0.0))
               / max(float(np.abs(Minv.real).max(initial=0.0)), 1e-300))
    if dust <= REAL_DUST:
        H = H.real.copy()
        Minv = Minv.real.copy()
        MiH = MiH.real.copy()
        wls_op = wls_op.real.copy()
    S = Minv - MiH @ wls_op
    S = 0.5 * (S + S.conj().T)
    return FusionProblem(H=H, Ht=H.conj().T.copy(), Minv=Minv, wls_op=wls_op,
                         S=S)


def weighted_least_squares(Y, H_stack, Mtilde_factor):
    """Solve min 0.5 mu' Mtilde^-1 mu s.t. Y = H x + mu.

    Returns (x_ls, mu_ls) with x_ls real (the imaginary residue is
    checked against the canonical tolerance, then dropped) and mu_ls the
    raw residual Y - H x_ls.
    """
    Y = np.asarray(Y, dtype=complex).reshape(-1)
    H = np.asarray(H_stack, dtype=complex)
    MiH, normal = _normal_operator(H, Mtilde_factor)
    x = np.linalg.solve(normal, MiH.conj().T @ Y)
    x_ls = _real_vector(x, CANONICAL_RTOL, "least-squares estimate")
    return x_ls, Y - H @ x_ls


def kalman_equivalence_condition(mu_ls, Mtilde_factor, gamma) -> bool:
    """max |Mtilde^-1 mu_ls| <= gamma: the l1 term keeps nu at zero."""
    d = _cho_solve(Mtilde_factor, np.asarray(mu_ls, dtype=complex).reshape(-1))
    return bool(np.abs(d).max(initial=0.0) <= gamma)


def fusion_objective(Y, H_stack, Mtilde_factor, x, nu, gamma) -> float:
    """Objective value at (x, nu), for diagnostics and tests."""
    Y = np.asarray(Y, dtype=complex).reshape(-1)
    H = np.asarray(H_stack, dtype=complex)
    nu = np.asarray(nu, dtype=complex).reshape(-1)
    r = Y - H @ np.asarray(x, dtype=complex).reshape(-1) - nu
    s = _cho_solve(Mtilde_factor, r)
    return float(0.5 * np.vdot(r, s).real + gamma * np.abs(nu).sum())


def _residuals(problem, Y, x, nu, gamma):
    """(mu, KKT residual) at (x, nu): stationarity in x, and in nu the
    distance of s = Minv mu from gamma * sign(nu), or from [-gamma, gamma]."""
    mu = Y - problem.H @ x - nu
    s = problem.Minv @ mu
    deviation = np.where(nu != 0.0, np.abs(s - gamma * np.sign(nu)),
                         np.maximum(0.0, np.abs(s) - gamma))
    return mu, float(max(np.abs(problem.Ht @ s).max(initial=0.0),
                         deviation.max(initial=0.0)))


def _lasso_path(S, Y, c_ls, gamma, history):
    """Walk the lasso homotopy of min 0.5 (Y - nu)' S (Y - nu) + lam |nu|_1
    from lam = max |c_ls|, where nu = 0, down to lam = gamma; c_ls = S Y.

    On a segment with active set A and signs s_A, lowering lam by t moves
    nu_A by t w_A, with S_AA w_A = s_A, and the correlation c = S (Y - nu)
    by -t a, with a = S[:, A] w_A, so that c_A stays at (lam - t) s_A.
    The segment ends at the first of three events: an inactive c_j
    reaches +-(lam - t) (j joins with that sign), an active nu_i reaches
    zero (i drops), or lam - t reaches gamma.  A root whose rate 1 - a_j
    is at most TIE_RATE is taken to move with the bound: its coordinate
    completes a flat direction of the objective and would make S_AA singular.
    Returns (nu, segments); history, when a list, receives the objective
    at every breakpoint.
    """
    mn = len(c_ls)
    # root r < mn is c_r reaching +lam, root mn + j is c_j reaching -lam
    S2 = np.vstack((S, -S))
    c2_ls = np.concatenate((c_ls, -c_ls))
    nu = np.zeros(mn)
    sign = np.zeros(mn)                     # s_i on the active set, else 0
    blocked = np.zeros(2 * mn, dtype=bool)  # roots that may not fire
    root = int(c2_ls.argmax())
    lam = float(c2_ls[root])
    held = -1       # own-sign root of the coordinate that dropped last
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, MAX_BREAKPOINTS + 1):
            if root >= 0:
                j = root % mn
                sign[j] = 1.0 if root < mn else -1.0
                blocked[j] = blocked[j + mn] = True
            act = sign.nonzero()[0]
            cols = S2.take(act, axis=1)
            s_act, nu_act = sign.take(act), nu.take(act)
            # recomputed from nu at every breakpoint; stepping c along drifts
            c2 = c2_ls - cols @ nu_act
            if history is not None:
                history.append(float(0.5 * (Y - nu) @ c2[:mn]
                                     + gamma * np.abs(nu).sum()))
            S_aa = cols.take(act, axis=0)
            w, info = _dgesv(S_aa, s_act)[2:]
            if info > 0:
                # S_AA singular: a flat direction, any solution will do
                w = np.linalg.lstsq(S_aa, s_act, rcond=None)[0]
            rate = 1.0 - cols @ w
            join = (lam - c2) / rate
            join[blocked | (rate <= TIE_RATE)] = np.inf
            np.maximum(join, 0.0, out=join)     # a passed root fires at once
            drop = -nu_act / w
            drop[w * s_act >= 0.0] = np.inf
            np.maximum(drop, 0.0, out=drop)
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
                # the coordinate sits on its own-sign root at t = 0, so
                # only that root stays blocked, for one segment
                blocked[(held + mn) % (2 * mn)] = False
                root = -1
    return nu, MAX_BREAKPOINTS


def secure_fuse(Y, H_stack, Mtilde_factor, gamma, *, eps_kkt=KKT_TOL,
                warm_start=None, problem=None, history=None) -> FusionResult:
    """Solve the l1-regularized fusion problem for one measurement Y.

    problem is an optional prebuilt FusionProblem (it must match H_stack
    and Mtilde_factor).  warm_start is an optional (x, nu) pair, typically
    the previous time step's solution: when it passes the KKT test it is
    returned as it is, with iterations 0, and otherwise it is ignored.
    history, when given a list, collects the objective at nu = 0, at every
    homotopy breakpoint and at the answer.  It does not increase: along
    the path its derivative in lambda is (lambda - gamma) s_A' S_AA^-1 s_A.

    A float64 Y on a real problem is used as it is.  Any other Y is cast
    to complex, and on a real problem it must be real to 1e-9 relative.
    The threshold test or the lasso homotopy (module docstring) gives the
    answer; it counts as converged when its KKT residual is at most
    eps_kkt * max(1, gamma).  Complex data failing the threshold test
    raise ValueError.
    """
    if gamma <= 0:
        raise ValueError("γ = 0 leaves x̃ non-identifiable")
    if problem is None:
        problem = build_fusion_problem(H_stack, Mtilde_factor)
    Y = np.asarray(Y).reshape(-1)
    H, Ht, Minv = problem.H, problem.Ht, problem.Minv
    mn = H.shape[0]
    real = problem.is_real
    if not (real and Y.dtype == np.float64):
        Y = Y.astype(complex)
        if real:
            dust = float(np.abs(Y.imag).max(initial=0.0))
            scale = max(float(np.abs(Y.real).max(initial=0.0)), 1e-300)
            assert dust <= 1e-9 * scale, \
                f"complex measurement on a real-structured problem (imag {dust:.3e})"
            Y = Y.real.copy()
    x_ls = problem.wls_op @ Y      # real on a real problem
    if not real:
        x_ls = _real_vector(x_ls, CANONICAL_RTOL, "least-squares estimate")
    mu_ls = Y - H @ x_ls
    d_ls = Minv @ mu_ls

    if float(np.abs(d_ls).max(initial=0.0)) <= gamma:
        if history is not None:
            history.append(float(0.5 * np.vdot(mu_ls, d_ls).real))
        return FusionResult(
            x_tilde=x_ls.copy(), mu=mu_ls, nu=np.zeros(mn, dtype=Y.dtype),
            kkt_residual=float(np.abs(Ht @ d_ls).max(initial=0.0)),
            iterations=0, kalman_equivalent=True, x_ls=x_ls, converged=True)
    if not real:
        raise ValueError(
            "the l1 fusion solves real problems only; map complex canonical "
            "coordinates to real ones (decomposition.realification_map) "
            "before building the problem")

    eps_eff = eps_kkt * max(1.0, gamma)
    if warm_start is not None:
        x = np.asarray(warm_start[0], dtype=float).reshape(-1)
        nu = np.asarray(warm_start[1], dtype=float).reshape(-1)
        mu, kkt = _residuals(problem, Y, x, nu, gamma)
        if kkt <= eps_eff:
            return FusionResult(
                x_tilde=x, mu=mu, nu=nu, kkt_residual=kkt, iterations=0,
                kalman_equivalent=False, x_ls=x_ls, converged=True)

    nu, it = _lasso_path(problem.S, Y, d_ls, gamma, history)
    x = problem.wls_op @ (Y - nu)
    mu, kkt = _residuals(problem, Y, x, nu, gamma)
    if kkt > eps_eff:
        # one step of iterative refinement of (x, nu_A) on the final
        # support, driven by the residual: when Minv is large, S (Y - nu)
        # loses digits to cancellation that the residual keeps
        act = np.flatnonzero(nu)
        x_r = x + problem.wls_op @ mu
        s = Minv @ (Y - H @ x_r - nu)
        step = np.linalg.lstsq(problem.S[np.ix_(act, act)],
                               s[act] - gamma * np.sign(nu[act]),
                               rcond=None)[0]
        nu_r = nu.copy()
        nu_r[act] += step
        x_r -= problem.wls_op[:, act] @ step
        mu_r, kkt_r = _residuals(problem, Y, x_r, nu_r, gamma)
        if kkt_r < kkt:
            x, nu, mu, kkt = x_r, nu_r, mu_r, kkt_r
    if history is not None:
        history.append(float(0.5 * mu @ Minv @ mu + gamma * np.abs(nu).sum()))
    return FusionResult(
        x_tilde=x, mu=mu, nu=nu, kkt_residual=kkt, iterations=it,
        kalman_equivalent=False, x_ls=x_ls, converged=bool(kkt <= eps_eff))


def trial_generators(seed, trial):
    """Four independent Philox streams for one (seed, trial) pair.

    Order: initial state, process noise, measurement noise, attack.
    """
    children = np.random.SeedSequence((seed, trial)).spawn(4)
    return tuple(np.random.Generator(np.random.Philox(c)) for c in children)
