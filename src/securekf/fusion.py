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

Everything here runs in real arithmetic: the decomposition is realified
once, when it is built, so the bank, its canonical measurement Y, H and
Mtilde are real arrays.  FusionProblem owns the operators every step
shares (the least-squares split of a block of measurements or of one
row, the threshold statistic, the objective); complex problem data are
rejected when the problem is built, and a complex Y when it is fused.
secure_fuse walks one row's homotopy (_lasso_path); lasso_paths walks
the open rows of a whole block together, one breakpoint per round, and
gives every row the bits of its own walk.  fuse_open walks a block's open
rows that way, at most MAX_BLOCK_ROWS per call, and forms every row's
x_tilde, mu and KKT residual with stacked products, to the bits secure_fuse
forms on the row alone; secure_fuse takes such a row (its walk) as given
and only refines it, when its KKT residual misses the tolerance, and
builds its FusionResult.  The module needs numpy alone: Minv comes from the
covariance's Cholesky factor, and the homotopy's small solves call
numpy's LAPACK gufunc directly, one matrix at a time or a stack of them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np
# the LAPACK gufunc that np.linalg.solve dispatches to, called directly
# (a private name): it gives that function's bits at a third of its cost,
# 2.5 us against 7.2 us on a 5 x 5 system, and the walk makes one such
# solve per new signed support
from numpy.linalg._umath_linalg import solve1 as _solve1

from .decomposition import SensorDecomposition
from .model import SystemModel

KKT_TOL = 1e-8          # KKT residual target on unit-scaled problems
MAX_BREAKPOINTS = 500   # homotopy segments before a solve gives up (cycling)
TIE_RATE = 1e-9         # join rate below which a root never fires
# rows one lasso_paths call walks at most: the largest block a
# default-horizon run makes.  One default sweep-attack trial (pendulum,
# 11 runs of 1000 open rows, 2 CPUs) peaks at 54.7 / 56.7 / 62.2 / 98.7 MB
# ru_maxrss with a cap of 500 / 1000 / 2000 / none, in 0.26-0.49 s at each
# (55.1 MB, 0.41-0.66 s, with one block per run and per-step answers)
MAX_BLOCK_ROWS = 1000
_FLOAT64 = np.dtype(float)


@dataclasses.dataclass
class LocalBankState:
    """States of the per-sensor scalar filter banks at time index k."""

    zeta: list
    k: int = 0


class FusionResult(NamedTuple):
    """Solution of one fusion problem, as a named tuple.

    mu is the raw residual Y - H x_tilde - nu, so the decomposition
    Y = H x_tilde + mu + nu holds exactly by construction.  x_ls is the
    weighted least-squares baseline; kalman_equivalent records whether
    the threshold condition held, in which case x_tilde equals x_ls and
    nu is zero.  iterations counts the homotopy breakpoints walked (0 for
    a screened step).  converged records whether the returned point meets
    the KKT tolerance; a solve that hits the breakpoint cap still returns
    its last point.  The fields cannot be set, and their order is part of
    the API: simulate unpacks the results of a run by position.  x_ls,
    and mu on a screened step, are read-only rows of the least-squares
    split (FusionProblem.split), which results that were passed the same
    split share.  When secure_fuse was handed a walk (a row of fuse_open),
    x_tilde, mu and nu are that row's views of the block's arrays, unless
    the refinement step replaced them; each row belongs to one result.
    Otherwise x_tilde and nu are fresh arrays.
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
    return LocalBankState([np.zeros(model.n) for _ in range(model.m)])


def local_estimator_step(bank: LocalBankState, y, u,
                         decomposition: SensorDecomposition,
                         model: SystemModel) -> LocalBankState:
    """Advance every sensor's filter bank by one measurement.

    zeta_i(k+1) = bank zeta_i(k) + b y_i(k+1) + (G_i - b C_i) B u(k), with
    bank, b = bank_input and G_i read off the (real) decomposition; the
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
    z = np.asarray(bank.zeta, dtype=float)
    if z.shape != (m, n):
        raise ValueError(f"bank holds states of shape {z.shape}, expected {(m, n)}")
    Bu = B @ u
    drive = ((decomposition.G_stack @ Bu).reshape(m, n)
             + (y - model.C @ Bu)[:, None] * decomposition.bank_input)
    z_next = z @ decomposition.bank.T + drive
    return LocalBankState(zeta=list(z_next), k=bank.k + 1)


def assemble_canonical_measurement(bank: LocalBankState,
                                   decomposition: SensorDecomposition) -> np.ndarray:
    """Stack P_i zeta_i over sensors into the fused measurement Y."""
    return decomposition.Ptilde @ np.concatenate(
        [np.asarray(z, dtype=float).reshape(-1) for z in bank.zeta])


def _rows_dot(V, B):
    """Each row v of V times B, as the product v.dot(B) computes it.

    np.matmul over a stack runs one vector product per row, so every
    row gets the bits its row product gives; a block product V.dot(B)
    is a GEMM, whose bits may differ from them in the last places.
    """
    return np.matmul(V[..., None, :], B)[..., 0, :]


def _dot_rows(A, V):
    """A times each row v of V, as A.dot(v) computes it (see _rows_dot)."""
    return np.matmul(A, V[..., :, None])[..., :, 0]


class LeastSquaresSplit(NamedTuple):
    """The gamma-independent half of the fusion solves on an (h, mn)
    block Y (FusionProblem.split), one row per measurement row.

    x_ls and mu_ls are the least-squares split Y = H x_ls + mu_ls, d is
    Minv mu_ls, statistic the threshold statistic max |d| (every gamma at
    or above it screens the row) and kkt the KKT residual max |H' d| of a
    row that screens.  rows[t] is the tuple (x_ls[t], mu_ls[t], d[t],
    statistic[t], kkt[t]) that secure_fuse takes for row t, with the two
    scalars as Python floats.  The arrays are read-only, so the results
    and traces that share them cannot change them.  problem is the
    FusionProblem that made the split, whose operators every solve on
    these rows must use.
    """

    x_ls: np.ndarray
    mu_ls: np.ndarray
    d: np.ndarray
    statistic: np.ndarray
    kkt: np.ndarray
    rows: list
    problem: "FusionProblem"


def _refuse(Y):
    """Raise the ValueError for a row Y whose threshold statistic is not
    finite: a non-finite measurement, or a finite one so large that the
    least-squares products overflow (the homotopy would walk to the
    breakpoint cap and return NaN)."""
    if not np.isfinite(Y).all():
        i = int(np.isfinite(Y).argmin())
        raise ValueError(f"non-finite measurement Y[{i}] = {Y[i]}")
    raise ValueError(f"the least-squares products overflow on a finite "
                     f"measurement (max |Y| = {np.abs(Y).max():.3e})")


@dataclasses.dataclass(frozen=True)
class FusionProblem:
    """Real operators shared by every fusion solve on one design.

    least_squares and objective take one measurement Y of length mn, or
    an (h, mn) block with one measurement per row, and answer per row;
    split takes a block and split_row one row.  Both least_squares and
    split form each row's products as the row form would (_rows_dot), so
    row t of a block's answer has the bits of the answer on Y[t] alone,
    which split_row gives with plain 1-D products.  S is a view of the top
    half of S_pm = [S; -S], which the homotopy reads.  The problem holds
    its operators and nothing else: no call changes it.
    """

    H: np.ndarray          # mn x n
    Ht: np.ndarray         # n x mn, H transposed
    Minv: np.ndarray       # inverse of the (ridged) residual covariance
    wls_op: np.ndarray     # x_ls = wls_op @ Y
    S_pm: np.ndarray       # [S; -S], 2mn x mn
    S: np.ndarray          # Minv - Minv H wls_op, the x-eliminated quadratic

    def least_squares(self, Y):
        """(x_ls, mu_ls) minimizing 0.5 mu' Minv mu subject to Y = H x + mu."""
        x_ls = _rows_dot(Y, self.wls_op.T)
        return x_ls, Y - _rows_dot(x_ls, self.H.T)

    def split(self, Y) -> LeastSquaresSplit:
        """The gamma-independent half of a fusion solve on every row of
        the (h, mn) block Y, which every gamma's solve on that row reads.

        The first row whose statistic is not finite raises ValueError, with
        the message split_row gives on that row alone (_refuse).
        """
        if Y.ndim != 2:
            raise ValueError(f"split takes an (h, mn) block, got shape "
                             f"{Y.shape}")
        x_ls, mu_ls = self.least_squares(Y)
        d = _dot_rows(self.Minv, mu_ls)
        statistic = np.abs(d).max(axis=-1)
        bad = ~np.isfinite(statistic)
        if bad.any():
            _refuse(Y[int(bad.argmax())])
        kkt = np.abs(_dot_rows(self.Ht, d)).max(axis=-1)
        for a in (x_ls, mu_ls, d, statistic, kkt):
            a.setflags(write=False)
        rows = list(zip(x_ls, mu_ls, d, statistic.tolist(), kkt.tolist()))
        return LeastSquaresSplit(x_ls, mu_ls, d, statistic, kkt, rows, self)

    def split_row(self, y):
        """The split of one measurement row y of length mn, as the tuple
        (x_ls, mu_ls, d, statistic, kkt) that split gives as rows[t] for
        a block whose row t is y, with the same bits and the same
        ValueError; its arrays are read-only too.  Plain 1-D products
        cost a quarter of a one-row block's stacked ones.
        """
        x_ls = y.dot(self.wls_op.T)
        mu_ls = y - x_ls.dot(self.H.T)
        d = self.Minv.dot(mu_ls)
        statistic = float(np.maximum.reduce(np.abs(d)))
        if not math.isfinite(statistic):
            _refuse(y)
        for a in (x_ls, mu_ls, d):
            a.setflags(False)   # write=False, passed by position: 4x faster
        return (x_ls, mu_ls, d, statistic,
                max(map(abs, self.Ht.dot(d).tolist())))

    def objective(self, Y, x, nu, gamma):
        """0.5 mu' Minv mu + gamma |nu|_1 at (x, nu), mu = Y - H x - nu."""
        mu = Y - x @ self.H.T - nu
        return (0.5 * (mu * (mu @ self.Minv.T)).sum(axis=-1)
                + gamma * np.abs(nu).sum(axis=-1))


def build_fusion_problem(H_stack, Mtilde_factor) -> FusionProblem:
    """Form the normal equations once, for every time step to share.

    Mtilde_factor is a Cholesky pair (c, lower) of the residual covariance,
    as factor_mtilde (or scipy.linalg.cho_factor) gives it: the factor is
    read from the triangle of c that lower names, and the other triangle
    is ignored.  Minv is formed from the factor as L^-T L^-1.  Every
    design built by this package has a real H and Mtilde; complex data
    raise ValueError, and so does a state that H leaves unobservable.
    """
    c, lower = Mtilde_factor
    for what, a in (("H", H_stack), ("Mtilde", c)):
        if np.iscomplexobj(a):
            raise ValueError(
                f"{what} is complex; the fusion solves real problems only: "
                f"map complex canonical coordinates to real ones "
                f"(decomposition.realification_map) before building the "
                f"problem")
    H = np.array(H_stack, dtype=float)
    Linv = np.linalg.inv(np.tril(c) if lower else np.triu(c).T)
    Minv = Linv.T @ Linv
    Minv = 0.5 * (Minv + Minv.T)
    MiH = Minv @ H
    normal = H.T @ MiH
    normal = 0.5 * (normal + normal.T)
    vals = np.linalg.eigvalsh(normal)
    if vals[0] <= 1e-12 * max(vals[-1], 1e-300):
        raise ValueError("state unobservable in canonical coordinates")
    wls_op = np.linalg.solve(normal, MiH.T)
    S = Minv - MiH @ wls_op
    S_pm = 0.5 * np.vstack((S + S.T, -(S + S.T)))     # S made symmetric
    return FusionProblem(H=H, Ht=H.T.copy(), Minv=Minv, wls_op=wls_op,
                         S_pm=S_pm, S=S_pm[:len(S)])


def check_gamma(gamma):
    """Raise ValueError unless the l1 weight gamma is finite and positive."""
    if not math.isfinite(gamma):
        raise ValueError(f"γ must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError("γ = 0 leaves x̃ non-identifiable")


def _residuals(problem, Y, x, nu, gamma):
    """(mu, KKT residual) at (x, nu) for one row, or for each row of a
    block: stationarity in x, and in nu the distance of s = Minv mu from
    gamma * sign(nu), or |s| - gamma at nu = 0.  The products are taken
    row by row (_dot_rows), so a block's row has the bits of the row
    alone; one row's residual is a 0-d array."""
    mu = Y - _dot_rows(problem.H, x) - nu
    s = _dot_rows(problem.Minv, mu)
    stationarity = np.abs(_dot_rows(problem.Ht, s)).max(axis=-1)
    deviation = (np.abs(s - gamma * np.sign(nu))
                 - gamma * (nu == 0.0)).max(axis=-1)
    # max(stationarity, deviation) as Python's max takes it, NaN included
    return mu, np.where(deviation > stationarity, deviation, stationarity)


def _answer(problem, Y, nu, gamma):
    """(x_tilde, mu, KKT residual) at the homotopy's nu, for one row or
    for each row of a block, row by row as _residuals takes them."""
    x = _dot_rows(problem.wls_op, Y - nu)
    return (x, *_residuals(problem, Y, x, nu, gamma))


def _solve_support(S_pm, sign):
    """The Y-independent half of a homotopy breakpoint on the signed
    support sign, as (act, cols, rate, tie, w, drops).

    act lists the active coordinates, cols = S_pm[:, act], w solves
    S_AA w = s_A, and rate = 1 - cols w, with its tie entries
    (tie = rate <= TIE_RATE, roots that never fire) set to 1.0 so that
    dividing by it cannot warn.  drops lists the positions q in act where
    w_q s_q < 0, whose nu_q moves toward zero.
    """
    act = sign.nonzero()[0]
    cols = S_pm.take(act, axis=1)
    s_act = sign.take(act)
    S_aa = cols.take(act, axis=0)
    w = _solve1(S_aa, s_act)
    if math.isnan(w.item(0)):
        # S_AA singular (LAPACK info > 0, which fills w with NaN): a flat
        # direction, any solution will do
        w = np.linalg.lstsq(S_aa, s_act, rcond=None)[0]
    rate = 1.0 - cols.dot(w)
    tie = rate <= TIE_RATE
    rate[tie] = 1.0
    drops = tuple((w * s_act < 0.0).nonzero()[0].tolist())
    return act, cols, rate, tie, w, drops


@np.errstate(invalid="ignore")     # a singular S_AA: see _solve_support
def _lasso_path(problem, Y, c_ls, gamma, history):
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

    Each breakpoint solves its signed support afresh (_solve_support),
    recomputes c2 = [c; -c] from nu_A with the columns of S_pm = [S; -S]
    (stepping c along would drift) and forms the 2mn join times in numpy,
    masking tie and blocked roots to inf.  The few drop times run on
    Python floats, as a numpy call costs more than the loop.  Products
    use ndarray.dot, which dispatches faster than @: same bits.
    lasso_paths walks many rows at once to the same bits.
    """
    S_pm = problem.S_pm
    mn = len(c_ls)
    # root r < mn is c_r reaching +lam, root mn + j is c_j reaching -lam
    c2_ls = np.concatenate((c_ls, -c_ls))
    nu = np.zeros(mn)
    sign = np.zeros(mn)                     # s_i on the active set, else 0
    blocked = np.zeros(2 * mn, dtype=bool)  # roots that may not fire
    root = int(c2_ls.argmax())
    lam = float(c2_ls[root])
    held = -1       # own-sign root of the coordinate that dropped last
    for it in range(1, MAX_BREAKPOINTS + 1):
        if root >= 0:
            j = root % mn
            sign[j] = 1.0 if root < mn else -1.0
            blocked[j] = blocked[j + mn] = True
        act, cols, rate, tie, w, drops = _solve_support(S_pm, sign)
        nu_act = nu[act]
        c2 = c2_ls - cols.dot(nu_act)
        if history is not None:
            history.append(float(0.5 * (Y - nu) @ c2[:mn]
                                 + gamma * np.abs(nu).sum()))
        join = (lam - c2) / rate
        join[tie | blocked] = np.inf
        root = int(join.argmin())
        t_join = join.item(root)
        if t_join <= 0.0:   # a passed root fires at once, the first one
            root, t_join = int((join <= 0.0).argmax()), 0.0
        t_drop, i = np.inf, 0   # the first active nu_i to reach 0
        for q in drops:
            if (d := max(0.0, -nu_act.item(q) / w.item(q))) < t_drop:
                t_drop, i = d, q
        t = min(t_join, t_drop, lam - gamma)
        nu[act] = nu_act + t * w
        if t >= lam - gamma:
            return nu, it
        lam -= t
        if held >= 0:
            blocked[held] = False
            held = -1
        if t_drop <= t_join:
            k = int(act[i])
            held = k if sign[k] > 0.0 else k + mn
            nu[k] = sign[k] = 0.0
            # the coordinate sits on its own-sign root at t = 0, so
            # only that root stays blocked, for one segment
            blocked[(held + mn) % (2 * mn)] = False
            root = -1
    return nu, MAX_BREAKPOINTS


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def lasso_paths(problem, d_rows, gamma):
    """Walk the homotopy of _lasso_path for every row of d_rows at once.

    d_rows is an (r, mn) block of c_ls = Minv mu_ls rows (the d of a
    least-squares split) whose statistic exceeds gamma.  Returns
    (nu, breakpoints): an (r, mn) array and an (r,) int array whose row i
    holds the bits _lasso_path gives on row i alone.

    Each round moves every live row one breakpoint, and a row that
    reaches gamma leaves the block.  The live rows are grouped by active
    set size k.  A group of g rows gathers its columns of S_pm as one
    C-contiguous (g, 2mn, k) stack and its S_AA as a (g, k, k) one; one
    stacked LAPACK call solves every S_AA (each matrix gets the lone
    solve's bits), and np.matmul forms cols nu_A and cols w with one
    matrix-vector product per row, the bits of cols.dot (see _rows_dot).
    A row whose solve is NaN takes the lone walk's lstsq fallback on its
    own.  The event rules are the lone walk's, row by row: the first
    minimum join time, a passed root firing at once, drop times
    max(0, -nu_q / w_q), the first of equal event times, a dropped
    coordinate's own-sign root held for one segment, and TIE_RATE.  The
    walk has no history; secure_fuse(history=) walks alone.
    """
    S_pm = problem.S_pm
    S_pm_t = S_pm.T.copy()      # rows of S_pm_t[act] are the columns
    r, mn = d_rows.shape
    c2_ls = np.concatenate((d_rows, -d_rows), axis=1)
    nu = np.zeros((r, mn))
    sign = np.zeros((r, mn))
    size = np.zeros(r, dtype=int)           # active set sizes
    blocked = np.zeros((r, 2 * mn), dtype=bool)
    root = c2_ls.argmax(axis=1)
    lam = c2_ls[np.arange(r), root]
    held = np.full(r, -1)
    breakpoints = np.full(r, MAX_BREAKPOINTS)
    live = np.arange(r)
    for it in range(1, MAX_BREAKPOINTS + 1):
        joins = live[root[live] >= 0]
        j = root[joins] % mn
        sign[joins, j] = np.where(root[joins] < mn, 1.0, -1.0)
        size[joins] += 1
        blocked[joins, j] = blocked[joins, j + mn] = True
        live_size = size[live]
        done = np.zeros(r, dtype=bool)
        for k in set(live_size.tolist()):
            g = live[live_size == k]
            on = sign[g] != 0.0
            act = on.nonzero()[1].reshape(-1, k)
            s_act = sign[g][on].reshape(-1, k)
            nu_act = nu[g][on].reshape(-1, k)
            cols = np.ascontiguousarray(S_pm_t[act].transpose(0, 2, 1))
            S_aa = S_pm[act[:, :, None], act[:, None, :]]
            w = _solve1(S_aa, s_act)
            for q in np.isnan(w[:, 0]).nonzero()[0]:
                w[q] = np.linalg.lstsq(S_aa[q], s_act[q], rcond=None)[0]
            c2 = c2_ls[g] - np.matmul(cols, nu_act[:, :, None])[:, :, 0]
            rate = 1.0 - np.matmul(cols, w[:, :, None])[:, :, 0]
            lam_g = lam[g]
            join = (lam_g[:, None] - c2) / rate
            join[(rate <= TIE_RATE) | blocked[g]] = np.inf
            rows = np.arange(len(g))
            root_g = join.argmin(axis=1)
            t_join = join[rows, root_g]
            passed = t_join <= 0.0
            if passed.any():
                root_g[passed] = (join[passed] <= 0.0).argmax(axis=1)
                t_join[passed] = 0.0
            drop = -nu_act / w
            drop = np.where(w * s_act < 0.0,
                            np.where(drop > 0.0, drop, 0.0), np.inf)
            i = drop.argmin(axis=1)
            t_drop = drop[rows, i]
            # t = min(t_join, t_drop, gap), as Python's min takes it
            gap = lam_g - gamma
            t = np.where(t_drop < t_join, t_drop, t_join)
            t = np.where(gap < t, gap, t)
            nu[g[:, None], act] = nu_act + t[:, None] * w
            end = t >= gap
            done[g[end]] = True
            breakpoints[g[end]] = it
            lam[g] = lam_g - t
            release = ~end & (held[g] >= 0)
            blocked[g[release], held[g[release]]] = False
            held[g] = -1
            dropped = ~end & (t_drop <= t_join)
            gd, kd = g[dropped], act[rows, i][dropped]
            hd = np.where(sign[gd, kd] > 0.0, kd, kd + mn)
            nu[gd, kd] = sign[gd, kd] = 0.0
            size[gd] -= 1
            blocked[gd, (hd + mn) % (2 * mn)] = False
            held[gd] = hd
            root[g] = np.where(dropped, -1, root_g)
        live = live[~done[live]]
        if not live.size:
            break
    return nu, breakpoints


class FusedRows(NamedTuple):
    """fuse_open's answers on r open rows, row i for row i of its block.

    x_tilde = wls_op (Y - nu), mu = Y - H x_tilde - nu and kkt, the KKT
    residual at (x_tilde, nu), are the unrefined answer secure_fuse forms
    after its walk (_answer), and breakpoints the walk's segment count.
    A row of it is the walk secure_fuse takes: (x_tilde[i], mu[i], nu[i],
    kkt[i], breakpoints[i]), the two scalars as Python numbers.
    """

    x_tilde: np.ndarray     # (r, n)
    mu: np.ndarray          # (r, mn)
    nu: np.ndarray          # (r, mn)
    kkt: np.ndarray         # (r,) float
    breakpoints: np.ndarray  # (r,) int

    def rows(self) -> list:
        """The walk secure_fuse takes for each row, in order."""
        return list(zip(self.x_tilde, self.mu, self.nu, self.kkt.tolist(),
                        self.breakpoints.tolist()))


def fuse_open(problem, Y, d, gamma) -> FusedRows:
    """Walk the open rows of a block and form their answers, all at once.

    Y is an (r, mn) block of measurements and d their rows of a
    least-squares split, each with a statistic above gamma.  lasso_paths
    walks them in blocks of at most MAX_BLOCK_ROWS rows, and _answer
    forms every row's answer and KKT residual with stacked products (one
    matrix-vector product per row), so row i has the bits of a lone
    secure_fuse on Y[i] up to its refinement step, which secure_fuse
    still takes.
    """
    walks = [lasso_paths(problem, d[lo:lo + MAX_BLOCK_ROWS], gamma)
             for lo in range(0, max(len(d), 1), MAX_BLOCK_ROWS)]
    nu = np.concatenate([w[0] for w in walks])
    breakpoints = np.concatenate([w[1] for w in walks])
    x, mu, kkt = _answer(problem, Y, nu, gamma)
    return FusedRows(x, mu, nu, kkt, breakpoints)


def secure_fuse(problem: FusionProblem, Y, gamma, *, history=None,
                split=None, walk=None) -> FusionResult:
    """Solve the l1-regularized fusion problem for one real measurement Y.

    The threshold test or the lasso homotopy (module docstring) gives the
    answer; it counts as converged when its KKT residual is at most
    KKT_TOL * max(1, gamma).  history, when given a list, collects the
    objective at nu = 0, at every homotopy breakpoint and at the answer.
    It does not increase: along the path its derivative in lambda is
    (lambda - gamma) s_A' S_AA^-1 s_A.

    The gamma-independent half of the solve is the row's least-squares
    split.  split, when given, must be problem.split(block).rows[t] for a
    block whose row t is Y; it is not checked.  A simulator rollout
    carries the split of its whole block, and simulate passes each step
    its row, so a screened step only tests the row's statistic against
    gamma.  Without it, Y is split alone (problem.split_row).  walk, when
    given, must be row i of fuse_open(problem, block, d, gamma), as
    fuse_open(...).rows()[i] gives it, for a block whose row i is Y; it is
    not checked either.  The homotopy is then not walked again and the
    answer not formed again: only the refinement step runs, when the
    row's KKT residual misses the tolerance.  simulate fuses a run's open
    rows as one block (a sweep, the open rows of a trial's runs) and
    passes each step its row.  walk has no history, so passing both
    raises ValueError.
    A 1-D float64 ndarray Y is used as given, and any other form
    converted first.  ValueError is raised for a complex Y, a non-finite
    Y (the screen test propagates NaN, so it never passes one), a finite
    Y so large that the least-squares products overflow, and a gamma
    that is not finite and positive.
    """
    if not 0.0 < gamma < math.inf:
        check_gamma(gamma)
    if walk is not None and history is not None:
        raise ValueError("pass walk or history, not both: a block walk "
                         "records no history")
    if type(Y) is not np.ndarray or Y.dtype != _FLOAT64 or Y.ndim != 1:
        Y = np.asarray(Y)
        if Y.dtype.kind == "c":
            raise ValueError("secure_fuse takes a real measurement, got a "
                             "complex one")
        Y = Y.astype(float, copy=False).reshape(-1)
    if split is None:
        split = problem.split_row(Y)
    x_ls, mu_ls, d_ls, statistic, kkt = split
    if statistic <= gamma:
        if history is not None:
            history.append(float(0.5 * mu_ls @ d_ls))
        return FusionResult(x_ls.copy(), mu_ls, np.zeros(len(Y)), kkt, 0,
                            True, x_ls, True)

    H, Minv, wls_op = problem.H, problem.Minv, problem.wls_op
    eps_eff = KKT_TOL * max(1.0, gamma)
    if walk is None:
        nu, it = _lasso_path(problem, Y, d_ls, gamma, history)
        x, mu, kkt = _answer(problem, Y, nu, gamma)
        kkt = float(kkt)
    else:
        x, mu, nu, kkt, it = walk
    if kkt > eps_eff:
        # one step of iterative refinement of (x, nu_A) on the final
        # support, driven by the residual: when Minv is large, S (Y - nu)
        # loses digits to cancellation that the residual keeps
        act = np.flatnonzero(nu)
        x_r = x + wls_op @ mu
        s = Minv @ (Y - H @ x_r - nu)
        step = np.linalg.lstsq(problem.S[np.ix_(act, act)],
                               s[act] - gamma * np.sign(nu[act]),
                               rcond=None)[0]
        nu_r = nu.copy()
        nu_r[act] += step
        x_r -= wls_op[:, act] @ step
        mu_r, kkt_r = _residuals(problem, Y, x_r, nu_r, gamma)
        kkt_r = float(kkt_r)
        if kkt_r < kkt:
            x, nu, mu, kkt = x_r, nu_r, mu_r, kkt_r
    if history is not None:
        history.append(float(problem.objective(Y, x, nu, gamma)))
    return FusionResult(
        x_tilde=x, mu=mu, nu=nu, kkt_residual=kkt, iterations=it,
        kalman_equivalent=False, x_ls=x_ls, converged=bool(kkt <= eps_eff))
