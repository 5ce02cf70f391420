"""Secure fusion of the local bank's canonical measurement.

The canonical measurement is a redundant linear view of the plant state,
Y = H x + mu + nu, where mu carries the stationary Gaussian residual
(covariance Mtilde) and nu absorbs whole-sensor corruption.  The fused
estimate minimizes

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
once, when it is built, so the canonical measurement Y, H and Mtilde are
real arrays.  FusionProblem owns the operators every step
shares (the least-squares split of a block of measurements, and the
threshold statistic); complex problem data are rejected when the
problem is built, and a complex Y when it is fused.
lasso_paths is the one homotopy walk: it walks the open rows of a block
together, one breakpoint per round, and row i gets the bits it has in a
block of one.  fuse_open walks a block's open rows that way, at most
MAX_BLOCK_ROWS per call, and forms every row's x_tilde, mu and KKT
residual with stacked products; fuse_runs, the one way a simulated
run's open rows reach it, batches the open rows of consecutive runs.
secure_fuse takes a row of a split and a row of such a walk, or splits
and fuses its Y as a block of one when it is given none, and only
refines the walk's answer, when its KKT residual misses the tolerance,
and builds its FusionResult.  The module needs numpy alone: Minv comes
from the covariance's Cholesky factor, and the homotopy's small solves
call numpy's LAPACK gufunc directly, on a stack of matrices at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np
# the LAPACK gufunc that np.linalg.solve dispatches to, called directly
# (a private name): it gives that function's bits without its checks (2.5
# us against 7.2 us on one 5 x 5 system), and a singular matrix fills its
# answer with NaN instead of raising; the walk calls it once per round and
# active-set size, on the stack of every S_AA of that size
from numpy.linalg._umath_linalg import solve1 as _solve1

KKT_TOL = 1e-8          # KKT residual target on unit-scaled problems
MAX_BREAKPOINTS = 500   # homotopy segments before a solve gives up (cycling)
TIE_RATE = 1e-9         # join rate below which a root never fires
# rows one lasso_paths call walks, and one fuse_runs batch holds, at most:
# the largest block a default-horizon run makes.  One default sweep-attack
# trial (pendulum, 11 runs of 1000 open rows, 2 CPUs) peaks at 54.7 / 56.7
# / 62.2 / 98.7 MB ru_maxrss with a cap of 500 / 1000 / 2000 / none, in
# 0.26-0.49 s at each (55.1 MB, 0.41-0.66 s, with one block per run and
# per-step answers)
MAX_BLOCK_ROWS = 1000
_FLOAT64 = np.dtype(float)


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
    the API: simulate takes x_tilde, kkt_residual, iterations and
    converged from each step's result by position as it returns, and
    keeps no result past its step.  x_ls,
    and mu on a screened step, are read-only rows of the least-squares
    split (FusionProblem.split, whose block is Y alone when secure_fuse
    was handed no split), which results that were passed the same split
    share.  On an open step x_tilde, mu and nu are always one row's views
    of a block's arrays (fuse_open, whose block is the row alone when
    secure_fuse was handed no walk), unless the refinement step replaced
    them; each row belongs to one result.  A screened step allocates
    nothing: x_tilde is x_ls itself (r.x_tilde is r.x_ls exactly when the
    step screened) and nu the problem's read-only FusionProblem.zero_nu.
    secure_fuse, which simulate calls once per step, builds its results
    with tuple.__new__, as namedtuple's _make does, without the generated
    __new__'s frame.
    """

    x_tilde: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    kkt_residual: float
    iterations: int
    kalman_equivalent: bool
    x_ls: np.ndarray
    converged: bool


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

    least_squares takes one measurement Y of length mn, or an (h, mn)
    block with one measurement per row, and answers per row; split takes
    a block, and a lone row as a block of one.  Both form each row's
    products as the row form would (_rows_dot), so row t of a block's
    answer has the bits of the answer on Y[t] alone, whatever the block.
    S is a view of the top half of S_pm = [S; -S], which the homotopy
    reads.  Its fields are its operators and nothing else, and no call
    changes them; zero_nu, the nu of every screened result, is derived on
    first use and kept.
    """

    H: np.ndarray          # mn x n
    Ht: np.ndarray         # n x mn, H transposed
    Minv: np.ndarray       # inverse of the (ridged) residual covariance
    wls_op: np.ndarray     # x_ls = wls_op @ Y
    S_pm: np.ndarray       # [S; -S], 2mn x mn
    S: np.ndarray          # Minv - Minv H wls_op, the x-eliminated quadratic

    @functools.cached_property
    def zero_nu(self):
        """The read-only zero row of length mn, built on first use and kept
        as SensorDecomposition.fusion_problem is; a copy made by
        dataclasses.replace starts without it."""
        nu = np.zeros(len(self.H))
        nu.setflags(write=False)
        return nu

    def least_squares(self, Y):
        """(x_ls, mu_ls) minimizing 0.5 mu' Minv mu subject to Y = H x + mu."""
        x_ls = _rows_dot(Y, self.wls_op.T)
        return x_ls, Y - _rows_dot(x_ls, self.H.T)

    def split(self, Y) -> LeastSquaresSplit:
        """The gamma-independent half of a fusion solve on every row of
        the (h, mn) block Y, which every gamma's solve on that row reads.

        The first row whose statistic is not finite raises ValueError, with
        the message that row gives in a block of one (_refuse).
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


def build_fusion_problem(H_stack, Mtilde_factor) -> FusionProblem:
    """Form the normal equations once, for every time step to share.

    Mtilde_factor is the lower Cholesky factor L of the residual
    covariance, L L^T = Mtilde, as factor_mtilde (or np.linalg.cholesky)
    gives it; Minv is formed from it as L^-T L^-1.  Every design built by
    this package has a real H and Mtilde; complex data raise ValueError,
    and so does a state that H leaves unobservable.  A square H leaves no
    parity space, so S is set to zero and wls_op to H^-1.  A one-sensor
    design has mn = n and H = I, so mu_ls is exactly zero: every row
    screens, and x_tilde = x_ls.
    """
    for what, a in (("H", H_stack), ("Mtilde", Mtilde_factor)):
        if np.iscomplexobj(a):
            raise ValueError(
                f"{what} is complex; the fusion solves real problems only: "
                f"map complex canonical coordinates to real ones "
                f"(decomposition.realification_map) before building the "
                f"problem")
    H = np.array(H_stack, dtype=float)
    Linv = np.linalg.inv(Mtilde_factor)
    Minv = Linv.T @ Linv
    Minv = 0.5 * (Minv + Minv.T)
    MiH = Minv @ H
    normal = H.T @ MiH
    normal = 0.5 * (normal + normal.T)
    vals = np.linalg.eigvalsh(normal)
    if vals[0] <= 1e-12 * max(vals[-1], 1e-300):
        raise ValueError("state unobservable in canonical coordinates")
    if H.shape[0] == H.shape[1]:
        # no parity space: x = H^-1 Y fits every Y, so S is exactly zero
        wls_op = np.linalg.inv(H)
        S = np.zeros_like(Minv)
    else:
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
    """(x_tilde, mu, KKT residual) at the homotopy's nu for each row of a
    block, row by row as _residuals takes them."""
    x = _dot_rows(problem.wls_op, Y - nu)
    return (x, *_residuals(problem, Y, x, nu, gamma))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def lasso_paths(problem, d_rows, gamma):
    """Walk the lasso homotopy of min 0.5 (Y - nu)' S (Y - nu) + lam |nu|_1
    for every row of d_rows at once, from lam = max |c_ls|, where nu = 0,
    down to lam = gamma.

    d_rows is an (r, mn) block of c_ls = S Y = Minv mu_ls rows (the d of
    a least-squares split) whose statistic exceeds gamma.  Returns
    (nu, breakpoints): an (r, mn) array and an (r,) int array of segment
    counts, MAX_BREAKPOINTS for a row that reached the cap.  Row i has the
    bits it has in a block of one.

    On a segment with active set A and signs s_A, lowering lam by t moves
    nu_A by t w_A, with S_AA w_A = s_A, and the correlation c = S (Y - nu)
    by -t a, with a = S[:, A] w_A, so that c_A stays at (lam - t) s_A.
    The segment ends at the first of three events: an inactive c_j
    reaches +-(lam - t) (j joins with that sign; root j < mn is c_j
    reaching +lam, root mn + j is c_j reaching -lam), an active nu_q
    reaches zero (q drops), or lam - t reaches gamma.  A root whose rate
    1 - a_j is at most TIE_RATE is taken to move with the bound: its
    coordinate completes a flat direction of the objective and would make
    S_AA singular.  Each breakpoint solves its signed support afresh and
    recomputes c2 = [c; -c] from nu_A with the columns of S_pm = [S; -S]
    (stepping c along would drift).  The first minimum join time wins, a
    passed root (negative join time) fires at once, drop times are
    max(0, -nu_q / w_q), a drop wins a tie with a join, and a dropped
    coordinate sits on its own-sign root at t = 0, so that root alone
    stays blocked, for one segment.  A row whose last active coordinate
    dropped is back at nu = 0: there c = c_ls, every rate is 1, nothing
    can drop, and it solves nothing before its passed root fires.

    Each round moves every live row one breakpoint, and a row that
    reaches gamma leaves the block.  The live rows are grouped by active
    set size k.  A group of g rows gathers its columns of S_pm as one
    C-contiguous (g, 2mn, k) stack and its S_AA as a (g, k, k) one; one
    stacked LAPACK call solves every S_AA (each matrix gets the bits of
    its own solve), and np.matmul forms cols nu_A and cols w with one
    matrix-vector product per row (see _rows_dot).  A row whose S_AA is
    singular (LAPACK info > 0, which fills its w with NaN) lies on a flat
    direction, and any solution will do: it takes lstsq's on its own.
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
            rows = np.arange(len(g))
            on = sign[g] != 0.0
            act = on.nonzero()[1].reshape(len(g), k)
            s_act = sign[g][on].reshape(len(g), k)
            nu_act = nu[g][on].reshape(len(g), k)
            if k:
                cols = np.ascontiguousarray(S_pm_t[act].transpose(0, 2, 1))
                S_aa = S_pm[act[:, :, None], act[:, None, :]]
                w = _solve1(S_aa, s_act)
                for q in np.isnan(w[:, 0]).nonzero()[0]:
                    w[q] = np.linalg.lstsq(S_aa[q], s_act[q], rcond=None)[0]
                c2 = c2_ls[g] - np.matmul(cols, nu_act[:, :, None])[:, :, 0]
                rate = 1.0 - np.matmul(cols, w[:, :, None])[:, :, 0]
                drop = -nu_act / w
                drop = np.where(w * s_act < 0.0,
                                np.where(drop > 0.0, drop, 0.0), np.inf)
                i = drop.argmin(axis=1)
                t_drop = drop[rows, i]
            else:       # an empty active set: nu = 0
                w, c2, rate = nu_act, c2_ls[g], np.ones((len(g), 2 * mn))
                i, t_drop = np.zeros(len(g), dtype=int), np.full(len(g), np.inf)
            lam_g = lam[g]
            join = (lam_g[:, None] - c2) / rate
            join[(rate <= TIE_RATE) | blocked[g]] = np.inf
            root_g = join.argmin(axis=1)
            t_join = join[rows, root_g]
            passed = t_join <= 0.0
            if passed.any():
                root_g[passed] = (join[passed] <= 0.0).argmax(axis=1)
                t_join[passed] = 0.0
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
            gd, kd = g[dropped], act[rows[dropped], i[dropped]]
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

    Y is an (r, mn) block of r >= 1 measurements and d their rows of a
    least-squares split, each with a statistic above gamma.  lasso_paths
    walks them in blocks of at most MAX_BLOCK_ROWS rows, and _answer
    forms every row's answer and KKT residual with stacked products (one
    matrix-vector product per row), so row i has the bits it has in a
    block of one: those secure_fuse forms on Y[i] alone, up to its
    refinement step, which secure_fuse still takes.
    """
    walks = [lasso_paths(problem, d[lo:lo + MAX_BLOCK_ROWS], gamma)
             for lo in range(0, len(d), MAX_BLOCK_ROWS)]
    nu = np.concatenate([w[0] for w in walks])
    breakpoints = np.concatenate([w[1] for w in walks])
    x, mu, kkt = _answer(problem, Y, nu, gamma)
    return FusedRows(x, mu, nu, kkt, breakpoints)


def _batches(sizes, cap) -> list[list]:
    """Split the keys of sizes (key -> rows), in order, into runs of
    consecutive keys whose rows add up to at most cap; a key with more
    rows than cap is a batch of its own."""
    batches, total = [], cap + 1
    for key, rows in sizes.items():
        if total + len(rows) > cap:
            batches.append([])
            total = 0
        batches[-1].append(key)
        total += len(rows)
    return batches


def fuse_runs(problem, runs, gamma):
    """Fuse the open rows of a sequence of runs, yielding each run's part.

    runs holds one (Y, d, open_rows) per run: its canonical measurement,
    the d of its least-squares split and the indices of its rows whose
    statistic exceeds gamma.  Consecutive runs are batched while their
    open rows add up to at most MAX_BLOCK_ROWS, read at call time (a run
    with more is a batch of its own, which fuse_open walks MAX_BLOCK_ROWS
    rows per call), and each batch's open rows are fused by one fuse_open
    call.  Each run gets its rows of that call's FusedRows, in step order,
    or None when its batch has no open row, which walks nothing.  A batch
    is fused only when its first run is asked for, and its gathered Y and
    d rows are freed when fuse_open returns, so a caller that drops each
    run's part before the next holds one batch's answers at a time.
    """
    for keys in _batches({i: run[2] for i, run in enumerate(runs)},
                         MAX_BLOCK_ROWS):
        batch = [runs[i] for i in keys]
        ends = np.cumsum([len(rows) for _, _, rows in batch]).tolist()
        if not ends[-1]:
            yield from [None] * len(batch)
        else:
            fused = fuse_open(
                problem, np.concatenate([Y[rows] for Y, _, rows in batch]),
                np.concatenate([d[rows] for _, d, rows in batch]), gamma)
            for lo, hi in zip([0] + ends, ends):
                yield FusedRows(*(part[lo:hi] for part in fused))


def secure_fuse(problem: FusionProblem, Y, gamma, *, split=None,
                walk=None) -> FusionResult:
    """Solve the l1-regularized fusion problem for one real measurement Y.

    The threshold test or the lasso homotopy (module docstring) gives the
    answer; it counts as converged when its KKT residual is at most
    KKT_TOL * max(1, gamma).

    The gamma-independent half of the solve is the row's least-squares
    split.  split, when given, must be problem.split(block).rows[t] for a
    block whose row t is Y; it is not checked.  A simulator rollout
    carries the split of its whole block, and simulate passes each step
    its row, so a screened step only tests the row's statistic against
    gamma and answers with arrays it already holds: the row's read-only
    x_ls as x_tilde and problem.zero_nu as nu.  Without it, Y is split as
    a block of one.  walk, when
    given, must be row i of fuse_open(problem, block, d, gamma), as
    fuse_open(...).rows()[i] gives it, for a block whose row i is Y; it is
    not checked either.  simulate fuses a run's open rows as one block (a
    sweep, the open rows of a trial's runs) and passes each step its row.
    Without it, an open Y is fused as a block of one.  Either way the
    answer is refined once, when its KKT residual misses the tolerance.
    A 1-D float64 ndarray Y is used as given, and any other form
    converted first.  ValueError is raised for a complex Y, a non-finite
    Y (the screen test propagates NaN, so it never passes one), a finite
    Y so large that the least-squares products overflow, and a gamma
    that is not finite and positive.
    """
    if not 0.0 < gamma < math.inf:
        check_gamma(gamma)
    if type(Y) is not np.ndarray or Y.dtype != _FLOAT64 or Y.ndim != 1:
        Y = np.asarray(Y)
        if Y.dtype.kind == "c":
            raise ValueError("secure_fuse takes a real measurement, got a "
                             "complex one")
        Y = Y.astype(float, copy=False).reshape(-1)
    if split is None:
        split = problem.split(Y[None]).rows[0]
    x_ls, mu_ls, d_ls, statistic, kkt = split
    if statistic <= gamma:
        return tuple.__new__(FusionResult, (x_ls, mu_ls, problem.zero_nu,
                                            kkt, 0, True, x_ls, True))

    if walk is None:
        walk = fuse_open(problem, Y[None], d_ls[None], gamma).rows()[0]
    x, mu, nu, kkt, it = walk
    eps_eff = KKT_TOL * max(1.0, gamma)
    if kkt > eps_eff:
        # one step of iterative refinement of (x, nu_A) on the final
        # support, driven by the residual: when Minv is large, S (Y - nu)
        # loses digits to cancellation that the residual keeps
        H, Minv, wls_op = problem.H, problem.Minv, problem.wls_op
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
    return tuple.__new__(FusionResult, (x, mu, nu, kkt, it, False, x_ls,
                                        bool(kkt <= eps_eff)))
