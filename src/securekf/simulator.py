"""Closed-loop simulation harness and Monte Carlo sweeps.

Rolls the plant forward under true-state feedback while three estimators
read the same measurement stream: the fixed-gain filter, the weighted
least-squares fusion of the local bank, and the secure (l1-regularized)
fusion.  No estimate feeds back into the plant, the filter or the bank,
so a run first rolls all of those out over the whole horizon as arrays
and splits the least squares of the whole canonical measurement at once.
The rows the screen leaves open are fused together through
fusion.fuse_runs; each step's secure_fuse call then takes its row.  In
the decomposition's real coordinates each sensor's bank is one real
n x n transition, so the plant, the filter and the bank roll out through
the same recurrence.  Neither the rollout nor its split depends on the
regularization weight gamma, so runs that differ only in gamma can share
them, and the plant itself does not depend on the attack.  Sparse sensor
attacks are injected additively on a fixed support.  Sweep helpers
aggregate per-trial mean squared errors over a grid of regularization
weights or attack magnitudes, rolling all of a trial's attacks out in one
straight stacked pass (one plant, each array checked once, one
least-squares split) for every gamma to read and fusing the open rows of
a trial's runs at each gamma together; trace_csv and sweep_csv render
traces and sweeps as CSV text.  Every run is reproducible from (seed,
trial) and fuses with its decomposition's one FusionProblem
(SensorDecomposition.fusion_problem), built on first use.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import sys
from typing import NamedTuple

import numpy as np

from .decomposition import SensorDecomposition
from .fusion import (FusedRows, FusionProblem, LeastSquaresSplit,
                     check_gamma, fuse_runs, secure_fuse)
from .model import SystemModel, psd_factor
from .spectral import SpectralDesign
# not called here; bound so perfbench/tracer.py can wrap it by this module
from .fusion import build_fusion_problem  # noqa: F401

ATTACK_KINDS = ("none", "constant", "uniform", "ramp")
DEFAULT_HORIZON = 1000
DEFAULT_BURN_IN = 50
DEFAULT_TRIALS = 20
DEFAULT_GAMMAS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
DEFAULT_MAGNITUDES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    """Additive sensor attack with a fixed support.

    support lists the attacked sensor indices (0-based).  kind selects
    the waveform injected on every supported sensor from start_step on:

      none      nothing (support must be empty)
      constant  magnitude at every active step
      uniform   i.i.d. draws from the open interval (-magnitude, magnitude)
      ramp      magnitude * (k - start_step), growing by magnitude per step

    Steps are counted from k = 1 (the first measurement); start_step = 0
    means the attack is active from the beginning.  A uniform magnitude
    above sys.float_info.max / 2, whose draw range overflows, is refused.
    """

    support: tuple[int, ...] = ()
    kind: str = "none"
    magnitude: float = 0.0
    start_step: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; "
                             f"expected one of {ATTACK_KINDS}")
        support = tuple(sorted({int(i) for i in self.support}))
        if any(i < 0 for i in support):
            raise ValueError(f"attack support contains a negative sensor "
                             f"index: {support}")
        if self.kind == "none" and support:
            raise ValueError("attack kind 'none' cannot have a support")
        if self.kind != "none" and not support:
            raise ValueError(f"attack kind {self.kind!r} needs a non-empty "
                             f"support")
        if not math.isfinite(self.magnitude):
            raise ValueError("attack magnitude must be finite")
        if self.kind == "uniform" and self.magnitude < 0:
            raise ValueError("uniform attack magnitude must be nonnegative")
        if self.kind == "uniform" and self.magnitude > sys.float_info.max / 2:
            raise ValueError(f"uniform attack magnitude "
                             f"{float(self.magnitude)!r} is too large: its "
                             f"draw range 2 * magnitude is not finite")
        if self.start_step < 0:
            raise ValueError("attack start_step must be nonnegative")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "magnitude", float(self.magnitude))
        object.__setattr__(self, "start_step", int(self.start_step))


def attack_sequence(attack: AttackSpec, m: int, horizon: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Materialize a(k) for k = 1..horizon as a (horizon, m) array.

    Every row's support stays inside attack.support, and for a nonzero
    waveform every supported sensor is hit at least once over the run.
    """
    if any(i >= m for i in attack.support):
        bad = [i for i in attack.support if i >= m]
        raise ValueError(f"attack support {bad} out of range for {m} sensors")
    a = np.zeros((horizon, m))
    if attack.kind == "none" or not attack.support:
        return a
    k = np.arange(1, horizon + 1)
    active = k >= attack.start_step
    mag = attack.magnitude
    cols = list(attack.support)
    if attack.kind == "constant":
        a[np.ix_(active, cols)] = mag
    elif attack.kind == "ramp":
        ramp = mag * (k - attack.start_step)
        a[:, cols] = np.where(active, ramp, 0.0)[:, None]
    elif attack.kind == "uniform":
        if mag > 0:
            draws = rng.uniform(-mag, mag, size=(int(active.sum()), len(cols)))
            # numpy's uniform is closed at the low end; redraw the
            # measure-zero hits so the interval stays open
            low = draws <= -mag
            while low.any():
                draws[low] = rng.uniform(-mag, mag, size=int(low.sum()))
                low = draws <= -mag
            a[np.ix_(active, cols)] = draws
    off = [i for i in range(m) if i not in attack.support]
    assert not a[:, off].any()
    # a ramp is still zero at k = start_step
    first = attack.start_step + (attack.kind == "ramp")
    if mag != 0 and horizon >= max(first, 1):
        assert all(a[:, i].any() for i in cols)
    return a


@dataclasses.dataclass(frozen=True)
class SimulationTrace:
    """Per-step record of one closed-loop run.

    Row t corresponds to step k = t + 1: x holds the true state after
    the transition, u the input that drove it, z the clean measurement,
    a the injected attack, and y = z + a what the estimators saw.  The
    solver columns describe the secure fusion at that step;
    screen_statistic is the threshold statistic max |Minv mu_ls| of the
    step's canonical measurement; kalman_equivalent, derived from it, holds
    exactly where it is at most gamma.  xhat_ls and screen_statistic are the
    read-only x_ls and statistic arrays of the rollout's least-squares
    split, which runs that share the rollout share.
    """

    seed: int
    trial: int
    gamma: float
    horizon: int
    attack: AttackSpec
    x: np.ndarray
    u: np.ndarray
    z: np.ndarray
    y: np.ndarray
    a: np.ndarray
    xhat_kal: np.ndarray
    xhat_sec: np.ndarray
    xhat_ls: np.ndarray
    solver_iters: np.ndarray
    kkt_residual: np.ndarray
    solver_converged: np.ndarray
    screen_statistic: np.ndarray

    @property
    def kalman_equivalent(self) -> np.ndarray:
        return self.screen_statistic <= self.gamma

    @property
    def unconverged_steps(self) -> int:
        return int((~self.solver_converged).sum())


def trial_generators(seed, trial):
    """Four independent Philox streams for one (seed, trial) pair.

    Order: initial state, process noise, measurement noise, attack.  A
    negative seed or trial raises ValueError naming both.
    """
    if seed < 0 or trial < 0:
        raise ValueError(f"seed and trial must be nonnegative, got seed "
                         f"{seed}, trial {trial}")
    children = np.random.SeedSequence((seed, trial)).spawn(4)
    return tuple(np.random.Generator(np.random.Philox(c)) for c in children)


def _recurrence(M, e, s0):
    """Rows s[t] = M s[t-1] + e[t] for t = 0 .. T - 1, s[-1] = s0, with
    time on the second-to-last axis of e; a leading axis stacks sequences
    that share M and s0 (a trial's attacks), and each makes the matrix
    products it makes alone.

    Recursive doubling: after the pass with shift k, s[t] sums M^j e[t - j]
    over j < 2k, so log2(T) array operations replace a loop over time.
    """
    s = e.copy()
    s[..., 0, :] += M @ s0
    power, shift = M, 1
    while shift < s.shape[-2]:
        s[..., shift:, :] += s[..., :-shift, :] @ power.T
        power = power @ power
        shift *= 2
    return s


class Rollout(NamedTuple):
    """The part of a run that does not depend on gamma.

    The run it belongs to is (attack, horizon, seed, trial); the arrays
    have one row per step, as in SimulationTrace, and Y is the bank's
    canonical measurement.  Every array is real and finite.  split is Y's
    least-squares split on the rollout's problem (FusionProblem.split),
    which it records as split.problem.  The rollouts of one stacked pass
    (_rollouts) share the plant's x, u and z; y, a, xhat_kal and Y are
    views of the pass's stacked arrays, and split's arrays and rows are
    slices of the one split of all its rows, with the bits each attack's
    rollout has on its own.
    """

    attack: AttackSpec
    horizon: int
    seed: int
    trial: int
    x: np.ndarray
    u: np.ndarray
    z: np.ndarray
    y: np.ndarray
    a: np.ndarray
    xhat_kal: np.ndarray
    Y: np.ndarray
    split: LeastSquaresSplit


def _check_finite(*named) -> None:
    """Raise ValueError naming the first (name, array) pair of named whose
    array holds a non-finite value."""
    for name, arr in named:
        if not np.isfinite(arr).all():
            raise ValueError(f"simulation produced non-finite {name}")


@np.errstate(over="ignore", invalid="ignore")
def _rollouts(model, design, decomposition, problem, attacks, horizon, seed,
              trial) -> list[Rollout]:
    """Roll the plant, the fixed-gain filter and the bank out over the
    whole horizon under each attack of the sequence attacks, in one
    straight pass, and split every attack's Y on problem.

    The plant runs under true-state feedback from x0 ~ N(0, Sigma) on the
    first three streams of (seed, trial), once for all the attacks; each
    attack draws from a fresh generator on the fourth stream's seed, as
    trial_generators(seed, trial)[3] would.  The attacks sit on a leading
    axis: _recurrence runs over the stack, and one FusionProblem.split
    covers the rows of every attack, which each Rollout slices.  Every
    product is taken per attack, so each Rollout has the bits of the
    batch of one (_rollout).  A pass raises the ValueError of its first
    failing check in pipeline order across the whole stack, and within a
    check the first attack: a non-finite x, u or z, the draws (a sensor
    out of range), a non-finite y, xhat_kal or canonical measurement,
    then the split (products that overflow).
    """
    n, m = model.n, model.m
    A, C = model.A, model.C
    B, K = model.input_matrix(), model.feedback_gain()
    g_init, g_proc, g_meas, g_att = trial_generators(seed, trial)
    x0 = psd_factor(model.Sigma) @ g_init.standard_normal(n)
    w = g_proc.standard_normal((horizon, n)) @ psd_factor(model.Q).T
    v = g_meas.standard_normal((horizon, m)) @ psd_factor(model.R).T
    # x(k) = A x(k-1) + B u(k) + w(k) under u(k) = -K x(k-1)
    x = _recurrence(A - B @ K, w, x0)
    u = -(np.vstack((x0, x[:-1])) @ K.T)
    z = x @ C.T + v
    _check_finite(("x", x), ("u", u), ("z", z))
    attack_seed = g_att.bit_generator.seed_seq
    a = np.array([attack_sequence(
        attack, m, horizon, np.random.Generator(np.random.Philox(attack_seed)))
        for attack in attacks])
    y = z + a
    # fixed-gain filter: x_hat <- (A - KCA) x_hat + K y + (B - KCB) u
    KC = design.K @ C
    x_kal = _recurrence(A - KC @ A, y @ design.K.T + u @ (B - KC @ B).T,
                        np.zeros(n))
    # local bank: zeta_i <- bank zeta_i + b y_i + (G_i - b C_i) B u, with
    # b = bank_input, every sensor at once: the transition is block diagonal
    Bu = u @ B.T
    drive = ((Bu @ decomposition.G_stack.T).reshape(horizon, m, n)
             + (y - Bu @ C.T)[..., None] * decomposition.bank_input
             ).reshape(len(a), horizon, m * n)
    zeta = _recurrence(np.kron(np.eye(m), decomposition.bank), drive,
                       np.zeros(m * n))
    Y = zeta @ decomposition.Ptilde.T
    _check_finite(("y", y), ("xhat_kal", x_kal), ("canonical measurement", Y))
    split = problem.split(Y.reshape(-1, m * n))
    return [Rollout(attack, horizon, seed, trial, x, u, z, y[k], a[k],
                    x_kal[k], Y[k], LeastSquaresSplit(
                        *(part[k * horizon:(k + 1) * horizon]
                          for part in split[:-1]), problem))
            for k, attack in enumerate(attacks)]


def _rollout(model, design, decomposition, problem, attack, horizon, seed,
             trial) -> Rollout:
    """The rollout of one attack: _rollouts' batch of one."""
    return _rollouts(model, design, decomposition, problem, (attack,),
                     horizon, seed, trial)[0]


# One step of the filter and of the bank, as _rollouts rolls them out over
# a whole run: the step-by-step reference the tests hold simulate to.

def _step_inputs(y, u, model):
    """(y, u, B) for one step: y and u as flat float arrays, B the model's
    input matrix; ValueError for a y of length other than m, or a u of
    length other than B's column count."""
    y = np.asarray(y, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if y.shape[0] != model.m:
        raise ValueError(f"measurement has length {y.shape[0]}, expected "
                         f"{model.m}")
    B = model.input_matrix()
    if u.shape[0] != B.shape[1]:
        raise ValueError(f"input has length {u.shape[0]}, expected "
                         f"{B.shape[1]}")
    return y, u, B


def fixed_gain_kalman_step(x_hat: np.ndarray, y: np.ndarray, u: np.ndarray,
                           design: SpectralDesign,
                           model: SystemModel) -> np.ndarray:
    """One fixed-gain filter update driven by the next measurement.

    x_hat_next = (A - K C A) x_hat + K y + (I - K C) B u.
    """
    A, C, K = model.A, model.C, design.K
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    if x_hat.shape[0] != model.n:
        raise ValueError(f"state estimate has length {x_hat.shape[0]}, "
                         f"expected {model.n}")
    y, u, B = _step_inputs(y, u, model)
    KC = K @ C
    return (A - KC @ A) @ x_hat + K @ y + (B - KC @ B) @ u


def local_estimator_step(zeta, y, u, decomposition: SensorDecomposition,
                         model: SystemModel) -> np.ndarray:
    """Advance every sensor's filter bank by one measurement.

    zeta is the (m, n) array of bank states, row i for sensor i, and the
    answer is the next one: zeta_i(k+1) = bank zeta_i(k) + b y_i(k+1)
    + (G_i - b C_i) B u(k), with bank, b = bank_input and G_i read off the
    (real) decomposition; the input term keeps the residual zeta_i - G_i x
    driven by noise and attack only, independent of the control signal.
    A bank that starts at zero matches a zero prior state estimate.
    """
    n, m = model.n, model.m
    y, u, B = _step_inputs(y, u, model)
    z = np.asarray(zeta, dtype=float)
    if z.shape != (m, n):
        raise ValueError(f"bank holds states of shape {z.shape}, expected "
                         f"{(m, n)}")
    Bu = B @ u
    drive = ((decomposition.G_stack @ Bu).reshape(m, n)
             + (y - model.C @ Bu)[:, None] * decomposition.bank_input)
    return z @ decomposition.bank.T + drive


def assemble_canonical_measurement(zeta, decomposition: SensorDecomposition
                                   ) -> np.ndarray:
    """Stack P_i zeta_i over sensors into the fused measurement Y, for the
    (m, n) array zeta of bank states."""
    return decomposition.Ptilde @ np.asarray(zeta, dtype=float).reshape(-1)


def simulate(model: SystemModel, design: SpectralDesign,
             decomposition: SensorDecomposition, attack: AttackSpec,
             gamma: float, horizon: int = DEFAULT_HORIZON, seed: int = 0, *,
             trial: int = 0, problem: FusionProblem | None = None,
             rollout: Rollout | None = None,
             walk: FusedRows | None = None) -> SimulationTrace:
    """Run the plant and all three estimators for `horizon` steps.

    The input is true-state feedback u(k) = -K_lqr x(k); estimators never
    close the loop, so the plant, the fixed-gain filter and the local bank
    are rolled out over the whole horizon first, and the least squares of
    the whole rollout split at once (FusionProblem.split).  The rows whose
    statistic exceeds gamma are open, and the run fuses them through
    fusion.fuse_runs, as a sequence of one run, which gives each row the
    bits it has in a block of one; a run that the screen settles walks
    nothing.  The secure fusion then runs step by step: one secure_fuse
    call per step, passed its row of the split and, on an open step, its
    row of the block, so that a screened step only tests the row's
    statistic against gamma and an open one only refines its answer when
    that misses the KKT tolerance.  The trace keeps x_tilde, the KKT
    residual, the iteration count and the convergence flag of each step's
    FusionResult, which is let go as soon as they are taken; it computes
    no MSE (mse does).  A screened step's x_tilde is its read-only row of
    the split's x_ls, and xhat_sec stacks the steps' x_tilde into a new
    array.  All randomness
    (initial state, process noise, measurement noise, attack draws) comes
    from independent substreams of (seed, trial), so two runs that differ
    only in the attack share the same noise and the same clean
    measurements; the initial state is drawn from N(0, Sigma).  Solver
    non-convergence at a step is recorded in the trace and the run
    continues; a non-finite state, measurement or estimate raises
    ValueError.

    Without a problem or a rollout, the run fuses with the
    decomposition's FusionProblem (SensorDecomposition.fusion_problem).
    The rollout and its split do not depend on gamma, so runs that
    differ only in gamma can share them: pass the rollout as `rollout`.
    Its split records the problem it was made on, which the run then
    fuses with; passing a different `problem` raises ValueError, as the
    screen and the l1 solve would read two designs.  It must be the
    rollout of this (attack, horizon, seed, trial): a rollout of another
    run raises ValueError.  A measurement so large that the least-squares
    products overflow raises ValueError before any step is fused.

    walk, when given, is this run's part of fuse_runs' answer at gamma,
    as a sweep passes it to each of a trial's runs; the run then fuses
    nothing itself.  A walk whose row count differs from the run's open
    rows raises ValueError; its rows are not checked otherwise.
    """
    _check_horizon(horizon)
    check_gamma(gamma)
    if rollout is None:
        if problem is None:
            problem = decomposition.fusion_problem
        rollout = _rollout(model, design, decomposition, problem, attack,
                           horizon, seed, trial)
    elif rollout[:4] != (attack, horizon, seed, trial):
        raise ValueError(f"rollout of (attack, horizon, seed, trial) = "
                         f"{rollout[:4]} passed for a run of "
                         f"{(attack, horizon, seed, trial)}")
    elif problem is not None and problem is not rollout.split.problem:
        raise ValueError("the rollout was split on another FusionProblem: "
                         "pass the rollout's own problem, or none")
    x, u, z, y, a, x_kal, Y, split = rollout[4:]
    problem = split.problem
    open_rows = (split.statistic > gamma).nonzero()[0]
    if walk is None:
        walk = next(fuse_runs(problem, [(Y, split.d, open_rows)], gamma))
    elif len(walk.nu) != len(open_rows):
        raise ValueError(f"walk of {len(walk.nu)} rows passed for a run "
                         f"with {len(open_rows)} open rows at γ = {gamma}")
    walks = [None] * horizon
    if walk is not None:
        for t, row in zip(open_rows.tolist(), walk.rows()):
            walks[t] = row
    # each step's FusionResult goes as soon as its fields are taken:
    # CPython's collector never untracks a tuple subclass, so a run's
    # results held to the end would drive its collections
    fields = operator.itemgetter(0, 3, 4, 7)
    x_tilde, kkt, iters, converged = zip(
        *[fields(secure_fuse(problem, row, gamma, split=row_split,
                             walk=row_walk))
          for row, row_split, row_walk in zip(Y, split.rows, walks)])
    secs = np.concatenate(x_tilde).reshape(horizon, -1)
    kkts = np.array(kkt, dtype=float)
    _check_finite(("xhat_sec", secs), ("kkt_residual", kkts))
    return SimulationTrace(
        seed=int(seed), trial=int(trial), gamma=float(gamma),
        horizon=int(horizon), attack=attack, x=x, u=u, z=z, y=y, a=a,
        xhat_kal=x_kal, xhat_sec=secs, xhat_ls=split.x_ls,
        solver_iters=np.array(iters, dtype=int), kkt_residual=kkts,
        solver_converged=np.array(converged, dtype=bool),
        screen_statistic=split.statistic)


def empirical_equivalence_probability(model: SystemModel,
                                      design: SpectralDesign,
                                      decomposition: SensorDecomposition,
                                      gamma, trials=20, horizon=500, seed=0,
                                      burn_in=DEFAULT_BURN_IN):
    """Monte-Carlo estimate of how often the threshold condition holds.

    Rolls out attack-free runs (the same runs simulate makes), counts the
    fraction of the steps k >= burn_in, the tail mse averages, at which
    max |Minv mu_ls| <= gamma (the screen secure_fuse tests, to the bit),
    and returns (probability, standard error) with the standard error
    taken across trials.  A trial count below 1 raises ValueError, and
    so do a horizon below 1 and a burn_in that is negative or past the
    horizon (_tail).
    """
    check_gamma(gamma)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    keep = _tail(horizon, burn_in)
    if not np.allclose(np.sort_complex(np.linalg.eigvals(decomposition.bank)),
                       np.sort_complex(design.Pi)):
        raise ValueError("decomposition was built for a different design")
    problem = decomposition.fusion_problem
    fractions = []
    for trial in range(trials):
        statistic = _rollout(model, design, decomposition, problem,
                             AttackSpec(), horizon, seed, trial
                             ).split.statistic[keep]
        fractions.append(float((statistic <= gamma).mean()))
    prob = float(np.mean(fractions))
    if trials > 1:
        stderr = float(np.std(fractions, ddof=1) / np.sqrt(trials))
    else:
        stderr = float(np.sqrt(max(prob * (1.0 - prob), 0.0)
                               / len(statistic)))
    return prob, stderr


@dataclasses.dataclass(frozen=True)
class MseReport:
    """Mean squared estimation error of each estimator over the tail.

    The scalar fields average ||x_hat(k) - x(k)||^2 over steps
    k >= burn_in; the per-state arrays split the same average by
    coordinate, so each scalar is the sum of its array.
    """

    kalman: float
    secure: float
    least_squares: float
    kalman_per_state: np.ndarray
    secure_per_state: np.ndarray
    least_squares_per_state: np.ndarray
    samples: int


def _check_horizon(horizon) -> None:
    """Raise ValueError for a horizon below 1, which runs no step."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")


def _check_burn_in(burn_in) -> None:
    """Raise ValueError for a negative burn-in, which would keep every step."""
    if burn_in < 0:
        raise ValueError(f"burn-in must be nonnegative, got {burn_in}")


def _tail(horizon, burn_in) -> slice:
    """Slice of the rows of the steps k = 1..horizon at or after burn_in;
    ValueError when the horizon is below 1, or burn_in is negative or
    leaves no step."""
    _check_horizon(horizon)
    _check_burn_in(burn_in)
    if burn_in > horizon:
        raise ValueError(f"horizon {horizon} leaves no samples at or after "
                         f"burn-in {burn_in}")
    return slice(max(burn_in - 1, 0), horizon)


def _tail_mse(est, x, keep) -> np.ndarray:
    """Per-coordinate mean of (est - x)^2 over the rows keep (a _tail
    slice): the per-state arrays of MseReport, each of which sums to its
    scalar."""
    return np.mean((est[keep] - x[keep]) ** 2, axis=0)


def mse(trace: SimulationTrace, burn_in: int = DEFAULT_BURN_IN) -> MseReport:
    """Tail mean squared error of each estimator in `trace`, averaged over
    the steps k >= burn_in.  A negative burn_in raises ValueError, as does
    one past the horizon."""
    keep = _tail(trace.horizon, burn_in)
    pk = _tail_mse(trace.xhat_kal, trace.x, keep)
    ps = _tail_mse(trace.xhat_sec, trace.x, keep)
    pl = _tail_mse(trace.xhat_ls, trace.x, keep)
    return MseReport(
        kalman=float(pk.sum()), secure=float(ps.sum()),
        least_squares=float(pl.sum()), kalman_per_state=pk,
        secure_per_state=ps, least_squares_per_state=pl,
        samples=len(trace.x[keep]))


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One grid point of a Monte Carlo sweep (trial means and stderrs)."""

    sweep_value: float
    mse_secure_no_attack: float
    mse_secure_attack: float
    mse_kalman_no_attack: float
    mse_kalman_attack: float
    stderr_secure_no_attack: float
    stderr_secure_attack: float
    stderr_kalman_no_attack: float
    stderr_kalman_attack: float


def default_attack(m: int = 4) -> AttackSpec:
    """Reference attack for the sweeps: uniform noise on the last sensor.

    On the bundled pendulum config the last sensor is the only angle
    sensor, so the other sensors cannot outvote it.  At the sweep default
    gamma = 5 the secure estimate follows this attack, with a tail gap
    about 1.14x the fixed-gain filter's, and stays near that ratio as the
    magnitude grows up to pi/2 * 1e3.
    """
    return AttackSpec(support=(m - 1,), kind="uniform",
                      magnitude=math.pi / 2, start_step=0)


def _aggregate(value, per_trial) -> SweepRow:
    """Collapse per-trial (sc, sa, kc, ka) tuples into one SweepRow."""
    data = np.asarray(per_trial)
    means = data.mean(axis=0)
    if data.shape[0] > 1:
        errs = data.std(axis=0, ddof=1) / math.sqrt(data.shape[0])
    else:
        errs = np.zeros(4)
    return SweepRow(
        sweep_value=float(value),
        mse_secure_no_attack=float(means[0]),
        mse_secure_attack=float(means[1]),
        mse_kalman_no_attack=float(means[2]),
        mse_kalman_attack=float(means[3]),
        stderr_secure_no_attack=float(errs[0]),
        stderr_secure_attack=float(errs[1]),
        stderr_kalman_no_attack=float(errs[2]),
        stderr_kalman_attack=float(errs[3]))


def _run_sweep(model, design, decomposition, grid, what, point, trials,
               horizon, seed, burn_in) -> list[SweepRow]:
    """Shared sweep driver: one SweepRow per value v of grid, whose runs
    are at the (attack, gamma) pair point(v).

    The grid's values are taken as floats; an empty grid raises
    ValueError naming it (what), and then so does a trial count below 1.
    Trials run one after another, each owning its own RNG substream (two
    threads ran slower than one: the small numpy calls hold the interpreter
    lock).  Within a trial every distinct (attack, gamma) run is simulated
    once: the clean run of a gamma serves every point at that
    gamma, and an attack of kind none or magnitude 0 injects nothing, so
    it is that clean run too.  Neither the rollout nor the least-squares
    split it carries depends on gamma, so a trial rolls all of its
    distinct attacks out once, in one stacked pass (_rollouts) from one
    plant rollout, which does not depend on the attack either, with one
    split of all their rows; its runs at every gamma share their attack's
    rollout, and only test each row's statistic against their own gamma.
    At each gamma the open rows of the trial's runs are fused through one
    fusion.fuse_runs call, and each run is simulated with its part.  A
    trial holds only its own rollouts, and one batch's answers at a
    time.  Only the tail MSEs a SweepRow reads are computed, with the
    helper mse uses, so each has mse's bits: each run's secure one, and
    each attack's fixed-gain one once per trial, as the filter does not
    depend on gamma.  Every run shares the decomposition's one
    FusionProblem (SensorDecomposition.fusion_problem).
    Bad gammas, a horizon below 1 and a burn-in that leaves no step are
    refused before any rollout.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError(f"{what} grid is empty")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    points = [(v, *point(v)) for v in grid]
    for _, _, gamma in points:
        check_gamma(gamma)
    keep = _tail(horizon, burn_in)
    problem = decomposition.fusion_problem

    def injected(attack):
        # an attack of kind none or magnitude 0 injects nothing
        if attack.kind == "none" or attack.magnitude == 0.0:
            return AttackSpec()
        return attack

    clean = AttackSpec()
    gammas = {}         # gamma -> the distinct attacks run at it
    for _, attack, gamma in points:
        gammas.setdefault(gamma, {clean: None})[injected(attack)] = None
    attacks = dict.fromkeys(a for runs in gammas.values() for a in runs)

    def run_trial(trial):
        rollouts = dict(zip(attacks, _rollouts(
            model, design, decomposition, problem, list(attacks), horizon,
            seed, trial)))
        kalman = {attack: float(_tail_mse(r.xhat_kal, r.x, keep).sum())
                  for attack, r in rollouts.items()}
        secure = {}
        for gamma, runs in gammas.items():
            walks = fuse_runs(problem, [
                (r.Y, r.split.d, (r.split.statistic > gamma).nonzero()[0])
                for r in map(rollouts.get, runs)], gamma)
            for attack, walk in zip(runs, walks):
                trace = simulate(model, design, decomposition, attack, gamma,
                                 horizon, seed, trial=trial,
                                 rollout=rollouts[attack], walk=walk)
                secure[attack, gamma] = float(
                    _tail_mse(trace.xhat_sec, trace.x, keep).sum())
        return [(secure[clean, gamma], secure[injected(attack), gamma],
                 kalman[clean], kalman[injected(attack)])
                for _, attack, gamma in points]

    by_trial = [run_trial(t) for t in range(trials)]
    return [_aggregate(value, [out[j] for out in by_trial])
            for j, (value, _, _) in enumerate(points)]


def sweep_gamma(model: SystemModel, design: SpectralDesign,
                decomposition: SensorDecomposition,
                gammas=DEFAULT_GAMMAS, attack: AttackSpec | None = None,
                trials: int = DEFAULT_TRIALS, horizon: int = DEFAULT_HORIZON,
                seed: int = 0, burn_in: int = DEFAULT_BURN_IN
                ) -> list[SweepRow]:
    """MSE of the secure and fixed-gain estimators across gamma values.

    Every gamma runs the same paired clean/attacked trials (same seeds,
    same noise), so columns differ only through the estimators.
    """
    if attack is None:
        attack = default_attack(model.m)
    return _run_sweep(model, design, decomposition, gammas, "gamma",
                      lambda g: (attack, g), trials, horizon, seed, burn_in)


def sweep_attack_magnitude(model: SystemModel, design: SpectralDesign,
                           decomposition: SensorDecomposition,
                           magnitudes=DEFAULT_MAGNITUDES,
                           gamma: float = 5.0,
                           attack: AttackSpec | None = None,
                           trials: int = DEFAULT_TRIALS,
                           horizon: int = DEFAULT_HORIZON, seed: int = 0,
                           burn_in: int = DEFAULT_BURN_IN
                           ) -> list[SweepRow]:
    """MSE across attack magnitudes at a fixed gamma.

    The attack argument fixes the support/kind/start; its magnitude is
    replaced by each grid value in turn (magnitude 0 degenerates to no
    attack and reuses the clean run, so those columns coincide exactly).
    """
    if attack is None:
        attack = default_attack(model.m)
    return _run_sweep(model, design, decomposition, magnitudes, "magnitude",
                      lambda v: (dataclasses.replace(attack, magnitude=v),
                                 float(gamma)),
                      trials, horizon, seed, burn_in)


_INT_COLUMNS = ("k", "solver_iters", "solver_warn")


def _row_format(header) -> str:
    """One %-format for a CSV row with these columns: %d for the integer
    columns, %.17g (17 significant digits) for every other one."""
    return ",".join("%d" if h in _INT_COLUMNS else "%.17g" for h in header)


def trace_csv(trace: SimulationTrace) -> str:
    """Render a trace as CSV text, one line per step, ending in a newline.

    The header names the columns k, x_*, u_*, y_*, a_*, xhat_kal_*,
    xhat_sec_*, xhat_ls_*, solver_iters, kkt_residual, solver_warn.  Each
    row holds the step k = t + 1, then every real value as "%.17g" (17
    significant digits, so floats round-trip; -0.0 prints as -0, and nan
    and inf as nan, inf, -inf), the iteration count as an integer, the
    KKT residual as "%.17g", and solver_warn as 1 for an unconverged step
    and 0 otherwise.  Fields are separated by commas without spaces.
    """
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
    row = _row_format(header)
    values = np.hstack((trace.x, trace.u, trace.y, trace.a, trace.xhat_kal,
                        trace.xhat_sec, trace.xhat_ls)).tolist()
    lines = [",".join(header)]
    lines += [row % (k, *vals, iters, kkt, warn)
              for k, vals, iters, kkt, warn in zip(
                  range(1, trace.horizon + 1), values,
                  trace.solver_iters.tolist(),
                  trace.kkt_residual.tolist(),
                  np.logical_not(trace.solver_converged).tolist())]
    return "\n".join(lines) + "\n"


def sweep_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV text (17 significant digits throughout)."""
    fields = [f.name for f in dataclasses.fields(SweepRow)]
    row = _row_format(fields)
    lines = [",".join(fields)]
    lines += [row % dataclasses.astuple(r) for r in rows]
    return "\n".join(lines) + "\n"
