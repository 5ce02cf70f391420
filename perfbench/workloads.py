"""The benchmark's workloads and the checks on their outputs.

Every workload drives the public securekf API on the bundled pendulum
model.  A workload is built once per run from (set-up, seed, size) and
consists of a fixed number of parts: the same call on sub-seeds
``seed * parts + k``.  A run cycles through the parts, so its timing is
a median over many short calls.  ``nominal`` is the trial-steps one part
delivers; for a sweep that is grid points x trials x horizon x 2 (one
clean and one attacked run per pair), whether or not the program
recomputes runs the points share.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics

import numpy as np

import securekf
import securekf.cli
import securekf.simulator
from securekf.simulator import DEFAULT_BURN_IN, AttackSpec, default_attack
from tracer import PATHS

# "full" is what the benchmark measures; "tiny" is for the self-test and
# only has to reach every code path the checks read.
SIZES = {
    "sweep-l1": {"full": dict(parts=8, trials=1, horizon=100),
                 "tiny": dict(parts=2, trials=1, horizon=60)},
    "sweep-screened": {"full": dict(parts=8, trials=1, horizon=500),
                       "tiny": dict(parts=2, trials=1, horizon=60)},
    "attack-stress": {"full": dict(parts=2, horizon=60),
                      "tiny": dict(parts=1, horizon=30)},
    "cli-trace": {"full": dict(parts=20, horizon=500),
                  "tiny": dict(parts=1, horizon=60)},
}
L1_GAMMA = 5.0                      # the CLI default
L1_MAGNITUDES = (0.0, 1.0, 2.0)
SCREENED_GAMMAS = (1000.0, 2000.0)
STRESS_GAMMA = 5.0
STRESS_RAMP = 1e4                   # attack growth per step on sensor 4
CLI_GAMMA = 1000.0


class Checks:
    """Collects the output checks a run failed."""

    def __init__(self):
        self.failures = []

    def require(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclasses.dataclass
class Workload:
    name: str
    parts: list                     # [() -> output], one per sub-seed
    nominal: int                    # trial-steps delivered by one part
    runs: int                       # simulate runs one part implies
    distinct: set                   # run_key of every distinct run, all parts
    root: str                       # span name of one part's call
    mses: object                    # output -> (attacked, clean)
    extra_check: object = None      # (part index, output, checks) -> None


def _burn_in(horizon):
    return min(DEFAULT_BURN_IN, horizon)


def run_key(seed, trial, gamma, attack, horizon) -> tuple:
    """Identity of one simulate run.  A zero-magnitude attack injects
    nothing, so it is the clean run and a program may share the two."""
    if attack.magnitude == 0.0:
        attack = AttackSpec()
    return (int(seed), int(trial), float(gamma), attack, int(horizon))


def _paired_keys(subs, trials, points, horizon) -> set:
    """Keys of a sweep's runs: per trial and (gamma, attack), clean + attacked."""
    return {run_key(sub, t, gamma, spec, horizon)
            for sub in subs for t in range(trials) for gamma, attack in points
            for spec in (AttackSpec(), attack)}


def _sweep_mses(rows):
    return (statistics.fmean(r.mse_secure_attack for r in rows),
            statistics.fmean(r.mse_secure_no_attack for r in rows))


def sweep_l1(ctx, seed, parts, trials, horizon) -> Workload:
    def part(sub):
        return lambda: securekf.sweep_attack_magnitude(
            ctx.model, ctx.design, ctx.decomposition,
            magnitudes=L1_MAGNITUDES, gamma=L1_GAMMA, trials=trials,
            horizon=horizon, seed=sub)

    def extra_check(k, rows, checks):
        zero = rows[L1_MAGNITUDES.index(0.0)]
        checks.require(zero.mse_secure_attack == zero.mse_secure_no_attack,
                       "sweep-l1: magnitude-0 row differs from its clean run")

    n = len(L1_MAGNITUDES) * trials
    subs = [seed * parts + k for k in range(parts)]
    attack = default_attack(ctx.model.m)
    points = [(L1_GAMMA, dataclasses.replace(attack, magnitude=v))
              for v in L1_MAGNITUDES]
    return Workload("sweep-l1", [part(sub) for sub in subs],
                    n * horizon * 2, n * 2,
                    _paired_keys(subs, trials, points, horizon),
                    "simulator.sweep_attack_magnitude", _sweep_mses,
                    extra_check)


def sweep_screened(ctx, seed, parts, trials, horizon) -> Workload:
    def part(sub):
        return lambda: securekf.sweep_gamma(
            ctx.model, ctx.design, ctx.decomposition, gammas=SCREENED_GAMMAS,
            attack=default_attack(ctx.model.m), trials=trials,
            horizon=horizon, seed=sub)

    n = len(SCREENED_GAMMAS) * trials
    subs = [seed * parts + k for k in range(parts)]
    points = [(g, default_attack(ctx.model.m)) for g in SCREENED_GAMMAS]
    return Workload("sweep-screened", [part(sub) for sub in subs],
                    n * horizon * 2, n * 2,
                    _paired_keys(subs, trials, points, horizon),
                    "simulator.sweep_gamma", _sweep_mses)


def attack_stress(ctx, seed, parts, horizon) -> Workload:
    attack = AttackSpec(support=(ctx.model.m - 1,), kind="ramp",
                        magnitude=STRESS_RAMP)
    sim = securekf.simulator      # looked up per call, so tracing sees it

    def part(trial):
        def call():
            runs = [sim.simulate(ctx.model, ctx.design, ctx.decomposition,
                                 spec, STRESS_GAMMA, horizon, seed,
                                 trial=trial, problem=ctx.problem)
                    for spec in (attack, AttackSpec())]
            return tuple(sim.mse(tr, _burn_in(horizon)).secure for tr in runs)
        return call

    # one trial per part: the trials of one seed, not sub-seeds
    keys = {run_key(seed, t, STRESS_GAMMA, spec, horizon)
            for t in range(parts) for spec in (attack, AttackSpec())}
    return Workload("attack-stress", [part(t) for t in range(parts)],
                    horizon * 2, 2, keys, "bench.attack_stress",
                    lambda out: out)


def cli_trace(ctx, seed, parts, horizon) -> Workload:
    csv_path = ctx.workdir / "cli-trace.csv"
    burn_in = _burn_in(horizon)
    subs = [seed * parts + k for k in range(parts)]

    def part(sub):
        argv = ["simulate", str(ctx.model_path), "--gamma", repr(CLI_GAMMA),
                "--horizon", str(horizon), "--seed", str(sub),
                "--out", str(csv_path)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                code = securekf.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli-trace: securekf simulate exited "
                                   f"{code}")
            return csv_path.read_text()
        return call

    def columns(text, prefix):
        lines = text.splitlines()
        header = lines[0].split(",")
        keep = [i for i, h in enumerate(header) if h.startswith(prefix)]
        return np.array([[float(row[i]) for i in keep]
                         for row in (ln.split(",") for ln in lines[1:])])

    def mses(text):
        # rows are k = 1..horizon; the MSE keeps k >= burn_in
        x, sec = columns(text, "x_"), columns(text, "xhat_sec_")
        err = float(np.mean((sec[burn_in - 1:] - x[burn_in - 1:]) ** 2,
                            axis=0).sum())
        # no attack runs on this workload, so both columns read the one run
        return err, err

    def extra_check(k, text, checks):
        ref = securekf.simulate(ctx.model, ctx.design, ctx.decomposition,
                                AttackSpec(), CLI_GAMMA, horizon, subs[k])
        checks.require(np.array_equal(columns(text, "xhat_sec_"),
                                      ref.xhat_sec),
                       "cli-trace: xhat_sec columns differ from simulate")
        checks.require(mses(text)[0] == securekf.mse(ref, burn_in).secure,
                       "cli-trace: CSV MSE differs from simulate's")

    keys = {run_key(sub, 0, CLI_GAMMA, AttackSpec(), horizon) for sub in subs}
    return Workload("cli-trace", [part(sub) for sub in subs], horizon, 1,
                    keys, "cli.main", mses, extra_check)


BUILDERS = {"sweep-l1": sweep_l1, "sweep-screened": sweep_screened,
            "attack-stress": attack_stress, "cli-trace": cli_trace}


def build(name, ctx, seed, size) -> Workload:
    return BUILDERS[name](ctx, seed, **SIZES[name][size])


def check_traced(work: Workload, tracer, checks: Checks) -> dict:
    """Checks on a traced pass over every part; returns its path counts.

    Every captured trace must be finite, screened steps must return the
    least-squares point exactly, and converged answers must meet the
    KKT tolerance.  Every distinct run the parts imply must show up as a
    simulate trace, so a program that stops calling simulate fails here
    rather than passing with nothing checked.  Path counts read from the
    traces must match those seen at secure_fuse, and equal the nominal
    trial-steps unless the program shared runs (fewer simulate calls than
    the runs implied).
    """
    name = work.name
    paths = dict.fromkeys(PATHS, 0)
    for tr in tracer.traces:
        for field in ("x", "u", "z", "y", "a", "xhat_kal", "xhat_sec",
                      "xhat_ls", "kkt_residual"):
            checks.require(np.isfinite(getattr(tr, field)).all(),
                           f"{name}: non-finite {field} in a trace")
        eq = tr.kalman_equivalent
        checks.require(np.array_equal(tr.xhat_sec[eq], tr.xhat_ls[eq]),
                       f"{name}: a screened step did not return x_ls")
        conv = tr.solver_converged
        checks.require(
            (tr.kkt_residual[conv] <= 1e-8 * max(1.0, tr.gamma)).all(),
            f"{name}: a converged step misses the KKT tolerance")
        solved = conv & ~eq
        paths["screened"] += int(eq.sum())
        paths["exact"] += int((solved & (tr.solver_iters <= 1)).sum())
        paths["iterative"] += int((solved & (tr.solver_iters > 1)).sum())
        paths["unconverged"] += int((~conv).sum())
    ran = {run_key(tr.seed, tr.trial, tr.gamma, tr.attack, tr.horizon)
           for tr in tracer.traces}
    checks.require(ran == work.distinct,
                   f"{name}: the traced pass ran {len(ran & work.distinct)} "
                   f"of {len(work.distinct)} distinct runs and "
                   f"{len(ran - work.distinct)} others")
    seen = dict.fromkeys(PATHS, 0)
    for _, path, _, _ in tracer.fuse:
        seen[path] += 1
    checks.require(seen == paths, f"{name}: solver paths at secure_fuse "
                                  f"{seen} differ from the traces {paths}")
    delivered = sum(tr.horizon for tr in tracer.traces)
    checks.require(sum(paths.values()) == len(tracer.fuse) == delivered,
                   f"{name}: path counts do not add up to the secure_fuse "
                   f"calls")
    nominal = work.nominal * len(work.parts)
    if len(tracer.traces) == work.runs * len(work.parts):
        checks.require(delivered == nominal,
                       f"{name}: {delivered} estimates for {nominal} "
                       f"nominal trial-steps")
    else:
        checks.require(0 < delivered <= nominal,
                       f"{name}: {delivered} estimates for {nominal} "
                       f"nominal trial-steps")
    return paths
