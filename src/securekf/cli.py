"""Command-line front end: model files in, reports and CSV out.

One binary with subcommands.  `analyze` and `certify` inspect a model's
sensor redundancy, and `simulate` / `sweep-gamma` / `sweep-attack` run the
closed-loop experiments and write CSV.  Each run computes its filter
design from the model: the steady Kalman gain and its decomposition.

Exit codes: 0 success (solver non-convergence still exits 0 and is
reported in the summary line and the solver_warn CSV column), 1 file or
parse error, 2 validation error, 3 Assumption 1, a Theorem 2 precondition
or the Riccati recursion failed in the filter design, 4 `certify` found the
model insecure for the requested budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .decomposition import build_decomposition
from .model import (ModelFormatError, certify_resilience, load_model,
                    validate_model)
from .simulator import (ATTACK_KINDS, DEFAULT_BURN_IN, DEFAULT_GAMMAS,
                        DEFAULT_HORIZON, DEFAULT_MAGNITUDES, DEFAULT_TRIALS,
                        AttackSpec, default_attack, mse, simulate,
                        sweep_attack_magnitude, sweep_csv, sweep_gamma,
                        trace_csv)
from .spectral import AssumptionError, RiccatiDivergenceError, spectral_design

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_ASSUMPTION = 3
EXIT_INSECURE = 4


# ------------------------------------------------------------ shared steps


def _load_valid_model(path):
    model = load_model(path)
    report = validate_model(model)
    if not report.passed:
        print(report, file=sys.stderr)
        raise ValueError(f"model validation failed: "
                         f"{len(report.failures())} check(s) did not pass")
    return model


def _get_design(model):
    """The model's filter design and its decomposition."""
    design = spectral_design(model)
    return design, build_decomposition(model, design)


def _sensor_name(model, i):
    if model.sensor_labels is not None:
        return f"{i + 1} ({model.sensor_labels[i]})"
    return str(i + 1)


def _build_attack(args, m) -> AttackSpec:
    """The attack of the flags; sweep-attack, which has no
    --attack-magnitude, gets the default magnitude, and its sweep replaces
    it with each grid value."""
    kind = args.attack_kind
    magnitude = getattr(args, "attack_magnitude", None)
    if kind == "none":
        if args.attack_sensor is not None or magnitude is not None:
            raise ValueError("attack kind 'none' takes no --attack-sensor "
                             "or --attack-magnitude")
        return AttackSpec()
    default = default_attack(m)
    sensor = (args.attack_sensor if args.attack_sensor is not None
              else default.support[0] + 1)
    if not 1 <= sensor <= m:
        raise ValueError(f"--attack-sensor {sensor} out of range 1..{m}")
    if magnitude is None:
        magnitude = default.magnitude
    return AttackSpec(support=(sensor - 1,), kind=kind, magnitude=magnitude)


def _parse_grid(text, what):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--{what} expects a comma-separated list of "
                         f"numbers, got {text!r}")
    if not values:
        raise ValueError(f"--{what} grid is empty")
    return values


def _check_burn_in(args) -> None:
    """Refuse a --horizon below 1, then a --burn-in that leaves no step of
    the run to average."""
    if args.horizon < 1:
        raise ValueError(f"--horizon must be at least 1, got {args.horizon}")
    if args.burn_in < 0:
        raise ValueError(f"--burn-in must be nonnegative, got {args.burn_in}")
    if args.burn_in > args.horizon:
        raise ValueError(f"horizon {args.horizon} leaves no samples at or "
                         f"after burn-in {args.burn_in}")


def _emit_csv(text, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def cmd_analyze(args) -> int:
    model = _load_valid_model(args.model)
    struct = model.structure
    s = struct.sparse_index

    print(f"model: {model.n} states, {model.m} sensors")
    print("sensor support per state:")
    for j, members in enumerate(struct.support):
        names = ", ".join(_sensor_name(model, i) for i in members)
        print(f"  state {j + 1}: {names if members else '(none)'}")
    if s < 0:
        raise ValueError("(A, C) is unobservable: some state is covered by "
                         "no sensor")
    max_p = s // 2
    noun = "sensor" if max_p == 1 else "sensors"
    print(f"sparse observability index: {s}; "
          f"tolerates p = {max_p} attacked {noun}")

    if args.json:
        payload = {
            "n": model.n,
            "m": model.m,
            "support": [list(mem) for mem in struct.support],
            "sparse_observability_index": s,
            "max_p": max_p,
        }
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    model = _load_valid_model(args.model)
    cert = certify_resilience(model.structure, args.p)
    verdict = "secure" if cert.secure else "NOT secure"
    print(f"sparse observability index: {cert.sparse_index}; "
          f"budget p = {cert.p} needs 2p <= {cert.sparse_index}: {verdict} "
          f"(margin {cert.margin})")
    return EXIT_OK if cert.secure else EXIT_INSECURE


def cmd_simulate(args) -> int:
    model = _load_valid_model(args.model)
    attack = _build_attack(args, model.m)
    _check_burn_in(args)
    design, decomposition = _get_design(model)
    trace = simulate(model, design, decomposition, attack, args.gamma,
                     args.horizon, args.seed)
    _emit_csv(trace_csv(trace), args.out)
    report = mse(trace, burn_in=args.burn_in)
    summary = (f"mse_kalman={report.kalman:.6g} "
               f"mse_secure={report.secure:.6g} "
               f"mse_ls={report.least_squares:.6g} "
               f"({report.samples} steps at or after burn-in "
               f"{args.burn_in})")
    bad = trace.unconverged_steps
    if bad:
        summary += f"; solver warning: {bad} step(s) did not converge"
    print(summary, file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK


def cmd_sweep(args) -> int:
    model = _load_valid_model(args.model)
    attack = _build_attack(args, model.m)
    if attack.kind == "none":
        raise ValueError(f"{args.command} needs an attack; pick "
                         f"--attack-kind constant, uniform, or ramp")
    if args.command == "sweep-gamma":
        sweep, what = sweep_gamma, "gamma value(s)"
        grid = dict(gammas=_parse_grid(args.gammas, "gammas"))
    else:
        sweep = sweep_attack_magnitude
        what = f"magnitude(s) at gamma={args.gamma:g}"
        grid = dict(magnitudes=_parse_grid(args.magnitudes, "magnitudes"),
                    gamma=args.gamma)
    _check_burn_in(args)
    design, decomposition = _get_design(model)
    rows = sweep(model, design, decomposition, attack=attack,
                 trials=args.trials, horizon=args.horizon, seed=args.seed,
                 burn_in=args.burn_in, **grid)
    _emit_csv(sweep_csv(rows), args.out)
    where = args.out if args.out else "stdout"
    print(f"{len(rows)} {what}, {args.trials} trial(s) each -> {where}",
          file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK


# ------------------------------------------------------------------ parser


# the flags only some experiment subcommands read: each adds its own
_GAMMA_FLAG = dict(type=float, default=5.0,
                   help="l1 regularization weight (default 5)")
_TRIALS_FLAG = dict(type=int, default=DEFAULT_TRIALS,
                    help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
_MAGNITUDE_FLAG = dict(type=float, default=None,
                       help="attack amplitude (default: pi/2)")


def _add_sim_flags(p, attack_kind):
    """The flags every experiment subcommand reads."""
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                   help=f"steps per run (default {DEFAULT_HORIZON})")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; fully determines all randomness")
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN,
                   help=f"MSE averages start at step k = burn-in "
                        f"(k = 1 the first step; default {DEFAULT_BURN_IN})")
    p.add_argument("--attack-kind", default=attack_kind,
                   choices=ATTACK_KINDS,
                   help=f"attack waveform (default {attack_kind})")
    p.add_argument("--attack-sensor", type=int, default=None,
                   help="1-based attacked sensor (default: the last sensor)")
    p.add_argument("--out", default=None, metavar="CSV",
                   help="output CSV path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The securekf parser, built once per process and shared: parsing
    leaves it as it was, callers change nothing in it, and a parser is
    cyclic garbage once dropped."""
    parser = argparse.ArgumentParser(
        prog="securekf",
        description="Secure state estimation for linear Gaussian systems "
                    "under sparse sensor attacks.",
        epilog="Model files are JSON objects with keys A, C, Q, R, Sigma "
               "and optional B, K_lqr, sensor_labels; matrices are "
               "row-major nested arrays.  Trace CSV columns: k, x_*, u_*, y_*, a_*, xhat_kal_*, "
               "xhat_sec_*, xhat_ls_*, solver_iters, kkt_residual, "
               "solver_warn.  Sweep CSV columns: sweep_value, "
               "mse_{secure,kalman}_{no_attack,attack}, matching stderr_* "
               "columns.  Exit codes: 0 ok, 1 file/parse, 2 validation, "
               "3 assumption violation, 4 insecure.")
    # flags are named in full: sweep-gamma would read --gamma as --gammas
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=functools.partial(
            argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("analyze",
                       help="report per-state sensor support and the "
                            "sparse observability index")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--json", default=None, metavar="OUT_JSON",
                   help="also write the report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify",
                       help="check the s >= 2p resilience condition")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--p", type=int, required=True,
                   help="attack budget: number of corrupted sensors")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate",
                       help="run one closed-loop trace and write it as CSV")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--gamma", **_GAMMA_FLAG)
    p.add_argument("--attack-magnitude", **_MAGNITUDE_FLAG)
    _add_sim_flags(p, "none")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-gamma",
                       help="paired clean/attacked Monte Carlo MSE across "
                            "a gamma grid")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--gammas",
                   default=",".join(f"{g:g}" for g in DEFAULT_GAMMAS),
                   help="comma-separated gamma grid")
    p.add_argument("--trials", **_TRIALS_FLAG)
    p.add_argument("--attack-magnitude", **_MAGNITUDE_FLAG)
    _add_sim_flags(p, "uniform")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sweep-attack",
                       help="paired clean/attacked Monte Carlo MSE across "
                            "attack magnitudes at fixed gamma")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--magnitudes",
                   default=",".join(f"{v:g}" for v in DEFAULT_MAGNITUDES),
                   help="comma-separated magnitude grid")
    p.add_argument("--gamma", **_GAMMA_FLAG)
    p.add_argument("--trials", **_TRIALS_FLAG)
    _add_sim_flags(p, "uniform")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AssumptionError, RiccatiDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AssertionError as exc:
        # internal invariant failed while the inputs were legal: surface
        # it as an assumption-level failure rather than a traceback
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
