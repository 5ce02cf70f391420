"""Command-line front end: model files in, reports and CSV out.

One binary with subcommands.  `analyze` and `certify` inspect a model's
sensor redundancy, `design` persists the steady Kalman gain to a JSON
design file (design_to_dict gives its format), and `simulate` /
`sweep-gamma` / `sweep-attack` run the closed-loop experiments and write
CSV, from a design they compute or one they load with --design.

Exit codes: 0 success (solver non-convergence still exits 0 and is
reported in the summary line and the solver_warn CSV column), 1 file or
parse error, 2 validation error, 3 Assumption 1, a Theorem 2 precondition
or the Riccati recursion failed in the filter design, 4 `certify` found the
model insecure for the requested budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .decomposition import build_decomposition
from .model import (ModelFormatError, SystemModel, certify_resilience,
                    load_model, validate_model)
from .simulator import (ATTACK_KINDS, DEFAULT_BURN_IN, DEFAULT_GAMMAS,
                        DEFAULT_HORIZON, DEFAULT_MAGNITUDES, DEFAULT_TRIALS,
                        AttackSpec, default_attack, mse, simulate,
                        sweep_attack_magnitude, sweep_csv, sweep_gamma,
                        trace_csv)
from .spectral import (AssumptionError, RiccatiDivergenceError,
                       SpectralDesign, closed_loop_eigendecomposition,
                       spectral_design)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_ASSUMPTION = 3
EXIT_INSECURE = 4

DESIGN_FORMAT = "securekf-design"
DESIGN_VERSION = 5


class DesignFormatError(ValueError):
    """Raised when a design file does not match the documented schema."""


# ------------------------------------------------------------ serialization


def _rows(M) -> list:
    """A real matrix as row-major nested lists of floats."""
    return [[float(v) for v in row] for row in M]


def _model_section(model: SystemModel) -> dict:
    matrices = {f.name: getattr(model, f.name)
                for f in dataclasses.fields(SystemModel)
                if f.name != "sensor_labels"}
    return {key: _rows(M) for key, M in matrices.items() if M is not None}


def _numbers(value, depth, key, expected):
    """value as a finite float array of ndim depth."""
    try:
        arr = np.array(value, dtype=object)
    except ValueError:
        arr = None
    # ragged rows leave lists as leaves; bool is an int but not a number
    if (arr is None or arr.ndim != depth
            or any(type(v) not in (int, float) for v in arr.flat)):
        raise DesignFormatError(f"design key '{key}': {expected}")
    arr = arr.astype(float)
    # json reads the literals NaN, Infinity and -Infinity as floats
    if not np.isfinite(arr).all():
        raise DesignFormatError(f"design key '{key}': numbers must be "
                                "finite, got NaN or Infinity")
    return arr


def design_to_dict(model: SystemModel, design: SpectralDesign) -> dict:
    """The design file as a JSON-ready dict.

    Keys in order: "format" ("securekf-design"), "version" (5), "model"
    (the fields of SystemModel but sensor_labels and an absent B or
    K_lqr) and "design" (the gain K and riccati_residual).  Matrices are
    row-major lists of number rows.  The file holds the gain alone:
    loading recomputes Pi from K, and the CLI rebuilds the decomposition.
    Versions 1 to 4 are refused: version 4 also held Pi and the
    decomposition, as {"real" | "complex": rows} tagged matrices, version
    3 also the design's P, P_plus, charpoly and V, version 2 the
    decomposition in complex mode coordinates, and version 1 also G, H, P,
    F, F_row, Qtilde, Wtilde and assumption1_ok.
    """
    return {
        "format": DESIGN_FORMAT,
        "version": DESIGN_VERSION,
        "model": _model_section(model),
        "design": {"K": _rows(design.K),
                   "riccati_residual": float(design.riccati_residual)},
    }


def _require_keys(obj, wanted, where):
    if not isinstance(obj, dict):
        raise DesignFormatError(f"design file section '{where}' must be an "
                                "object")
    for key in obj:
        if key not in wanted:
            raise DesignFormatError(f"unknown key '{key}' in design file "
                                    f"section '{where}'")
    for key in wanted:
        if key not in obj:
            raise DesignFormatError(f"missing key '{key}' in design file "
                                    f"section '{where}'")


def design_from_dict(data: dict, model: SystemModel) -> SpectralDesign:
    """Rebuild the SpectralDesign of a parsed design file.

    The format and version are checked first, so a file of an older
    version is refused by its number whatever keys it holds.  The stored
    model matrices must match `model` exactly, and K must be a finite
    n x m matrix.  Pi is recomputed by closed_loop_eigendecomposition,
    whose Assumption 1 checks a K from a file passes as a computed one
    does.
    """
    if not isinstance(data, dict):
        raise DesignFormatError("design file section 'top level' must be an "
                                "object")
    if data.get("format") != DESIGN_FORMAT:
        raise DesignFormatError(f"not a design file (format "
                                f"{data.get('format')!r})")
    if data.get("version") != DESIGN_VERSION:
        raise DesignFormatError(f"unsupported design file version "
                                f"{data.get('version')!r}; re-run the design "
                                "subcommand")
    _require_keys(data, ("format", "version", "model", "design"),
                  "top level")
    if data["model"] != _model_section(model):
        raise ValueError("design file was computed for a different model; "
                         "re-run the design subcommand")

    stored = data["design"]
    _require_keys(stored, ("K", "riccati_residual"), "design")
    K = _numbers(stored["K"], 2, "K", "entries must be numbers in "
                 "equal-length rows")
    if K.shape != (model.n, model.m):
        raise DesignFormatError(f"design key 'K': expected shape "
                                f"{(model.n, model.m)}, got {K.shape}")
    residual = float(_numbers(stored["riccati_residual"], 0,
                              "riccati_residual", "expected a number"))
    _, Pi = closed_loop_eigendecomposition(model.A, K, model.C)
    return SpectralDesign(K=K, Pi=Pi, riccati_residual=residual)


def save_design(path, model, design) -> None:
    text = json.dumps(design_to_dict(model, design), indent=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_design(path, model) -> SpectralDesign:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DesignFormatError(f"invalid JSON in design file: {exc}")
    return design_from_dict(data, model)


# ------------------------------------------------------------ shared steps


def _load_valid_model(path) -> SystemModel:
    model = load_model(path)
    report = validate_model(model)
    if not report.passed:
        print(report, file=sys.stderr)
        raise ValueError(f"model validation failed: "
                         f"{len(report.failures())} check(s) did not pass")
    return model


def _get_design(args, model):
    """The design, from --design or computed, and its decomposition, which
    both paths build here."""
    if getattr(args, "design", None):
        design = load_design(args.design, model)
    else:
        design = spectral_design(model)
    return design, build_decomposition(model, design)


def _sensor_name(model, i):
    if model.sensor_labels is not None:
        return f"{i + 1} ({model.sensor_labels[i]})"
    return str(i + 1)


def _build_attack(args, m) -> AttackSpec:
    kind = args.attack_kind
    if kind == "none":
        if args.attack_sensor is not None or args.attack_magnitude is not None:
            raise ValueError("attack kind 'none' takes no --attack-sensor "
                             "or --attack-magnitude")
        return AttackSpec()
    default = default_attack(m)
    sensor = (args.attack_sensor if args.attack_sensor is not None
              else default.support[0] + 1)
    if not 1 <= sensor <= m:
        raise ValueError(f"--attack-sensor {sensor} out of range 1..{m}")
    magnitude = (args.attack_magnitude if args.attack_magnitude is not None
                 else default.magnitude)
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


def cmd_design(args) -> int:
    model = _load_valid_model(args.model)
    design, decomposition = _get_design(args, model)
    save_design(args.out, model, design)
    print(f"design written to {args.out} "
          f"(riccati residual {design.riccati_residual:.3e}, "
          f"ridge delta {decomposition.ridge_delta:.3e})")
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
    design, decomposition = _get_design(args, model)
    attack = _build_attack(args, model.m)
    _check_burn_in(args)
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
    design, decomposition = _get_design(args, model)
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


def _add_sim_flags(p, attack_kind):
    """The flags every experiment subcommand reads."""
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                   help=f"steps per run (default {DEFAULT_HORIZON})")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; fully determines all randomness")
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN,
                   help=f"steps dropped from MSE averages "
                        f"(default {DEFAULT_BURN_IN})")
    p.add_argument("--attack-kind", default=attack_kind,
                   choices=ATTACK_KINDS,
                   help=f"attack waveform (default {attack_kind})")
    p.add_argument("--attack-sensor", type=int, default=None,
                   help="1-based attacked sensor (default: the last sensor)")
    p.add_argument("--attack-magnitude", type=float, default=None,
                   help="attack amplitude (default: pi/2)")
    p.add_argument("--design", default=None, metavar="DESIGN_JSON",
                   help="reuse a design file written by the design "
                        "subcommand instead of recomputing")
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
               "row-major nested arrays.  Design files are written by the "
               "design subcommand (v5: the model and the gain K).  "
               "Trace CSV columns: k, x_*, u_*, y_*, a_*, xhat_kal_*, "
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

    p = sub.add_parser("design",
                       help="compute and persist the filter design's "
                            "steady Kalman gain")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--out", required=True, metavar="DESIGN_JSON",
                   help="where to write the design file")
    p.set_defaults(func=cmd_design)

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
    except (OSError, ModelFormatError, DesignFormatError) as exc:
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
