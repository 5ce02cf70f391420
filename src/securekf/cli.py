"""Command-line front end: model files in, reports and CSV out.

One binary with subcommands.  `analyze` and `certify` inspect a model's
sensor redundancy, `design` persists the filter design plus sensor
decomposition to a JSON file (version 2), and `simulate` / `sweep-gamma` /
`sweep-attack` run the closed-loop experiments and write CSV.

Exit codes: 0 success (solver non-convergence still exits 0 and is
reported in the summary line and the solver_warn CSV column), 1 file or
parse error, 2 validation error, 3 Assumption 1, a Theorem 2 precondition
or the Riccati recursion failed in the filter design, 4 `certify` found the
model insecure for the requested budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .decomposition import (SensorDecomposition, build_decomposition,
                            factor_mtilde)
from .model import (ModelFormatError, SystemModel, certify_resilience,
                    load_model, observability_structure, validate_model)
from .simulator import (DEFAULT_BURN_IN, DEFAULT_GAMMAS, DEFAULT_HORIZON,
                        DEFAULT_MAGNITUDES, DEFAULT_TRIALS, AttackSpec, mse,
                        simulate, sweep_attack_magnitude, sweep_csv,
                        sweep_gamma, trace_csv)
from .spectral import RiccatiDivergenceError, SpectralDesign, spectral_design

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_ASSUMPTION = 3
EXIT_INSECURE = 4

# ValueError messages carrying these prefixes mean a structural
# assumption of the method failed, not that the inputs were malformed
_ASSUMPTION_PREFIXES = ("Assumption 1 violated",
                        "Theorem 2 precondition violated")

DESIGN_FORMAT = "securekf-design"
DESIGN_VERSION = 2


class DesignFormatError(ValueError):
    """Raised when a design file does not match the documented schema."""


# ------------------------------------------------------------ serialization

# section name -> (dataclass, fields it does not store)
_SECTIONS = {
    "model": (SystemModel, ("sensor_labels",)),
    "design": (SpectralDesign, ()),
    "decomposition": (SensorDecomposition, ("Mtilde_factor",)),
}
# 1-D array fields, stored as one-row matrices
_VECTORS = ("charpoly", "Pi")


def _matrix_to_json(M):
    """Nested lists; complex matrices entry-wise as [re, im] pairs."""
    M = np.atleast_2d(M)
    if np.iscomplexobj(M):
        return {"complex": [[[float(v.real), float(v.imag)] for v in row]
                            for row in M]}
    return {"real": [[float(v) for v in row] for row in M]}


def _numbers(value, depth, key, expected):
    """value as a float array of ndim depth (depth 3: [re, im] pairs)."""
    try:
        arr = np.array(value, dtype=object)
    except ValueError:
        arr = None
    # ragged rows leave lists as leaves; bool is an int but not a number
    if (arr is None or arr.ndim != depth or (depth == 3 and arr.shape[2] != 2)
            or any(type(v) not in (int, float) for v in arr.flat)):
        raise DesignFormatError(f"design key '{key}': {expected}")
    return arr.astype(float)


def _matrix_from_json(obj, key):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise DesignFormatError(f"design key '{key}': expected a tagged matrix")
    tag, rows = next(iter(obj.items()))
    if tag == "real":
        return _numbers(rows, 2, key, "real entries must be numbers in "
                        "equal-length rows")
    if tag == "complex":
        arr = _numbers(rows, 3, key, "complex entries must be [re, im] pairs "
                       "of numbers in equal-length rows")
        return arr[..., 0] + 1j * arr[..., 1]
    raise DesignFormatError(f"design key '{key}': unknown matrix tag '{tag}'")


def _section_fields(section):
    cls, skipped = _SECTIONS[section]
    return [f for f in dataclasses.fields(cls) if f.name not in skipped]


def _encode_section(section, obj) -> dict:
    out = {}
    for f in _section_fields(section):
        value = getattr(obj, f.name)
        if f.type == "float":
            out[f.name] = float(value)
        elif value is not None:
            out[f.name] = _matrix_to_json(value)
    return out


def _decode_section(data, section) -> dict:
    fields = _section_fields(section)
    _require_keys(data, [f.name for f in fields], section)
    out = {}
    for f in fields:
        value = data[f.name]
        if f.type == "float":
            out[f.name] = float(_numbers(value, 0, f.name, "expected a number"))
        else:
            M = _matrix_from_json(value, f.name)
            out[f.name] = M.reshape(-1) if f.name in _VECTORS else M
    return out


def design_to_dict(model: SystemModel, design: SpectralDesign,
                   decomposition: SensorDecomposition) -> dict:
    """The design file as a JSON-ready dict.

    Keys in order: "format" ("securekf-design"), "version" (2), then the
    sections "model", "design" and "decomposition", holding the fields of
    SystemModel, SpectralDesign and SensorDecomposition in declaration
    order.  Not stored: sensor_labels, an absent B or K_lqr, and
    Mtilde_factor, which loading recomputes from Mtilde and ridge_delta.
    Arrays are tagged row-major matrices, {"real": rows of numbers} or
    {"complex": rows of [re, im] number pairs}; the vectors charpoly and Pi
    are one-row matrices, and the float fields riccati_residual and
    ridge_delta are JSON numbers.  Version 1 files, which also held G, H,
    P, F, F_row, Qtilde, Wtilde and assumption1_ok, are refused.
    """
    return {
        "format": DESIGN_FORMAT,
        "version": DESIGN_VERSION,
        "model": _encode_section("model", model),
        "design": _encode_section("design", design),
        "decomposition": _encode_section("decomposition", decomposition),
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


def design_from_dict(data: dict, model: SystemModel):
    """Rebuild (SpectralDesign, SensorDecomposition) from parsed JSON.

    The stored model matrices must match `model` exactly: a design file
    is only valid for the model it was computed from.
    """
    _require_keys(data, ("format", "version", *_SECTIONS), "top level")
    if data["format"] != DESIGN_FORMAT:
        raise DesignFormatError(f"not a design file (format "
                                f"{data['format']!r})")
    if data["version"] != DESIGN_VERSION:
        raise DesignFormatError(f"unsupported design file version "
                                f"{data['version']!r}; re-run the design "
                                "subcommand")

    if data["model"] != _encode_section("model", model):
        raise ValueError("design file was computed for a different model; "
                         "re-run the design subcommand")

    design = SpectralDesign(**_decode_section(data["design"], "design"))
    fields = _decode_section(data["decomposition"], "decomposition")
    decomposition = SensorDecomposition(
        **fields, Mtilde_factor=factor_mtilde(fields["Mtilde"],
                                              fields["ridge_delta"]))
    return design, decomposition


def save_design(path, model, design, decomposition) -> None:
    text = json.dumps(design_to_dict(model, design, decomposition), indent=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_design(path, model):
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
    if getattr(args, "design", None):
        return load_design(args.design, model)
    design = spectral_design(model)
    decomposition = build_decomposition(model, design)
    return design, decomposition


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
    sensor = args.attack_sensor if args.attack_sensor is not None else m
    if not 1 <= sensor <= m:
        raise ValueError(f"--attack-sensor {sensor} out of range 1..{m}")
    magnitude = (args.attack_magnitude if args.attack_magnitude is not None
                 else float(np.pi / 2))
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


def _emit_csv(text, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def cmd_analyze(args) -> int:
    model = _load_valid_model(args.model)
    struct = observability_structure(model)
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
    design = spectral_design(model)
    decomposition = build_decomposition(model, design)
    save_design(args.out, model, design, decomposition)
    print(f"design written to {args.out} "
          f"(riccati residual {design.riccati_residual:.3e}, "
          f"ridge delta {decomposition.ridge_delta:.3e})")
    return EXIT_OK


def cmd_certify(args) -> int:
    model = _load_valid_model(args.model)
    struct = observability_structure(model)
    cert = certify_resilience(struct, args.p)
    verdict = "secure" if cert.secure else "NOT secure"
    print(f"sparse observability index: {cert.sparse_index}; "
          f"budget p = {cert.p} needs 2p <= {cert.sparse_index}: {verdict} "
          f"(margin {cert.margin})")
    return EXIT_OK if cert.secure else EXIT_INSECURE


def cmd_simulate(args) -> int:
    model = _load_valid_model(args.model)
    design, decomposition = _get_design(args, model)
    attack = _build_attack(args, model.m)
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


def cmd_sweep_gamma(args) -> int:
    model = _load_valid_model(args.model)
    design, decomposition = _get_design(args, model)
    attack = _build_attack(args, model.m)
    if attack.kind == "none":
        raise ValueError("sweep-gamma needs an attack; pick --attack-kind "
                         "constant, uniform, or ramp")
    gammas = _parse_grid(args.gammas, "gammas")
    rows = sweep_gamma(model, design, decomposition, gammas=gammas,
                       attack=attack, trials=args.trials,
                       horizon=args.horizon, seed=args.seed,
                       burn_in=args.burn_in)
    _emit_csv(sweep_csv(rows), args.out)
    where = args.out if args.out else "stdout"
    print(f"{len(rows)} gamma value(s), {args.trials} trial(s) each -> "
          f"{where}", file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK


def cmd_sweep_attack(args) -> int:
    model = _load_valid_model(args.model)
    design, decomposition = _get_design(args, model)
    attack = _build_attack(args, model.m)
    if attack.kind == "none":
        raise ValueError("sweep-attack needs an attack; pick --attack-kind "
                         "constant, uniform, or ramp")
    magnitudes = _parse_grid(args.magnitudes, "magnitudes")
    rows = sweep_attack_magnitude(model, design, decomposition,
                                  magnitudes=magnitudes, gamma=args.gamma,
                                  attack=attack, trials=args.trials,
                                  horizon=args.horizon, seed=args.seed,
                                  burn_in=args.burn_in)
    _emit_csv(sweep_csv(rows), args.out)
    where = args.out if args.out else "stdout"
    print(f"{len(rows)} magnitude(s) at gamma={args.gamma:g}, "
          f"{args.trials} trial(s) each -> {where}",
          file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_sim_flags(p, attack_kind, trials=True):
    p.add_argument("--gamma", type=float, default=5.0,
                   help="l1 regularization weight (default 5)")
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                   help=f"steps per run (default {DEFAULT_HORIZON})")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; fully determines all randomness")
    if trials:
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                       help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN,
                   help=f"steps dropped from MSE averages "
                        f"(default {DEFAULT_BURN_IN})")
    p.add_argument("--attack-kind", default=attack_kind,
                   choices=["none", "constant", "uniform", "ramp"],
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="securekf",
        description="Secure state estimation for linear Gaussian systems "
                    "under sparse sensor attacks.",
        epilog="Model files are JSON objects with keys A, C, Q, R, Sigma "
               "and optional B, K_lqr, sensor_labels; matrices are "
               "row-major nested arrays.  Design files are written by the "
               "design subcommand (v2, complex entries as [re, im] pairs).  "
               "Trace CSV columns: k, x_*, u_*, y_*, a_*, xhat_kal_*, "
               "xhat_sec_*, xhat_ls_*, solver_iters, kkt_residual, "
               "solver_warn.  Sweep CSV columns: sweep_value, "
               "mse_{secure,kalman}_{no_attack,attack}, matching stderr_* "
               "columns.  Exit codes: 0 ok, 1 file/parse, 2 validation, "
               "3 assumption violation, 4 insecure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze",
                       help="report per-state sensor support and the "
                            "sparse observability index")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--json", default=None, metavar="OUT_JSON",
                   help="also write the report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("design",
                       help="compute and persist the filter design and "
                            "sensor decomposition")
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
    _add_sim_flags(p, "none", trials=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-gamma",
                       help="paired clean/attacked Monte Carlo MSE across "
                            "a gamma grid")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--gammas",
                   default=",".join(f"{g:g}" for g in DEFAULT_GAMMAS),
                   help="comma-separated gamma grid")
    _add_sim_flags(p, "uniform")
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("sweep-attack",
                       help="paired clean/attacked Monte Carlo MSE across "
                            "attack magnitudes at fixed gamma")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--magnitudes",
                   default=",".join(f"{v:g}" for v in DEFAULT_MAGNITUDES),
                   help="comma-separated magnitude grid")
    _add_sim_flags(p, "uniform")
    p.set_defaults(func=cmd_sweep_attack)

    return parser


def _classify_error(exc: Exception) -> int:
    text = str(exc)
    if isinstance(exc, RiccatiDivergenceError) or any(
            text.startswith(prefix) for prefix in _ASSUMPTION_PREFIXES):
        return EXIT_ASSUMPTION
    return EXIT_VALIDATION


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ModelFormatError, DesignFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RiccatiDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify_error(exc)
    except AssertionError as exc:
        # internal invariant failed while the inputs were legal: surface
        # it as an assumption-level failure rather than a traceback
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
