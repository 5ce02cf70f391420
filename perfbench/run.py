"""Benchmark of securekf: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep-l1 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source tree of the repository; the package is
imported from ``src/`` next to this directory and the model is the bundled
``configs/pendulum.json``.  One process, one caller, closed loop: each
call starts when the previous one returned.

A run calls the workload's parts in turn, with the same inputs, until
``--seconds`` of calls are spent, timing a fixed reference kernel and
setting the model up SETUP_BATCH times before the first call and after
each one.  Timings are reported at the reference host speed: each is
divided by the kernel time next to it and multiplied by REFERENCE_S, so
that the host's swings in speed cancel out.  Then it makes one traced
pass over the parts, whose captured traces feed the output checks and
the per-layer metrics.  Last, it runs part 0 of seed 0, the pinned
input, whose MSEs are reported whatever the seed.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones; both modes do
the same work.

The last line of standard output is the result as JSON.  The
environment, the full result and (with ``--trace 1``) the spans are also
written to ``.perfbench-out/`` at the root of the tree.  README.md next
to this file defines every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODEL_PATH = ROOT / "configs" / "pendulum.json"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_BATCH = 5       # set-ups before the first call and after each call
REFERENCE_S = 0.02    # reference kernel time that defines the reference host
PINNED_SEED = 0       # seed of the input the MSEs are taken on
WORKLOADS = ("sweep-l1", "sweep-screened", "attack-stress", "cli-trace")

UNITS = {
    "setup_s": "s",
    "trial_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "converged_frac": "ratio",
    "mse_secure_attack": "state2",
    "mse_secure_no_attack": "state2",
}
SETUP_STAGES = ("model.load_validate_s", "spectral.design_s",
                "decomposition.build_s", "fusion.problem_build_s")


def _import_program():
    """Import securekf from this tree's src/, or exit 1 if it is absent."""
    src = ROOT / "src"
    if not (src / "securekf" / "__init__.py").is_file() or \
            not MODEL_PATH.is_file():
        sys.exit(f"error: {src / 'securekf'} or {MODEL_PATH} not found; "
                 f"run the benchmark inside a source tree of the repository")
    sys.path.insert(0, str(src))
    import securekf
    if pathlib.Path(securekf.__file__).resolve().parent != src / "securekf":
        sys.exit(f"error: imported securekf from {securekf.__file__}, "
                 f"not from {src}")
    return securekf


def set_up(securekf):
    """One set-up of the pendulum design; returns (context, stage times)."""
    clock = [time.perf_counter()]
    model = securekf.load_model(MODEL_PATH)
    report = securekf.validate_model(model)
    clock.append(time.perf_counter())
    design = securekf.spectral_design(model)
    clock.append(time.perf_counter())
    decomposition = securekf.build_decomposition(model, design)
    clock.append(time.perf_counter())
    problem = securekf.build_fusion_problem(decomposition.H_stack,
                                            decomposition.Mtilde_factor)
    clock.append(time.perf_counter())
    if not report.passed:
        raise RuntimeError("the bundled model fails validation")
    ctx = SimpleNamespace(model=model, design=design,
                          decomposition=decomposition, problem=problem,
                          model_path=MODEL_PATH)
    return ctx, [b - a for a, b in zip(clock, clock[1:])]


def _blas():
    """Name, version, configuration and thread count of numpy's BLAS."""
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None, "config": None}
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for key, sym, restype in (
                ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
                ("config", "scipy_openblas_get_config64_", ctypes.c_char_p)):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                value = fn()
                out[key] = value.decode() if isinstance(value, bytes) else value
    return out


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment():
    import numpy
    import scipy
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def _reference_kernel():
    """Time a fixed loop of small numpy calls, like the program's inner loop.

    It runs next to every workload call and every batch of set-ups.  On a
    VM whose cores other tenants share, speed swings by up to 2x within
    seconds, and the program's speed moves with the kernel's far more
    closely than with the clock, so timings are reported relative to it
    (see ``_scaled``).
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((12, 4))
    shifted = a + 5.0 * np.eye(4)
    x = rng.standard_normal(4)
    t0 = time.perf_counter()
    for _ in range(1500):
        x = np.tanh(a @ x)
        b @ x
        np.linalg.solve(shifted, x)
    return time.perf_counter() - t0


def _scaled(samples):
    """Median of (time / adjacent reference kernel time), in seconds at
    the reference host speed, where the kernel takes REFERENCE_S."""
    return statistics.median(t / k for t, k in samples) * REFERENCE_S


def _calls(work, budget, checks, between):
    """Cycle through the workload's parts until budget seconds are spent.

    Every part runs at least once, and a further call starts only if the
    median call so far still fits.  Each part's output must equal its
    first output, since its inputs never change.  ``between`` runs after
    every call, outside the timed region.  Returns the call durations and
    each part's first output.
    """
    firsts = [None] * len(work.parts)
    durations = []
    start = time.perf_counter()
    while True:
        k = len(durations) % len(work.parts)
        t0 = time.perf_counter()
        out = work.parts[k]()
        durations.append(time.perf_counter() - t0)
        if firsts[k] is None:
            firsts[k] = out
        checks.require(out == firsts[k],
                       f"{work.name}: a repeated call gave another output")
        between()
        spent = time.perf_counter() - start
        if (len(durations) >= len(work.parts)
                and spent + statistics.median(durations) > budget):
            return durations, firsts


def _traced_pass(work, firsts, checks):
    """Every part once with tracing on; returns (durations, paths, tracer)."""
    from tracer import Tracer
    from workloads import check_traced

    tracer = Tracer()
    durations = []
    with tracer.installed():
        for part, first in zip(work.parts, firsts):
            with tracer.root_span(work.root) as root:
                out = part()
            durations.append(tracer.spans[root][2] - tracer.spans[root][1])
            checks.require(out == first,
                           f"{work.name}: a traced call gave another output")
    return durations, check_traced(work, tracer, checks), tracer


def _pinned_mses(workload, ctx, size, checks):
    """MSEs of part 0 at PINNED_SEED, the same input on every run.

    For a given input the MSEs are exact, so a fixed input lets the
    gate hold them to a near-zero bound; across seeds they spread by
    several percent.
    """
    from workloads import build

    work = build(workload, ctx, PINNED_SEED, size)
    out = work.parts[0]()
    if work.extra_check is not None:
        work.extra_check(0, out, checks)
    return work.mses(out)


def run(workload, seed=0, seconds=30.0, trace=0, size="full"):
    """One benchmark run; returns (result, record, tracer).

    ``size`` "tiny" shrinks every input, for the self-test.
    """
    securekf = _import_program()
    from tracer import layer_metrics
    from workloads import Checks, build

    # set-ups are spread over the run, between the calls, so that their
    # median does not hinge on one moment's load on the host; each batch
    # is paired with the reference kernel timed just before it
    setups = []         # (stage times, kernel time)
    kernels = []        # kernel time before the first call and after each

    def set_up_batch():
        kernels.append(_reference_kernel())
        setups.extend((set_up(securekf)[1], kernels[-1])
                      for _ in range(SETUP_BATCH))

    ctx, _ = set_up(securekf)       # warm-up, not counted
    set_up_batch()
    checks = Checks()
    ctx.workdir = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-tmp-",
                                                dir=ROOT))
    try:
        work = build(workload, ctx, seed, size)
        durations, firsts = _calls(work, seconds, checks, set_up_batch)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced, paths, tracer = _traced_pass(work, firsts, checks)
        if work.extra_check is not None:
            for k, out in enumerate(firsts):
                work.extra_check(k, out, checks)
        mse_attack, mse_clean = _pinned_mses(workload, ctx, size, checks)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    checks.require(math.isfinite(mse_attack) and math.isfinite(mse_clean),
                   f"{workload}: non-finite MSE")
    estimates = sum(paths.values())
    # each call is paired with the mean of the kernel times around it
    around = [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]
    setup_s = _scaled((sum(s), k) for s, k in setups)
    steps_per_s = work.nominal / _scaled(zip(durations, around))

    if trace:
        metrics = {key: (_scaled((s[i], k) for s, k in setups), "s")
                   for i, key in enumerate(SETUP_STAGES)}
        metrics.update(layer_metrics(tracer))
        metrics["trace.overhead_frac"] = (
            1.0 - statistics.median(durations) / statistics.median(traced),
            "ratio")
    else:
        values = {
            "setup_s": setup_s,
            "trial_steps_per_s": steps_per_s,
            "peak_rss_mb": peak_rss_mb,
            "converged_frac":
                1.0 - paths["unconverged"] / estimates if estimates else 0.0,
            "mse_secure_attack": mse_attack,
            "mse_secure_no_attack": mse_clean,
        }
        metrics = {key: (value, UNITS[key]) for key, value in values.items()}
    result = {
        "correct": not checks.failures,
        "attempted": estimates,
        "failed": paths["unconverged"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "environment": environment(),
              "mse_seed": PINNED_SEED,
              "parts": len(work.parts),
              "nominal_trial_steps": work.nominal * len(work.parts),
              "paths": paths, "check_failures": checks.failures,
              "setup_samples_s": [sum(s) for s, _ in setups],
              "untraced_call_s": durations, "traced_call_s": traced,
              "reference_kernel_s": kernels,
              "unscaled": {"setup_s": statistics.median(
                               sum(s) for s, _ in setups),
                           "trial_steps_per_s":
                               work.nominal / statistics.median(durations)},
              "result": result}
    return result, record, tracer


def write_out(record, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}.trace{record['trace']}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if record["trace"]:
        spans = {"fields": ["name", "start_s", "end_s", "parent"],
                 "spans": tracer.spans}
        (OUT_DIR / f"{record['workload']}.spans.json").write_text(
            json.dumps(spans) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record, tracer = run(args.workload, args.seed, args.seconds,
                                 args.trace)
    write_out(record, tracer)
    for failure in record["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("# environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
