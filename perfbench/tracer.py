"""In-memory spans around the calls the benchmark makes into securekf.

A Tracer replaces public functions at the names their calling module
binds them under (``securekf.simulator.secure_fuse``, ``securekf.cli.
simulate`` and so on) with wrappers that record one span per call:
name, start, end and parent.  The originals are restored when the
``installed`` context exits.  Spans stay in memory until the run ends.

Sweeps fan trials out to a thread pool, so each thread keeps its own
stack of open spans; a span opened on a thread with an empty stack takes
the workload's root span as its parent.  A span's self time is its
duration minus the union of its children's intervals, which stays right
when children on two threads overlap.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time

import securekf.cli
import securekf.simulator

PATHS = ("screened", "exact", "iterative", "unconverged")

# (module, attribute, span name).  Span names are "<layer>.<function>",
# the layer being the securekf module that defines the function.
WRAPPED = (
    (securekf.simulator, "simulate", "simulator.simulate"),
    (securekf.simulator, "mse", "simulator.mse"),
    (securekf.simulator, "secure_fuse", "fusion.secure_fuse"),
    (securekf.simulator, "local_estimator_step", "fusion.local_estimator_step"),
    (securekf.simulator, "assemble_canonical_measurement",
     "fusion.assemble_canonical_measurement"),
    (securekf.simulator, "build_fusion_problem", "fusion.build_fusion_problem"),
    (securekf.simulator, "fixed_gain_kalman_step",
     "spectral.fixed_gain_kalman_step"),
    (securekf.cli, "load_model", "model.load_model"),
    (securekf.cli, "validate_model", "model.validate_model"),
    (securekf.cli, "spectral_design", "spectral.spectral_design"),
    (securekf.cli, "build_decomposition", "decomposition.build_decomposition"),
    (securekf.cli, "simulate", "simulator.simulate"),
    (securekf.cli, "mse", "simulator.mse"),
    (securekf.cli, "trace_csv", "cli.trace_csv"),
)

LAYERS = ("model", "spectral", "decomposition", "fusion", "simulator", "cli")


def fuse_path(result) -> str:
    """Which solver path produced a FusionResult."""
    if result.kalman_equivalent:
        return "screened"
    if not result.converged:
        return "unconverged"
    return "exact" if result.iterations <= 1 else "iterative"


class Tracer:
    """Span store plus the solver paths and simulation traces seen."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.fuse = []           # (span index, path, iterations, kkt)
        self.traces = []         # SimulationTrace of every simulate call
        self.root = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def root_span(self, name: str):
        """Top-level span of one workload call; parent of pool threads."""
        idx = self.open(name)
        self.root = idx
        try:
            yield idx
        finally:
            self.close(idx)
            self.root = None

    def _wrap(self, name, fn):
        def after(idx, out):
            if name == "fusion.secure_fuse":
                self.fuse.append((idx, fuse_path(out), out.iterations,
                                  out.kkt_residual))
            elif name == "simulator.simulate":
                self.traces.append(out)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            after(idx, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding in WRAPPED for a recording wrapper."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(WRAPPED, saved):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like self.spans."""
        children = [[] for _ in self.spans]
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(idx)
        out = []
        for (_, t0, t1, _), kids in zip(self.spans, children):
            covered, reach = 0.0, t0
            for a, b in sorted((self.spans[k][1], self.spans[k][2])
                               for k in kids):
                a, b = max(a, reach), min(b, t1)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((t1 - t0) - covered)
        return out


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    Shares divide self time by the span time, the summed self time of all
    spans.  With one thread that is the traced wall time; when a sweep's
    pool runs two trials at once it counts each thread's time, waits for
    the interpreter lock included, so the shares still add up to 1, less
    any span outside the securekf layers (attack-stress's root).
    Per-call times are medians over every call.
    """
    selfs = tracer.self_times()
    wall = sum(t1 - t0 for _, t0, t1, parent in tracer.spans
               if parent is None)
    total = sum(selfs)
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, t0, t1, _), own in zip(tracer.spans, selfs):
        by_name.setdefault(name, []).append(t1 - t0)
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own

    def p50_us(name):
        return 1e6 * statistics.median(by_name.get(name, [0.0]))

    fuse_us = [1e6 * (tracer.spans[i][2] - tracer.spans[i][1])
               for i, *_ in tracer.fuse]
    calls = dict.fromkeys(PATHS, 0)
    path_self = dict.fromkeys(PATHS, 0.0)
    solves = []
    for idx, path, iters, _ in tracer.fuse:
        calls[path] += 1
        path_self[path] += selfs[idx]
        if path != "screened":
            solves.append(float(iters))
    n_fuse = len(tracer.fuse)

    seen, repeats = set(), 0
    for tr in tracer.traces:
        if tr.attack.kind == "none":
            key = (tr.seed, tr.trial, tr.gamma, tr.horizon)
            repeats += key in seen
            seen.add(key)

    m = {
        "fusion.fuse_us.p50": (_quantile(fuse_us, 50), "us"),
        "fusion.fuse_us.p90": (_quantile(fuse_us, 90), "us"),
        "fusion.screen_hit_ratio": (calls["screened"] / max(n_fuse, 1),
                                    "ratio"),
        "fusion.iterations_per_solve.mean":
            (statistics.fmean(solves) if solves else 0.0, "iterations"),
        "fusion.iterations_per_solve.p90":
            (_quantile(solves, 90), "iterations"),
        "fusion.kkt_residual_max":
            (max((kkt for *_, kkt in tracer.fuse), default=0.0), "abs"),
        "fusion.bank_step_us": (p50_us("fusion.local_estimator_step"), "us"),
        "fusion.assemble_us":
            (p50_us("fusion.assemble_canonical_measurement"), "us"),
        "spectral.kalman_step_us":
            (p50_us("spectral.fixed_gain_kalman_step"), "us"),
        "simulator.simulate_calls":
            (len(by_name.get("simulator.simulate", [])), "count"),
        "simulator.clean_run_repeats": (repeats, "count"),
        "simulator.simulate_self_s":
            (self_by_name.get("simulator.simulate", 0.0), "s"),
        "simulator.sweep_self_share":
            ((self_by_name.get("simulator.sweep_gamma", 0.0)
              + self_by_name.get("simulator.sweep_attack_magnitude", 0.0))
             / total, "ratio"),
        "cli.trace_csv_share":
            (self_by_name.get("cli.trace_csv", 0.0) / total, "ratio"),
        "cli.main_self_share":
            (self_by_name.get("cli.main", 0.0) / total, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.span_s": (total, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for path in PATHS:
        m[f"fusion.fuse_calls.{path}"] = (calls[path], "count")
        m[f"fusion.fuse_share.{path}"] = (path_self[path] / total, "ratio")
    for layer in LAYERS:
        m[f"layer_share.{layer}"] = (layer_self[layer] / total, "ratio")
    return m
