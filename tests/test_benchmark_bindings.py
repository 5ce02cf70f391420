"""The benchmark's tracer wraps securekf functions by the names its calling
modules bind them under, and reads the fields of every FusionResult; a
refactor that drops one breaks the traced pass.  Its output checks also
count one securekf.simulator.secure_fuse call per simulated step."""

import importlib.util
import pathlib

import numpy as np
import pytest

import securekf.simulator
from securekf import build_fusion_problem, secure_fuse
from securekf.simulator import AttackSpec, simulate, sweep_gamma

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_bindings_resolve():
    tracer = load_tracer()
    assert tracer.WRAPPED
    for module, attr, span in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {span}) is gone"


def test_tracer_reads_fusion_results(pendulum_decomposition):
    tracer = load_tracer()
    dec = pendulum_decomposition
    problem = build_fusion_problem(dec.H_stack, dec.Mtilde_factor)
    Y = problem.H @ np.array([0.3, -0.2, 0.1, 0.05])
    Y = Y + 1e-3 * np.sin(np.arange(Y.size))
    Y_hit = Y.copy()
    Y_hit[15] += 10.0
    screened = secure_fuse(problem, Y, 1e6)
    assert tracer.fuse_path(screened) == "screened"
    l1 = secure_fuse(problem, Y_hit, 5.0)
    assert tracer.fuse_path(l1) in ("exact", "iterative")
    for field in ("x_tilde", "iterations", "kkt_residual", "converged"):
        with pytest.raises(AttributeError):
            setattr(l1, field, None)


def test_one_secure_fuse_call_per_step(monkeypatch, pendulum_model,
                                       pendulum_design,
                                       pendulum_decomposition):
    calls = []
    fuse = securekf.simulator.secure_fuse

    def counting(problem, Y, gamma, **kwargs):
        calls.append(gamma)
        return fuse(problem, Y, gamma, **kwargs)

    monkeypatch.setattr(securekf.simulator, "secure_fuse", counting)
    model, design, dec = pendulum_model, pendulum_design, pendulum_decomposition
    simulate(model, design, dec, AttackSpec(), 5.0, horizon=60)
    assert len(calls) == 60
    calls.clear()
    # each gamma runs one clean and one attacked simulation per trial
    sweep_gamma(model, design, dec, gammas=(5.0, 1000.0), trials=1,
                horizon=60)
    assert len(calls) == 240
    assert sorted(set(calls)) == [5.0, 1000.0]
