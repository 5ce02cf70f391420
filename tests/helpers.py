"""Shared test utilities: deterministic random model generation, a
step-by-step reference for simulate, a value-by-value reference for
trace_csv, and a key-by-key reference for the design-file encoder.

Models are drawn in Jordan coordinates directly so every sample satisfies
the structural requirements by construction: block-diagonal A with 0/1
superdiagonals, distinct block eigenvalues bounded away from zero, PSD
process/initial covariances, PD measurement covariance, exact zero
patterns in C so sensor coverage is unambiguous.
"""

import numpy as np

from securekf import (assemble_canonical_measurement, attack_sequence,
                      build_fusion_problem, fixed_gain_kalman_step,
                      initial_bank, local_estimator_step, psd_factor,
                      secure_fuse)
from securekf.model import SystemModel
from securekf.simulator import trial_generators


def random_jordan_model(seed, n_max=5, m_max=8, ensure_observable=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))

    sizes = []
    left = n
    while left > 0:
        size = int(rng.integers(1, min(3, left) + 1))
        sizes.append(size)
        left -= size

    # distinct eigenvalues away from zero; separation keeps rank tests clean
    lams = []
    while len(lams) < len(sizes):
        lam = float(rng.uniform(0.15, 1.6)) * (1 if rng.random() < 0.7 else -1)
        if all(abs(lam - other) > 0.05 for other in lams):
            lams.append(lam)

    A = np.zeros((n, n))
    starts = []
    pos = 0
    for size, lam in zip(sizes, lams):
        starts.append(pos)
        for k in range(size):
            A[pos + k, pos + k] = lam
            if k + 1 < size:
                A[pos + k, pos + k + 1] = 1.0
        pos += size

    m = int(rng.integers(1, m_max + 1))
    C = np.zeros((m, n))
    for i in range(m):
        for b, (start, size) in enumerate(zip(starts, sizes)):
            u = rng.random()
            if u < 0.55:
                # full coverage of the chain: nonzero at its first state
                C[i, start] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
                extra = rng.random(size) < 0.3
                C[i, start:start + size][extra] += rng.normal(0, 1, extra.sum())
            elif u < 0.7 and size > 1:
                # partial coverage: first nonzero entry sits deeper in the chain
                t = int(rng.integers(1, size))
                C[i, start + t] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])

    if ensure_observable:
        for start in starts:
            if not np.any(C[:, start] != 0.0):
                i = int(rng.integers(0, m))
                C[i, start] = rng.uniform(0.5, 2.0)

    L = rng.normal(0, 0.1, (n, n))
    Q = L @ L.T
    M = rng.normal(0, 0.1, (m, m))
    R = M @ M.T + 0.01 * np.eye(m)
    Ls = rng.normal(0, 0.1, (n, n))
    Sigma = Ls @ Ls.T
    return SystemModel(A=A, C=C, Q=Q, R=R, Sigma=Sigma)


def step_by_step_simulate(model, design, decomposition, attack, gamma,
                          horizon, seed, trial=0, x0=None):
    """Reference for simulate: one loop over time through the public
    one-step functions, drawing from the same (seed, trial) substreams.

    Returns a dict of (horizon, .) arrays named as SimulationTrace fields.
    """
    g_init, g_proc, g_meas, g_att = trial_generators(seed, trial)
    Lq, Lr = psd_factor(model.Q), psd_factor(model.R)
    x = (psd_factor(model.Sigma) @ g_init.standard_normal(model.n)
         if x0 is None else np.asarray(x0, dtype=float))
    w = g_proc.standard_normal((horizon, model.n))
    v = g_meas.standard_normal((horizon, model.m))
    a = attack_sequence(attack, model.m, horizon, g_att)
    problem = build_fusion_problem(decomposition.H_stack,
                                   decomposition.Mtilde_factor)
    B, K = model.input_matrix(), model.feedback_gain()
    bank, x_kal = initial_bank(model), np.zeros(model.n)
    out = {f: [] for f in ("x", "xhat_kal", "xhat_ls", "xhat_sec",
                           "kalman_equivalent", "solver_converged")}
    for t in range(horizon):
        u = -(K @ x)
        x = model.A @ x + B @ u + Lq @ w[t]
        y = model.C @ x + Lr @ v[t] + a[t]
        x_kal = fixed_gain_kalman_step(x_kal, y, u, design, model)
        bank = local_estimator_step(bank, y, u, decomposition, model)
        Y = assemble_canonical_measurement(bank, decomposition)
        res = secure_fuse(problem, Y, gamma)
        for f, value in (("x", x), ("xhat_kal", x_kal), ("xhat_ls", res.x_ls),
                         ("xhat_sec", res.x_tilde),
                         ("kalman_equivalent", res.kalman_equivalent),
                         ("solver_converged", res.converged)):
            out[f].append(value)
    return {f: np.array(values) for f, values in out.items()}


def reference_trace_csv(trace):
    """Reference for trace_csv: formats every value on its own."""
    def fmt(value):
        return "%.17g" % float(value)

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
    lines = [",".join(header)]
    for t in range(trace.horizon):
        row = ([str(t + 1)]
               + [fmt(v) for v in trace.x[t]]
               + [fmt(v) for v in trace.u[t]]
               + [fmt(v) for v in trace.y[t]]
               + [fmt(v) for v in trace.a[t]]
               + [fmt(v) for v in trace.xhat_kal[t]]
               + [fmt(v) for v in trace.xhat_sec[t]]
               + [fmt(v) for v in trace.xhat_ls[t]]
               + [str(int(trace.solver_iters[t])),
                  fmt(trace.kkt_residual[t]),
                  str(0 if trace.solver_converged[t] else 1)])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _reference_matrix(M):
    M = np.asarray(M)
    if np.iscomplexobj(M):
        return {"complex": [[[float(v.real), float(v.imag)] for v in row]
                            for row in M.reshape(M.shape[0], -1)]}
    return {"real": [[float(v) for v in row]
                     for row in M.reshape(M.shape[0], -1)]}


def _reference_vector(v):
    return _reference_matrix(np.asarray(v).reshape(1, -1))


def reference_design_to_dict(model, design, decomposition):
    """Reference for cli.design_to_dict: every key spelled out by hand."""
    model_json = {
        "A": _reference_matrix(model.A),
        "C": _reference_matrix(model.C),
        "Q": _reference_matrix(model.Q),
        "R": _reference_matrix(model.R),
        "Sigma": _reference_matrix(model.Sigma),
    }
    if model.B is not None:
        model_json["B"] = _reference_matrix(model.B)
    if model.K_lqr is not None:
        model_json["K_lqr"] = _reference_matrix(model.K_lqr)
    return {
        "format": "securekf-design",
        "version": 1,
        "model": model_json,
        "design": {
            "P": _reference_matrix(design.P),
            "P_plus": _reference_matrix(design.P_plus),
            "K": _reference_matrix(design.K),
            "charpoly": _reference_vector(design.charpoly),
            "V": _reference_matrix(design.V),
            "Pi": _reference_vector(design.Pi),
            "riccati_residual": float(design.riccati_residual),
            "assumption1_ok": bool(design.assumption1_ok),
        },
        "decomposition": {
            "Pi": _reference_vector(decomposition.Pi),
            "G": [_reference_matrix(M) for M in decomposition.G],
            "H": [_reference_matrix(M) for M in decomposition.H],
            "P": [_reference_matrix(M) for M in decomposition.P],
            "F": [_reference_matrix(M) for M in decomposition.F],
            "G_stack": _reference_matrix(decomposition.G_stack),
            "H_stack": _reference_matrix(decomposition.H_stack),
            "Ptilde": _reference_matrix(decomposition.Ptilde),
            "F_row": _reference_matrix(decomposition.F_row),
            "Qtilde": _reference_matrix(decomposition.Qtilde),
            "Wtilde": _reference_matrix(decomposition.Wtilde),
            "Mtilde": _reference_matrix(decomposition.Mtilde),
            "ridge_delta": float(decomposition.ridge_delta),
        },
    }
