"""Per-sensor decomposition of the fixed-gain filter into scalar modes.

Each sensor i gets a gain matrix G_i whose row j filters the scalar
measurement stream through the mode pi_j of the closed-loop matrix
A - K C A.  ``local_gains`` solves the m n resolvent rows
C_i A (A - pi_j I)^-1 of every sensor as one stacked LAPACK call (sensor
i's G_i is its slice i); the tests check it against a second
construction from the characteristic polynomial of A.
build_decomposition makes one pass over a design: it reuses the
observability structure spectral_design derived (SystemModel.structure),
checks A - pi_j I for invertibility once, solves every gain in that
one call and builds one realification map for every sensor's projector
and the realified arrays.  On top of G_i sit the canonical projectors
P_i with P_i G_i = H_i (H_i the 0/1 diagonal coverage pattern) and the
lower Cholesky factor L of Mtilde + ridge_delta * I (factor_mtilde),
Mtilde the stationary covariance of the projected residuals: all the
estimator reads.
Mtilde itself and the unprojected Qtilde and Wtilde are not stored;
``residual_covariances`` computes them on demand.

The gains, projectors and covariances are built mode by mode in complex
arithmetic.  build_decomposition then realifies what the estimator reads,
once, with the unitary T of realification_map: the bank becomes the real
Jordan form T diag(Pi) T^H (Horn & Johnson, Matrix Analysis, 3.4), and
G_i, P_i and Mtilde become real after a check that their imaginary parts
are rounding.
"""

from __future__ import annotations

import dataclasses
import functools
import logging

import numpy as np

# np.linalg.solve's LAPACK gufunc, called directly on a stack of systems
from numpy.linalg._umath_linalg import solve1 as _solve1

from . import fusion
from .model import SystemModel
from .spectral import AssumptionError, SpectralDesign, _spectrum_gap

CANONICAL_RTOL = 1e-8    # P_i G_i = H_i residual, imaginary-residue checks
PAIRING_RTOL = 1e-9      # conjugate-pair match, relative to 1 + max|Pi|
LYAPUNOV_TOL = 1e-10     # Wtilde fixed-point residual
PSD_RTOL = 1e-9          # Mtilde eigenvalue floor, relative to trace
COND_LIMIT = 1e12        # ridge regularization threshold for Mtilde

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class SensorDecomposition:
    """What the estimator reads of one filter design's decomposition.

    Every array is real, in the coordinates realification_map's T gives
    each sensor's modes.  bank = T diag(Pi) T^H (the real Jordan form of
    the filter modes) and bank_input = T 1 drive each sensor's bank.
    G_stack and H_stack stack the per-sensor T G_i and H_i (sensor i owns
    rows i*n .. (i+1)*n - 1); Ptilde is the block diagonal of the P_i T^H.
    Mtilde_factor is factor_mtilde's lower Cholesky factor L of
    Mtilde + ridge_delta * I, zero above the diagonal, where Mtilde is the
    residual covariance, which residual_covariances returns and this
    class does not keep; ridge_delta is 0 unless Mtilde is near-singular.
    fusion_problem, the FusionProblem of H_stack and Mtilde_factor, is
    derived on first use and kept.
    """

    bank: np.ndarray
    bank_input: np.ndarray
    G_stack: np.ndarray
    H_stack: np.ndarray
    Ptilde: np.ndarray
    Mtilde_factor: np.ndarray
    ridge_delta: float

    @functools.cached_property
    def fusion_problem(self):
        """build_fusion_problem(H_stack, Mtilde_factor), built on first use
        and kept, as SystemModel.structure is: simulate, the sweeps and
        empirical_equivalence_probability all read this one.  A copy made
        by dataclasses.replace starts without it."""
        return fusion.build_fusion_problem(self.H_stack, self.Mtilde_factor)


def conjugate_pairing(Pi: np.ndarray) -> np.ndarray:
    """pair[j] = index holding conj(Pi[j]); j itself for real eigenvalues."""
    Pi = np.asarray(Pi)
    n = len(Pi)
    scale = PAIRING_RTOL * (1.0 + float(np.abs(Pi).max(initial=0.0)))
    pair = np.arange(n)
    for j in range(n):
        if abs(Pi[j].imag) <= scale:
            continue
        gaps = np.abs(Pi - np.conj(Pi[j]))
        k = int(np.argmin(gaps))
        if gaps[k] > scale or k == j:
            raise ValueError(
                f"eigenvalue {Pi[j]} has no conjugate partner in the spectrum")
        pair[j] = k
    if not np.array_equal(pair[pair], np.arange(n)):
        raise ValueError("conjugate pairing is not an involution")
    return pair


def realification_map(pair: np.ndarray) -> np.ndarray:
    """Unitary T sending conjugate-pair coordinates to real/imaginary parts.

    For a pair (j, k): row j averages the two coordinates, row k extracts
    the antisymmetric part rotated onto the real axis, so T z is real for
    every vector z with conj(z[j]) = z[k].  Real positions pass through.
    """
    n = len(pair)
    T = np.zeros((n, n), dtype=complex)
    for j in range(n):
        k = int(pair[j])
        if k == j:
            T[j, j] = 1.0
        elif j < k:
            T[j, j] = T[j, k] = 1.0 / np.sqrt(2.0)
            T[k, j] = -1j / np.sqrt(2.0)
            T[k, k] = 1j / np.sqrt(2.0)
    return T


def _resolvent_guard(model: SystemModel, design: SpectralDesign):
    # refuse a pi_j within EIG_SEPARATION of spec(A), by the rule
    # closed_loop_eigendecomposition applies: a design built elsewhere
    # may never have passed it.  |p(pi_j)|, a product of n such
    # distances, can be tiny while every one is large
    why = _spectrum_gap(design.Pi, model.A)
    if why is not None:
        raise AssumptionError(f"Assumption 1 violated: {why}; no per-mode "
                              "gains")


def local_gains(model: SystemModel, design: SpectralDesign) -> np.ndarray:
    """Every sensor's G_i as an (m, n, n) stack: row j of G_i is
    C_i A (A - pi_j I)^-1.

    One stacked LAPACK call solves all m n rows, each row's system
    row @ (A - pi_j I) = C_i A on its own, so every row has the bits of
    its own np.linalg.solve.  C_i A is formed row by row: one C @ A
    product gives other bits on some designs.
    """
    _resolvent_guard(model, design)
    n = model.n
    cA = np.array([model.C[i] @ model.A for i in range(model.m)],
                  dtype=complex)
    shifted = model.A.astype(complex) - design.Pi[:, None, None] * np.eye(n)
    return _solve1(shifted.transpose(0, 2, 1), cA[:, None, :])


def canonical_projector(G_i: np.ndarray, covered, T: np.ndarray, i: int):
    """Invertible P_i with P_i G_i = H_i = diag(coverage pattern).

    covered lists the states sensor i observes; those columns of G_i form
    the basis B, mapped through T, the realification_map of the modes'
    conjugate pairing (the identity for real modes), so the completion
    can run over the reals.  The completion picks canonical basis vectors
    by largest residual norm (ties broken by smallest index), which pins
    a deterministic P_i.  P_i inherits the conjugate-pair equivariance of
    G_i, which keeps the fused problem data real in exact arithmetic.
    A rank-deficient basis or an ill-conditioned P_i raises
    AssumptionError (Theorem 2), naming sensor i + 1.
    """
    G_i = np.asarray(G_i, dtype=complex)
    n = G_i.shape[0]
    covered = sorted(int(j) for j in covered)
    uncovered = [j for j in range(n) if j not in covered]
    scale = max(float(np.abs(G_i).max()), 1e-300)

    for j in uncovered:
        if np.linalg.norm(G_i[:, j]) > CANONICAL_RTOL * scale * n:
            raise ValueError(
                f"column {j} of G_i is nonzero but state {j} is marked uncovered")

    B = G_i[:, covered]
    B_real = T @ B
    imag = float(np.abs(B_real.imag).max(initial=0.0))
    assert imag <= CANONICAL_RTOL * scale, \
        f"conjugate-pair structure of G_i broken (imaginary residue {imag:.3e})"
    B_real = B_real.real

    r = len(covered)
    refusal = f"Theorem 2 precondition violated: sensor {i + 1}: "
    if r:
        sv = np.linalg.svd(B_real, compute_uv=False)
        if sv[-1] <= CANONICAL_RTOL * sv[0]:
            raise AssumptionError(
                f"{refusal}nonzero columns of G_i are rank deficient "
                f"(σ_min/σ_max = {sv[-1] / sv[0]:.3e} <= CANONICAL_RTOL = "
                f"{CANONICAL_RTOL:g})")
        Q_basis, _ = np.linalg.qr(B_real)
    else:
        Q_basis = np.zeros((n, 0))

    completion = []
    basis = Q_basis
    for _ in range(n - r):
        residuals = np.eye(n) - basis @ (basis.T @ np.eye(n))
        norms = np.linalg.norm(residuals, axis=0)
        k = int(np.argmax(norms > norms.max() - 1e-12))
        vec = residuals[:, k] / norms[k]
        completion.append(vec)
        basis = np.column_stack([basis, vec])

    M = np.column_stack([B_real] + completion) if completion \
        else B_real
    E_full = np.eye(n)[:, covered + uncovered]
    P_i = E_full @ np.linalg.solve(M, T)

    H_i = np.zeros((n, n))
    H_i[covered, covered] = 1.0

    residual = float(np.abs(P_i @ G_i - H_i).max())
    assert residual <= CANONICAL_RTOL * max(1.0, scale) * n, \
        f"P_i G_i - H_i residual {residual:.3e}"
    cond = float(np.linalg.cond(P_i))
    if cond > 1.0 / CANONICAL_RTOL:
        raise AssumptionError(f"{refusal}canonical projector ill "
                              f"conditioned ({cond:.3e})")
    return P_i, H_i


def factor_mtilde(Mtilde: np.ndarray, ridge_delta: float) -> np.ndarray:
    """Lower Cholesky factor L of Mtilde + ridge_delta * I (no ridge at 0),
    L L^T = that sum, zero above the diagonal.  Raises
    numpy.linalg.LinAlgError unless the matrix is positive definite."""
    return np.linalg.cholesky(
        Mtilde + ridge_delta * np.eye(Mtilde.shape[0]) if ridge_delta
        else Mtilde)


def residual_covariances(model: SystemModel, design: SpectralDesign,
                         G_list, Ptilde: np.ndarray):
    """Stationary covariances of the stacked local estimation residuals.

    Qtilde is the one-step noise covariance of the stacked residual
    recursion, Wtilde its stationary fixed point W = Pi W Pi* + Q (solved
    in closed form since Pi is diagonal), Mtilde the covariance after the
    canonical projection.  Returns (Qtilde, Wtilde, Mtilde, delta), where
    delta, the ridge build_decomposition factors Mtilde + delta * I with,
    is nonzero only when Mtilde is numerically near-singular.
    """
    n, m = model.n, model.m
    ones = np.ones((n, 1))
    S_stack = np.vstack([np.asarray(G_list[i], dtype=complex) - ones @ model.C[i:i + 1]
                         for i in range(m)])
    Qtilde = S_stack @ model.Q @ S_stack.conj().T \
        + np.kron(model.R, np.ones((n, n)))
    Qtilde = 0.5 * (Qtilde + Qtilde.conj().T)

    pi_t = np.tile(design.Pi, m)
    products = pi_t[:, None] * np.conj(pi_t[None, :])
    if np.abs(products).max() >= 1.0:
        raise AssumptionError("Assumption 1 violated: local estimator modes "
                              "are unstable; no stationary residual "
                              "covariance exists")
    Wtilde = Qtilde / (1.0 - products)
    Wtilde = 0.5 * (Wtilde + Wtilde.conj().T)

    lyap = float(np.abs(Wtilde - np.diag(pi_t) @ Wtilde @ np.diag(pi_t).conj().T
                        - Qtilde).max())
    assert lyap <= LYAPUNOV_TOL * max(1.0, float(np.abs(Qtilde).max())), \
        f"stationary covariance residual {lyap:.3e}"

    Mtilde = Ptilde @ Wtilde @ Ptilde.conj().T
    Mtilde = 0.5 * (Mtilde + Mtilde.conj().T)

    eigs = np.linalg.eigvalsh(Mtilde)
    trace = float(np.trace(Mtilde).real)
    if eigs[0] < -PSD_RTOL * max(trace, 0.0):
        raise ValueError(
            f"residual covariance lost positive semidefiniteness "
            f"(min eigenvalue {eigs[0]:.3e}, trace {trace:.3e})")

    cond = np.inf if eigs[0] <= 0.0 else float(eigs[-1] / eigs[0])
    delta = 0.0
    if cond > COND_LIMIT:
        delta = trace / (m * n) / COND_LIMIT
        logger.warning(
            "residual covariance nearly singular (condition %.3e); "
            "adding ridge %.3e before factorization", cond, delta)
    return Qtilde, Wtilde, Mtilde, delta


def build_decomposition(model: SystemModel,
                        design: SpectralDesign) -> SensorDecomposition:
    """Assemble the per-sensor decomposition for a validated design.

    One pass over the design: the observability structure is the one
    spectral_design derived (SystemModel.structure), the resolvent guard
    runs once, local_gains solves every sensor's gain rows in one stacked
    call, and the filter identity G_i A = Pi G_i + 1 C_i A is checked on
    the stack; then each sensor gets its canonical projector, through the
    one realification map T, and the residual covariance and the
    realification follow.  The realified Mtilde is factored once, with
    residual_covariances' ridge; each failed factorization raises the
    ridge to at least trace / (mn) / COND_LIMIT, and to ten times the last
    one after that, and a fourth failure is refused with ValueError.
    """
    T = realification_map(conjugate_pairing(design.Pi))
    n, m = model.n, model.m
    G = local_gains(model, design)
    # mode-by-mode filter identity G_i A = Pi G_i + 1 C_i A, every sensor
    # at once (a check: its C A need not have the gains' bits)
    drift = np.abs(G @ model.A - design.Pi[:, None] * G
                   - (model.C @ model.A)[:, None, :]).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(G).max(axis=(1, 2)))
    i = int((drift / scale).argmax())
    assert drift[i] <= CANONICAL_RTOL * scale[i], \
        f"sensor {i}: per-mode gain identity residual {drift[i]:.3e}"

    Ptilde = np.zeros((m * n, m * n), dtype=complex)
    H_list = []
    for i in range(m):
        P_i, H_i = canonical_projector(
            G[i], model.structure.covered_states(i), T, i)
        Ptilde[i * n:(i + 1) * n, i * n:(i + 1) * n] = P_i
        H_list.append(H_i)
    _, _, Mtilde, delta = residual_covariances(model, design, G, Ptilde)
    T_b = np.kron(np.eye(m), T)
    parts = dict(bank=_real((T * design.Pi) @ T.conj().T, "bank"),
                 bank_input=_real(T.sum(axis=1), "bank_input"),
                 G_stack=_real(T_b @ G.reshape(m * n, n), "T_b G"),
                 H_stack=np.vstack(H_list),
                 Ptilde=_real(Ptilde @ T_b.conj().T, "Ptilde T_b^H"))
    M_real = _real(Mtilde, "Mtilde")
    for _ in range(4):
        try:
            factor = factor_mtilde(M_real, delta)
        except np.linalg.LinAlgError:
            delta = max(delta * 10.0,
                        float(np.trace(Mtilde).real) / (m * n) / COND_LIMIT)
            logger.warning("factorization failed; raising ridge to %.3e",
                           delta)
        else:
            return SensorDecomposition(**parts, Mtilde_factor=factor,
                                       ridge_delta=delta)
    raise ValueError("residual covariance could not be factorized")


def _real(a, what):
    """a.real, once a.imag is checked to be rounding (CANONICAL_RTOL)."""
    residue = float(np.abs(a.imag).max(initial=0.0))
    assert residue <= CANONICAL_RTOL * float(np.abs(a).max(initial=0.0)), \
        f"{what} is not real in realified coordinates (imaginary residue " \
        f"{residue:.3e})"
    return a.real.copy()
