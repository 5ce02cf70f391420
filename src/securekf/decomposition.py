"""Per-sensor decomposition of the fixed-gain filter into scalar modes.

Each sensor i gets a gain matrix G_i whose row j filters the scalar
measurement stream through the mode pi_j of the closed-loop matrix
A - K C A.  Two independent constructions are shipped: ``local_gain_direct``
solves one resolvent system per row, ``local_gain_factored`` assembles the
same matrix from the characteristic polynomial of A; each is the test
oracle of the other.  On top of G_i sit the canonical projectors P_i with
P_i G_i = H_i (H_i the 0/1 diagonal coverage pattern) and the stationary
covariance Mtilde of the projected residuals: all the estimator reads.
The fusion weights F_i = V diag(V^-1 K_i) and the unprojected Qtilde,
Wtilde are not stored; ``fusion_weights`` and ``residual_covariances``
compute them on demand.

All constructions run in complex arithmetic even for real spectra; the
conjugate-pair bookkeeping is checked at the points where a quantity must
come out real, instead of branching into a real-only code path.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import scipy.linalg

from .model import SystemModel, observability_matrix, observability_structure
from .spectral import EIG_SEPARATION, SpectralDesign

CANONICAL_RTOL = 1e-8    # P_i G_i = H_i residual, imaginary-residue checks
PAIRING_RTOL = 1e-9      # conjugate-pair match, relative to 1 + max|Pi|
LYAPUNOV_TOL = 1e-10     # Wtilde fixed-point residual
PSD_RTOL = 1e-9          # Mtilde eigenvalue floor, relative to trace
COND_LIMIT = 1e12        # ridge regularization threshold for Mtilde

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class SensorDecomposition:
    """What the estimator reads of one filter design's decomposition.

    Pi carries the local filter modes so the estimator bank can run from
    the decomposition alone.  G_stack and H_stack stack the per-sensor
    G_i and H_i (sensor i owns rows i*n .. (i+1)*n - 1); Ptilde is the
    block diagonal of the P_i.  Mtilde is the Hermitian residual
    covariance before any ridge; Mtilde_factor is a Cholesky factorization
    of Mtilde + ridge_delta * I ready for repeated solves.
    """

    Pi: np.ndarray
    G_stack: np.ndarray
    H_stack: np.ndarray
    Ptilde: np.ndarray
    Mtilde: np.ndarray
    Mtilde_factor: tuple
    ridge_delta: float


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


def _resolvent_guard(design: SpectralDesign):
    # p(pi_j) = det(pi_j I - A): vanishing means A - pi_j I is singular
    vals = np.polyval(design.charpoly[::-1], design.Pi)
    if np.abs(vals).min() < EIG_SEPARATION:
        raise ValueError(
            "Assumption 1 violated: closed-loop eigenvalue on the spectrum "
            f"of A (|p(pi)| = {np.abs(vals).min():.3e}); no per-mode gains")
    return vals


def local_gain_direct(model: SystemModel, design: SpectralDesign,
                      i: int) -> np.ndarray:
    """G_i with row j = C_i A (A - pi_j I)^-1, one linear solve per row."""
    _resolvent_guard(design)
    A = model.A.astype(complex)
    cA = (model.C[i] @ model.A).astype(complex)
    n = model.n
    G = np.empty((n, n), dtype=complex)
    for j, pi_j in enumerate(design.Pi):
        # row solves row @ (A - pi_j I) = C_i A
        G[j] = np.linalg.solve((A - pi_j * np.eye(n)).T, cA)
    return G


def local_gain_factored(model: SystemModel, design: SpectralDesign,
                        i: int) -> np.ndarray:
    """G_i assembled from the characteristic polynomial of A.

    Row j carries the coefficients of the quotient (p(x) - p(pi_j))/(x - pi_j)
    applied to the rows of O_i A, scaled by -1/p(pi_j).  Algebraically equal
    to the resolvent route; kept as an independent cross-check.
    """
    p_vals = _resolvent_guard(design)
    a = design.charpoly
    n = model.n
    D1 = np.diag(-1.0 / p_vals)
    D2 = np.vander(design.Pi, N=n, increasing=False)
    D3 = scipy.linalg.toeplitz(c=a[:0:-1], r=np.zeros(n))
    O_iA = observability_matrix(model.A, model.C[i]) @ model.A
    return D1 @ D2 @ D3 @ O_iA


def canonical_projector(G_i: np.ndarray, covered, pair: np.ndarray | None = None):
    """Invertible P_i with P_i G_i = H_i = diag(coverage pattern).

    covered lists the states sensor i observes; those columns of G_i form
    the basis B, mapped through the realification T so the completion can
    run over the reals.  The completion picks canonical basis vectors by
    largest residual norm (ties broken by smallest index), which pins a
    deterministic P_i.  P_i inherits the conjugate-pair equivariance of
    G_i, which keeps the fused problem data real in exact arithmetic.
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

    if pair is None:
        pair = np.arange(n)
    T = realification_map(pair)

    B = G_i[:, covered]
    B_real = T @ B
    imag = float(np.abs(B_real.imag).max(initial=0.0))
    assert imag <= CANONICAL_RTOL * scale, \
        f"conjugate-pair structure of G_i broken (imaginary residue {imag:.3e})"
    B_real = B_real.real

    r = len(covered)
    if r:
        sv = np.linalg.svd(B_real, compute_uv=False)
        if sv[-1] <= CANONICAL_RTOL * sv[0]:
            raise ValueError(
                "Theorem 2 precondition violated: nonzero columns of G_i "
                f"are rank deficient (singular values {sv})")
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
        raise ValueError("Theorem 2 precondition violated: canonical "
                         f"projector ill conditioned ({cond:.3e})")
    return P_i, H_i


def fusion_weights(design: SpectralDesign):
    """Per-sensor weights F_i = V diag(V^-1 K_i) and their row stack F.

    F is real whenever the closed-loop spectrum is real and is returned as
    a real array in that case (after checking the imaginary residue).  For
    complex spectra F is genuinely complex; its conjugate-pair column
    structure is verified instead, and products against the local bank
    still come out real.
    """
    V, K = design.V, design.K
    n, m = K.shape
    coeffs = np.linalg.solve(V, K)
    F_list = [V * coeffs[:, i][None, :] for i in range(m)]
    F_row = np.hstack(F_list)
    scale = max(1.0, float(np.abs(F_row).max()))

    imag = float(np.abs(F_row.imag).max())
    if imag <= CANONICAL_RTOL * scale:
        F_list = [F.real.copy() for F in F_list]
        return F_list, F_row.real.copy()

    pair = conjugate_pairing(design.Pi)
    for F in F_list:
        mismatch = float(np.abs(F[:, pair] - np.conj(F)).max())
        if mismatch > CANONICAL_RTOL * scale:
            raise ValueError(
                "conjugate-pair bookkeeping broken in fusion weights "
                f"(column mismatch {mismatch:.3e})")
    return F_list, F_row


def factor_mtilde(Mtilde: np.ndarray, ridge_delta: float):
    """Cholesky factorization of Mtilde + ridge_delta * I (no ridge at 0)."""
    return scipy.linalg.cho_factor(
        Mtilde + ridge_delta * np.eye(Mtilde.shape[0]) if ridge_delta
        else Mtilde)


def residual_covariances(model: SystemModel, design: SpectralDesign,
                         G_list, Ptilde: np.ndarray):
    """Stationary covariances of the stacked local estimation residuals.

    Qtilde is the one-step noise covariance of the stacked residual
    recursion, Wtilde its stationary fixed point W = Pi W Pi* + Q (solved
    in closed form since Pi is diagonal), Mtilde the covariance after the
    canonical projection.  Returns (Qtilde, Wtilde, Mtilde, factor, delta)
    where factor is a Cholesky factorization of Mtilde + delta * I and
    delta is nonzero only when Mtilde is numerically near-singular.
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
        raise ValueError("Assumption 1 violated: local estimator modes are "
                         "unstable; no stationary residual covariance exists")
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

    factor = None
    for _ in range(4):
        try:
            factor = factor_mtilde(Mtilde, delta)
            break
        except np.linalg.LinAlgError:
            pass
        delta = max(delta * 10.0, trace / (m * n) / COND_LIMIT)
        logger.warning("factorization failed; raising ridge to %.3e", delta)
    if factor is None:
        raise ValueError("residual covariance could not be factorized")
    return Qtilde, Wtilde, Mtilde, factor, delta


def build_decomposition(model: SystemModel,
                        design: SpectralDesign) -> SensorDecomposition:
    """Assemble the per-sensor decomposition for a validated design."""
    structure = observability_structure(model)
    pair = conjugate_pairing(design.Pi)
    n, m = model.n, model.m
    ones = np.ones((n, 1))

    G_list, H_list, P_list = [], [], []
    for i in range(m):
        G_i = local_gain_direct(model, design, i)
        # mode-by-mode filter identity: G_i A = Pi G_i + 1 C_i A
        drift = float(np.abs(G_i @ model.A - design.Pi[:, None] * G_i
                             - ones @ (model.C[i:i + 1] @ model.A)).max())
        assert drift <= CANONICAL_RTOL * max(1.0, float(np.abs(G_i).max())), \
            f"sensor {i}: per-mode gain identity residual {drift:.3e}"
        P_i, H_i = canonical_projector(G_i, structure.covered_states(i), pair)
        G_list.append(G_i)
        H_list.append(H_i)
        P_list.append(P_i)

    Ptilde = scipy.linalg.block_diag(*P_list)
    _, _, Mtilde, factor, delta = residual_covariances(
        model, design, G_list, Ptilde)

    return SensorDecomposition(
        Pi=np.asarray(design.Pi, dtype=complex).copy(),
        G_stack=np.vstack(G_list), H_stack=np.vstack(H_list),
        Ptilde=Ptilde, Mtilde=Mtilde, Mtilde_factor=factor, ridge_delta=delta)
