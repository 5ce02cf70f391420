"""Steady-state Kalman design and closed-loop spectral analysis.

The estimator bank downstream diagonalises the fixed-gain error dynamics
x_err(k+1) = (A - K C A) x_err(k) + noise, so this module computes the
steady Kalman gain K (Riccati fixed point), the eigendecomposition
A - K C A = V diag(Pi) V^-1 with a deterministic eigenvalue order and
eigenvector normalisation, and the characteristic polynomial of A.  The
whole construction requires the closed-loop eigenvalues to be pairwise
distinct, strictly inside the unit circle, and disjoint from the spectrum
of A (Assumption 1); ``closed_loop_eigendecomposition`` raises a
ValueError starting "Assumption 1 violated" when any of these fails.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import SystemModel, observability_structure

RICCATI_TOL = 1e-12
# stop floor relative to max|P_plus|: the iterates settle at 11-14 eps
RICCATI_NOISE_RTOL = 64 * np.finfo(float).eps
RICCATI_MAX_ITER = 100000
EIG_RTOL = 1e-8          # eigen-residual and diagonalizability threshold
EIG_SEPARATION = 1e-6    # pairwise / cross-spectrum separation (Assumption 1)


class RiccatiDivergenceError(RuntimeError):
    """Riccati recursion failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclasses.dataclass(frozen=True)
class SpectralDesign:
    """Converged filter design plus the closed-loop eigenstructure.

    charpoly stores the coefficients a_0 .. a_n of det(xI - A) in ascending
    order with a_n = 1.  Pi holds the eigenvalues of A - K C A sorted by
    (real, imaginary) part; V holds the matching unit-norm eigenvectors.
    """

    P: np.ndarray
    P_plus: np.ndarray
    K: np.ndarray
    charpoly: np.ndarray
    V: np.ndarray
    Pi: np.ndarray
    riccati_residual: float


# a diverging recursion overflows; the non-finite check reports it instead
@np.errstate(over="ignore", invalid="ignore")
def steady_state_kalman(model: SystemModel):
    """Iterate the measurement-update Riccati recursion to its fixed point.

    Starts from the prior covariance Sigma and stops when successive
    filtered covariances differ in max-abs norm by at most RICCATI_TOL,
    or by the rounding noise RICCATI_NOISE_RTOL * max|P_plus| if that is
    larger.  Raises RiccatiDivergenceError at the first non-finite
    iterate or after RICCATI_MAX_ITER iterations.  Returns
    (P, P_plus, K, residual) where P_plus = A P A' + Q and K are recomputed
    from the converged P, so those two defining equations hold to machine
    precision and the reported residual measures only the remaining
    fixed-point gap ||(I - K C) P_plus - P||_maxabs.
    """
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n = model.n
    I = np.eye(n)

    def half_step(P):
        P_plus = A @ P @ A.T + Q
        S = C @ P_plus @ C.T + R
        K = np.linalg.solve(S, C @ P_plus).T
        P_new = (I - K @ C) @ P_plus
        return 0.5 * (P_new + P_new.T), P_plus

    # P(0 | -1) = Sigma: apply the measurement update first
    S0 = C @ model.Sigma @ C.T + R
    K0 = np.linalg.solve(S0, C @ model.Sigma).T
    P = (I - K0 @ C) @ model.Sigma
    P = 0.5 * (P + P.T)

    diff = np.inf
    for k in range(RICCATI_MAX_ITER):
        P_next, P_plus = half_step(P)
        step = float(np.abs(P_next - P).max())
        if not np.isfinite(step):
            raise RiccatiDivergenceError(
                f"Riccati recursion diverged at iteration {k + 1} "
                f"(last finite residual {diff:.3e})", diff)
        P, diff = P_next, step
        if diff <= max(RICCATI_TOL,
                       RICCATI_NOISE_RTOL * float(np.abs(P_plus).max())):
            break
    else:
        raise RiccatiDivergenceError(
            f"Riccati recursion did not converge within {RICCATI_MAX_ITER} "
            f"iterations (last residual {diff:.3e})", diff)

    P_plus = A @ P @ A.T + Q
    S = C @ P_plus @ C.T + R
    # C-contiguous copy: a transpose view picks a different BLAS path,
    # so serialized designs would not reproduce traces bit for bit
    K = np.ascontiguousarray(np.linalg.solve(S, C @ P_plus).T)
    residual = float(np.abs((I - K @ C) @ P_plus - P).max())
    return P, P_plus, K, residual


def characteristic_polynomial(A: np.ndarray) -> np.ndarray:
    """Coefficients a_0 .. a_n of det(xI - A), ascending, with a_n = 1.

    A must be in Jordan form so the eigenvalues can be read off the
    diagonal; the expansion is then a plain polynomial product.
    """
    coeffs = np.atleast_1d(np.poly(np.diag(np.asarray(A, dtype=float))))
    return coeffs[::-1].astype(float)


def closed_loop_eigendecomposition(A: np.ndarray, K: np.ndarray, C: np.ndarray):
    """Eigendecomposition of A - K C A with deterministic order and phase.

    Eigenvalues are sorted by (real part, imaginary part); each eigenvector
    is scaled to unit 2-norm with its first significant entry rotated to the
    positive real axis, which makes conjugate eigenvalue pairs carry exactly
    conjugate eigenvector columns.  Returns (V, Pi); raises ValueError
    "Assumption 1 violated: ..." unless A - K C A is diagonalizable with
    pairwise distinct eigenvalues, none within EIG_SEPARATION of an
    eigenvalue of A, all strictly inside the unit circle.
    """
    E = A - K @ C @ A
    eigvals, vecs = np.linalg.eig(E)
    order = np.lexsort((eigvals.imag, eigvals.real))
    Pi = eigvals[order]
    V = vecs[:, order].astype(complex)

    for j in range(V.shape[1]):
        col = V[:, j]
        col = col / np.linalg.norm(col)
        nz = np.flatnonzero(np.abs(col) > 1e-9)
        if nz.size:
            lead = col[nz[0]]
            col = col * (np.conj(lead) / np.abs(lead))
        V[:, j] = col

    cond_V = float(np.linalg.cond(V))
    if not np.isfinite(cond_V) or cond_V > 1.0 / EIG_RTOL:
        raise ValueError(
            "Assumption 1 violated: not diagonalizable "
            f"(eigenvector condition number {cond_V:.3e})")

    residual = float(np.abs(E @ V - V * Pi).max())
    scale = max(1.0, float(np.abs(E).max()))
    assert residual <= EIG_RTOL * scale, f"eigen-residual {residual:.3e}"

    sep = np.abs(Pi[:, None] - Pi[None, :]) + np.diag(np.full(len(Pi), np.inf))
    gap = np.abs(Pi[:, None] - np.linalg.eigvals(A)[None, :]).min(axis=1)
    j, rho = int(np.argmin(gap)), float(np.abs(Pi).max())
    if sep.min() <= EIG_SEPARATION:
        why = ("closed-loop eigenvalues are not pairwise distinct (closest "
               f"pair {sep.min():.3e} apart)")
    elif gap[j] <= EIG_SEPARATION:
        why = (f"closed-loop eigenvalue {Pi[j]:.6g} lies {gap[j]:.3e} from "
               "the spectrum of A")
    elif rho >= 1.0:
        why = f"closed-loop modes are not strictly stable (spectral radius {rho:.6g})"
    else:
        return V, Pi
    raise ValueError(f"Assumption 1 violated: {why}")


def fixed_gain_kalman_step(x_hat: np.ndarray, y: np.ndarray, u: np.ndarray,
                           design: SpectralDesign, model: SystemModel) -> np.ndarray:
    """One fixed-gain filter update driven by the next measurement.

    x_hat_next = (A - K C A) x_hat + K y + (I - K C) B u.
    """
    A, C, K = model.A, model.C, design.K
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x_hat.shape[0] != model.n:
        raise ValueError(f"state estimate has length {x_hat.shape[0]}, expected {model.n}")
    if y.shape[0] != model.m:
        raise ValueError(f"measurement has length {y.shape[0]}, expected {model.m}")
    B = model.input_matrix()
    if u.shape[0] != B.shape[1]:
        raise ValueError(f"input has length {u.shape[0]}, expected {B.shape[1]}")
    KC = K @ C
    return (A - KC @ A) @ x_hat + K @ y + (B - KC @ B) @ u


def spectral_design(model: SystemModel) -> SpectralDesign:
    """Full spectral design for a validated model.

    Refuses unobservable sensor sets up front (the recursion may silently
    converge to a useless fixed point when unobservable modes are stable).
    """
    structure = observability_structure(model)
    if not structure.observable:
        raise ValueError("(A, C) is unobservable: some state is covered by no sensor")
    P, P_plus, K, residual = steady_state_kalman(model)
    V, Pi = closed_loop_eigendecomposition(model.A, K, model.C)
    return SpectralDesign(P=P, P_plus=P_plus, K=K,
                          charpoly=characteristic_polynomial(model.A),
                          V=V, Pi=Pi, riccati_residual=residual)
