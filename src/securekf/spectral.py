"""Steady-state Kalman design and closed-loop spectral analysis.

The estimator bank downstream diagonalises the fixed-gain error dynamics
x_err(k+1) = (A - K C A) x_err(k) + noise, so this module computes the
steady Kalman gain K (Riccati fixed point) and the eigendecomposition
A - K C A = V diag(Pi) V^-1 with a deterministic eigenvalue order and
eigenvector normalisation.  A SpectralDesign keeps K and Pi, all the
decomposition and the estimator read of them; steady_state_kalman and
closed_loop_eigendecomposition also return P, P_plus, the Riccati
residual and V.  The whole construction requires the closed-loop
eigenvalues to be pairwise distinct, strictly inside the unit circle, and
disjoint from the spectrum of A (Assumption 1);
``closed_loop_eigendecomposition`` raises an AssumptionError starting
"Assumption 1 violated" when any of these fails.
"""

from __future__ import annotations

import dataclasses

import numpy as np
# np.linalg.solve's LAPACK gufunc for a matrix right-hand side, called
# directly: the same bits without that function's per-call checks, and a
# singular matrix fills its answer with NaN instead of raising
from numpy.linalg._umath_linalg import solve as _solve

from .model import SystemModel

RICCATI_TOL = 1e-12
# stop floor relative to max|P_plus|: the iterates settle at 11-14 eps
RICCATI_NOISE_RTOL = 64 * np.finfo(float).eps
RICCATI_MAX_ITER = 100000
# a recursion whose step sets no new low for RICCATI_STALL iterations has
# stalled; when every step since its lowest was at most RICCATI_STALL_RTOL
# * max|P_plus|, the lowest-step iterate is taken as the fixed point, and
# otherwise the recursion raises there.  Of 3,001 random Jordan designs
# (tests/helpers.py), 14 went 1000 iterations without a new lowest step
# above the RICCATI_NOISE_RTOL floor: in 10 the steps over that window
# stayed within 1.6e-11 to 1.1e-8 of max|P_plus|, in the other 4 they
# reached 5.6e-7 to 8.5e-2 (and none of those 4 converged within 100,000)
RICCATI_STALL = 1000
RICCATI_STALL_RTOL = float(np.sqrt(np.finfo(float).eps))
EIG_RTOL = 1e-8          # eigen-residual and diagonalizability threshold
EIG_SEPARATION = 1e-6    # pairwise / cross-spectrum separation (Assumption 1)


class AssumptionError(ValueError):
    """Valid inputs fail a structural assumption of the method: Assumption
    1, or a Theorem 2 precondition, as the message's start names."""


class RiccatiDivergenceError(RuntimeError):
    """Riccati recursion failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclasses.dataclass(frozen=True)
class SpectralDesign:
    """What the decomposition and the estimator read of a filter design.

    K is the steady Kalman gain and Pi the eigenvalues of A - K C A sorted
    by (real, imaginary) part.  The covariances P and P_plus, the
    Riccati residual and the eigenvectors V are not kept:
    steady_state_kalman and closed_loop_eigendecomposition return them.
    """

    K: np.ndarray
    Pi: np.ndarray


# a diverging recursion overflows; the non-finite check reports it instead
@np.errstate(over="ignore", invalid="ignore")
def steady_state_kalman(model: SystemModel):
    """Iterate the measurement-update Riccati recursion to its fixed point.

    Starts from the prior covariance Sigma and stops when successive
    filtered covariances differ in max-abs norm by at most RICCATI_TOL,
    or by the rounding noise RICCATI_NOISE_RTOL * max|P_plus| if that is
    larger.  A recursion that stalls above that floor (no smaller step
    for RICCATI_STALL iterations) stops at the iterate with the smallest
    step when none of the steps since were above RICCATI_STALL_RTOL *
    max|P_plus|, and raises RiccatiDivergenceError, naming the stall,
    when one was.  RiccatiDivergenceError is also raised at the first
    non-finite iterate and after RICCATI_MAX_ITER iterations.  Returns
    (P, P_plus, K, residual) where P_plus = A P A' + Q and K are recomputed
    from the converged P, so those two defining equations hold to machine
    precision and the reported residual measures only the remaining
    fixed-point gap ||(I - K C) P_plus - P||_maxabs.  The first update
    (from Sigma), every step and the final gain share one measurement
    update, whose gain solve calls np.linalg.solve's LAPACK gufunc
    directly, with that function's bits.  S = C P_plus C' + R is
    positive definite for a validated model; a singular S gives a NaN
    gain, not a LinAlgError, and in the recursion that NaN raises
    RiccatiDivergenceError as a non-finite iterate.
    """
    A, C, Q, R = model.A, model.C, model.Q, model.R
    I = np.eye(model.n)

    def update(P_plus):
        # measurement update of the prior P_plus: (P, K), P symmetrised
        K = _solve(C @ P_plus @ C.T + R, C @ P_plus).T
        P = (I - K @ C) @ P_plus
        return 0.5 * (P + P.T), K

    P, _ = update(model.Sigma)      # P(0 | -1) = Sigma

    diff = best = np.inf
    for k in range(RICCATI_MAX_ITER):
        P_plus = A @ P @ A.T + Q
        P_next, _ = update(P_plus)
        step = float(np.abs(P_next - P).max())
        if not np.isfinite(step):
            raise RiccatiDivergenceError(
                f"Riccati recursion diverged at iteration {k + 1} "
                f"(last finite residual {diff:.3e})", diff)
        if step < best:
            best, best_k, best_P, spread = step, k, P, 0.0
        else:
            spread = max(spread, step)
        P, diff = P_next, step
        scale = float(np.abs(P_plus).max())
        if diff <= max(RICCATI_TOL, RICCATI_NOISE_RTOL * scale):
            break
        if k - best_k >= RICCATI_STALL:
            if spread > RICCATI_STALL_RTOL * scale:
                raise RiccatiDivergenceError(
                    f"Riccati recursion stalled at iteration {k + 1}: its "
                    f"lowest step, {best:.3e}, was not bettered in "
                    f"{RICCATI_STALL} iterations, and the steps since reach "
                    f"{spread / scale:.3e} of max|P_plus|, above "
                    f"{RICCATI_STALL_RTOL:.3e}", diff)
            P = best_P      # stalled in rounding noise: its lowest step
            break
    else:
        raise RiccatiDivergenceError(
            f"Riccati recursion did not converge within {RICCATI_MAX_ITER} "
            f"iterations (last residual {diff:.3e})", diff)

    P_plus = A @ P @ A.T + Q
    # C-contiguous copy: a transpose view picks a different BLAS path,
    # and the traces would change in their last bits
    K = np.ascontiguousarray(update(P_plus)[1])
    residual = float(np.abs((I - K @ C) @ P_plus - P).max())
    return P, P_plus, K, residual


def _spectrum_gap(Pi: np.ndarray, A: np.ndarray) -> str | None:
    """Assumption 1's gap rule: A - pi_j I must be invertible, so no
    closed-loop eigenvalue pi_j may lie within EIG_SEPARATION of an
    eigenvalue of A.  Returns why the nearest one breaks the rule, or None
    when none does."""
    gap = np.abs(Pi[:, None] - np.linalg.eigvals(A)[None, :]).min(axis=1)
    j = int(gap.argmin())
    if gap[j] <= EIG_SEPARATION:
        return (f"closed-loop eigenvalue {Pi[j]:.6g} lies {gap[j]:.3e} from "
                "the spectrum of A")
    return None


def closed_loop_eigendecomposition(A: np.ndarray, K: np.ndarray, C: np.ndarray):
    """Eigendecomposition of A - K C A with deterministic order and phase.

    Eigenvalues are sorted by (real part, imaginary part); each eigenvector
    is scaled to unit 2-norm with its first significant entry rotated to the
    positive real axis, which makes conjugate eigenvalue pairs carry exactly
    conjugate eigenvector columns.  Returns (V, Pi); raises AssumptionError
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
        raise AssumptionError(
            "Assumption 1 violated: not diagonalizable "
            f"(eigenvector condition number {cond_V:.3e})")

    residual = float(np.abs(E @ V - V * Pi).max())
    scale = max(1.0, float(np.abs(E).max()))
    assert residual <= EIG_RTOL * scale, f"eigen-residual {residual:.3e}"

    sep = np.abs(Pi[:, None] - Pi[None, :]) + np.diag(np.full(len(Pi), np.inf))
    near, rho = _spectrum_gap(Pi, A), float(np.abs(Pi).max())
    if sep.min() <= EIG_SEPARATION:
        why = ("closed-loop eigenvalues are not pairwise distinct (closest "
               f"pair {sep.min():.3e} apart)")
    elif near is not None:
        why = near
    elif rho >= 1.0:
        why = f"closed-loop modes are not strictly stable (spectral radius {rho:.6g})"
    else:
        return V, Pi
    raise AssumptionError(f"Assumption 1 violated: {why}")


def spectral_design(model: SystemModel) -> SpectralDesign:
    """Full spectral design for a validated model.

    Refuses unobservable sensor sets up front (the recursion may silently
    converge to a useless fixed point when unobservable modes are stable).
    """
    if not model.structure.observable:
        raise ValueError("(A, C) is unobservable: some state is covered by no sensor")
    K = steady_state_kalman(model)[2]
    _, Pi = closed_loop_eigendecomposition(model.A, K, model.C)
    return SpectralDesign(K=K, Pi=Pi)
