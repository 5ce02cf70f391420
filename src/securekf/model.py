"""System model container, validation, and sensor-coverage analysis.

A plant is a discrete-time linear Gaussian system

    x(k+1) = A x(k) + B u(k) + w(k),      w ~ N(0, Q)
    y_i(k) = C_i x(k) + v_i(k) + a_i(k),  v ~ N(0, R)

with one measurement row per sensor and a_i(k) an additive attack signal
controlled by an adversary that may compromise a bounded number of sensors.
The estimator stack built on top of this module requires A to be given in
real Jordan canonical form: block diagonal, each block with a constant
diagonal and a 0/1 superdiagonal, eigenvalues distinct across blocks, and
A nonsingular.  ``validate_model`` checks exactly that, plus the usual
covariance sanity conditions.

Sensor coverage is summarised by support sets: state j is covered by sensor
i when column j of the observability matrix of (A, C_i) is nonzero.  The
sparse observability index

    s = min_j |S_j| - 1,   S_j = {sensors covering state j}

equals the largest number of sensors whose removal never destroys
observability (the tests recompute it by enumerating removal sets; the
two must agree on every valid model).  Estimation can withstand attacks
on any p sensors iff s >= 2 p.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json

import numpy as np

# Relative tolerance families used by validation and coverage analysis.
SINGULARITY_RTOL = 1e-9      # |det A| > SINGULARITY_RTOL * ||A||_F
OBSERVABILITY_RTOL = 1e-9    # column of O_i counts as nonzero above rtol * ||O_i||_F
PSD_RTOL = 1e-9              # eigenvalues of Q, Sigma >= -rtol * trace
PD_TOL = 1e-12               # eigenvalues of R >= PD_TOL
FACTOR_RTOL = 1e-12          # psd_factor: eigenvalues >= -rtol * trace

_MODEL_KEYS_REQUIRED = ("A", "C", "Q", "R", "Sigma")
_MODEL_KEYS_OPTIONAL = ("B", "K_lqr", "sensor_labels")


class ModelFormatError(ValueError):
    """Raised when a model file is structurally malformed (as opposed to
    well-formed but failing validation)."""


@dataclasses.dataclass(frozen=True)
class SystemModel:
    """Immutable container for the plant data.

    B and K_lqr are optional: B defaults to a zero column (no control
    authority) and K_lqr to None (zero input).  sensor_labels, also
    optional, only names the sensors in the CLI's reports.  Attributes
    are plain float ndarrays; no copy protection beyond convention, which
    the cached structure relies on.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Sigma: np.ndarray
    B: np.ndarray | None = None
    K_lqr: np.ndarray | None = None
    sensor_labels: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        """Input dimension (from B, else K_lqr, else 1)."""
        if self.B is not None:
            return self.B.shape[1]
        if self.K_lqr is not None:
            return self.K_lqr.shape[0]
        return 1

    def input_matrix(self) -> np.ndarray:
        """B, materialised as an n-by-q zero matrix when absent."""
        if self.B is not None:
            return self.B
        return np.zeros((self.n, self.q))

    def feedback_gain(self) -> np.ndarray:
        """K_lqr, materialised as a q-by-n zero matrix when absent."""
        if self.K_lqr is not None:
            return self.K_lqr
        return np.zeros((self.q, self.n))

    @functools.cached_property
    def structure(self) -> ObservabilityStructure:
        """Support sets and sparse observability index of (A, C), derived
        on first use and kept, so the design, the decomposition and the
        CLI's reports of one model share one.

        A column of O_i counts as nonzero when its 2-norm exceeds
        OBSERVABILITY_RTOL * ||O_i||_F, so an all-zero sensor row covers
        nothing.
        """
        obs = tuple(observability_matrix(self.A, self.C[i])
                    for i in range(self.m))
        thresholds = [OBSERVABILITY_RTOL * np.linalg.norm(O) for O in obs]
        support = tuple(
            tuple(i for i in range(self.m)
                  if np.linalg.norm(obs[i][:, j]) > thresholds[i])
            for j in range(self.n))
        return ObservabilityStructure(support,
                                      min(len(s) for s in support) - 1)


def _as_matrix(key: str, value, ndim=2) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"model key '{key}': not a rectangular numeric array ({exc})")
    if arr.ndim != ndim:
        raise ModelFormatError(f"model key '{key}': expected {ndim} dimensions, got {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"model key '{key}': contains NaN or Inf entries")
    return arr


def _reject_json_constant(token: str):
    raise ModelFormatError(f"non-finite number '{token}' in model file")


def model_from_dict(data: dict) -> SystemModel:
    """Build a SystemModel from parsed JSON data, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    allowed = set(_MODEL_KEYS_REQUIRED) | set(_MODEL_KEYS_OPTIONAL)
    for key in data:
        if key not in allowed:
            raise ModelFormatError(f"unknown key '{key}' in model file")
    for key in _MODEL_KEYS_REQUIRED:
        if key not in data:
            raise ModelFormatError(f"missing required key '{key}' in model file")

    kwargs = {key: _as_matrix(key, data[key]) for key in _MODEL_KEYS_REQUIRED}
    if "B" in data:
        kwargs["B"] = _as_matrix("B", data["B"])
    if "K_lqr" in data:
        kwargs["K_lqr"] = _as_matrix("K_lqr", data["K_lqr"])
    if "sensor_labels" in data:
        labels = data["sensor_labels"]
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ModelFormatError("model key 'sensor_labels': expected a list of strings")
        kwargs["sensor_labels"] = tuple(labels)
    return SystemModel(**kwargs)


def load_model(path) -> SystemModel:
    """Load a model from a JSON file.  Raises ModelFormatError on structural
    problems; shape and numerical requirements are left to validate_model."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_reject_json_constant)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON in model file: {exc}")
    return model_from_dict(data)


@dataclasses.dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def jordan_blocks(A: np.ndarray, atol: float) -> list[tuple[int, int]] | None:
    """Block extents [(start, stop), ...) of a Jordan-form matrix, or None
    if A is not in Jordan form to within atol.

    Jordan form here means: zero everywhere except the diagonal and a 0/1
    superdiagonal, and a constant diagonal inside every superdiagonal run.
    """
    n = A.shape[0]
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    sup = np.array([A[i, i + 1] for i in range(n - 1)])
    if n > 1:
        off[np.arange(n - 1), np.arange(1, n)] = 0.0
    if np.abs(off).max(initial=0.0) > atol:
        return None
    ones = np.abs(sup - 1.0) <= atol
    zeros = np.abs(sup) <= atol
    if not np.all(ones | zeros):
        return None
    blocks = []
    start = 0
    for i in range(n - 1):
        if not ones[i]:
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, n))
    diag = np.diag(A)
    for lo, hi in blocks:
        if np.abs(diag[lo:hi] - diag[lo]).max(initial=0.0) > atol:
            return None
    return blocks


def validate_model(model: SystemModel) -> ValidationReport:
    """Check the structural requirements the estimator stack relies on.

    Returns a report rather than raising: every check is listed with a
    pass/fail flag so callers can print actionable diagnostics.
    """
    checks = []
    A, C, Q, R, Sigma = model.A, model.C, model.Q, model.R, model.Sigma
    n = A.shape[0]

    square = A.ndim == 2 and A.shape[0] == A.shape[1]
    checks.append(ValidationCheck("A square", square, f"shape {A.shape}"))

    shapes_ok = True
    details = []
    if C.ndim != 2 or C.shape[1] != n:
        shapes_ok = False
        details.append(f"C shape {C.shape} incompatible with n={n}")
    for name, mat, want in (("Q", Q, (n, n)), ("Sigma", Sigma, (n, n))):
        if mat.shape != want:
            shapes_ok = False
            details.append(f"{name} shape {mat.shape}, expected {want}")
    m = C.shape[0]
    if R.shape != (m, m):
        shapes_ok = False
        details.append(f"R shape {R.shape}, expected {(m, m)}")
    if model.B is not None and (model.B.ndim != 2 or model.B.shape[0] != n):
        shapes_ok = False
        details.append(f"B shape {model.B.shape} incompatible with n={n}")
    if model.K_lqr is not None and (model.K_lqr.ndim != 2 or model.K_lqr.shape[1] != n):
        shapes_ok = False
        details.append(f"K_lqr shape {model.K_lqr.shape} incompatible with n={n}")
    if model.B is not None and model.K_lqr is not None \
            and model.B.shape[1] != model.K_lqr.shape[0]:
        shapes_ok = False
        details.append("B and K_lqr disagree on input dimension")
    if model.sensor_labels is not None and len(model.sensor_labels) != m:
        shapes_ok = False
        details.append(f"{len(model.sensor_labels)} sensor labels for {m} sensors")
    checks.append(ValidationCheck("dimensions consistent", shapes_ok, "; ".join(details)))

    if not (square and shapes_ok):
        return ValidationReport(tuple(checks))

    norm_A = float(np.linalg.norm(A))
    det_A = float(np.linalg.det(A))
    nonsingular = abs(det_A) > SINGULARITY_RTOL * norm_A
    checks.append(ValidationCheck("A nonsingular", nonsingular,
                                  f"|det A| = {abs(det_A):.3e}"))

    atol = SINGULARITY_RTOL * max(1.0, float(np.abs(A).max()))
    blocks = jordan_blocks(A, atol)
    checks.append(ValidationCheck(
        "A in real Jordan form", blocks is not None,
        "diagonal + 0/1 superdiagonal structure" if blocks is None else
        f"{len(blocks)} block(s)"))

    if blocks is not None:
        lam = np.array([A[lo, lo] for lo, _ in blocks])
        sep_tol = SINGULARITY_RTOL * (1.0 + float(np.abs(lam).max(initial=0.0)))
        distinct = True
        for a, b in itertools.combinations(range(len(lam)), 2):
            if abs(lam[a] - lam[b]) <= sep_tol:
                distinct = False
        checks.append(ValidationCheck(
            "block eigenvalues pairwise distinct", distinct,
            f"eigenvalues {np.round(lam, 6).tolist()}"))

    for name, mat, kind in (("Q", Q, "psd"), ("Sigma", Sigma, "psd"), ("R", R, "pd")):
        sym = float(np.abs(mat - mat.T).max())
        symmetric = sym <= PSD_RTOL * (1.0 + float(np.abs(mat).max()))
        eigmin = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min()) if symmetric else np.nan
        if kind == "psd":
            ok = symmetric and eigmin >= -PSD_RTOL * max(np.trace(mat), 0.0)
            what = "symmetric positive semidefinite"
        else:
            ok = symmetric and eigmin >= PD_TOL
            what = "symmetric positive definite"
        checks.append(ValidationCheck(f"{name} {what}", bool(ok),
                                      f"min eigenvalue {eigmin:.3e}"))

    return ValidationReport(tuple(checks))


def psd_factor(M: np.ndarray) -> np.ndarray:
    """Factor L with L L' = M, for sampling from N(0, M).

    Cholesky when M is positive definite; singular PSD matrices fall back
    to an eigenvalue factor with small negative eigenvalues clipped.
    """
    M = np.asarray(M, dtype=float)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(M)
    floor = -FACTOR_RTOL * max(float(np.trace(M)), 1e-300)
    if vals.min(initial=0.0) < floor:
        raise ValueError(
            f"covariance is not positive semidefinite (min eigenvalue {vals.min()})")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclasses.dataclass(frozen=True)
class ObservabilityStructure:
    """Per-state sensor support sets and the sparse observability index.

    support[j] lists (0-based) the sensors whose observability matrix has a
    nonzero column j; sparse_index is min_j |support[j]| - 1, with -1
    meaning some state is covered by no sensor at all (unobservable).
    """

    support: tuple[tuple[int, ...], ...]
    sparse_index: int

    @property
    def observable(self) -> bool:
        return self.sparse_index >= 0

    def covered_states(self, sensor: int) -> tuple[int, ...]:
        """States whose support set contains the given sensor."""
        return tuple(j for j, s in enumerate(self.support) if sensor in s)


def observability_matrix(A: np.ndarray, C_row: np.ndarray):
    """Stack [c; cA; ...; cA^(n-1)] for a single sensor row c."""
    n = A.shape[0]
    rows = np.empty((n, n))
    row = np.asarray(C_row, dtype=float).reshape(n)
    for k in range(n):
        rows[k] = row
        row = row @ A
    return rows


@dataclasses.dataclass(frozen=True)
class ResilienceCertificate:
    """Outcome of the s >= 2p test for a given attack budget p."""

    sparse_index: int
    p: int
    secure: bool
    margin: int


def certify_resilience(structure: ObservabilityStructure, p: int) -> ResilienceCertificate:
    """Certify that estimation withstands attacks on any p sensors."""
    if p < 0:
        raise ValueError(f"attack budget p must be nonnegative, got {p}")
    s = structure.sparse_index
    return ResilienceCertificate(sparse_index=s, p=p, secure=s >= 2 * p, margin=s - 2 * p)
