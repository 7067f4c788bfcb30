"""Density-matrix reconstruction and entanglement metrics for two-qudit states.

Reconstruction minimizes the count-weighted chi-square between measured and
predicted coincidences over a Cholesky-style factorization of the density
matrix, which keeps the estimate Hermitian, unit-trace and positive
semidefinite by construction.  The overall photon flux is profiled out
analytically at every step, so only the state parameters are iterated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .numerics import hermitian_eigen, psd_sqrt
from .spdc import CoincidenceRecord

# Minimal pure-state fraction of an isotropic two-qudit state above which the
# d-dimensional Bell inequality is violated.  Computed externally by
# evaluating the inequality's quantum value I_d for the maximally entangled
# state with the standard optimal Fourier-basis measurements (Collins et al.,
# PRL 88, 040404, 2002; reproduced by the oracle bell_inequality_value in
# tests/oracles.py); the threshold is 2 / I_d.
# For d = 2 this is 1/sqrt(2), the familiar isotropic-qubit value.
BELL_VIOLATION_THRESHOLDS = {
    2: 0.7071067811865476,
    3: 0.6961524227066314,
    4: 0.6905497394878110,
    5: 0.6871565744163153,
}


def threshold_fidelity(p: float, d: int) -> float:
    """Fidelity p + (1 - p) / d^2 of the isotropic state p |psi><psi| + (1 - p) I / d^2
    with its maximally entangled |psi>."""
    return p + (1.0 - p) / d**2


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of two d-level systems."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    @classmethod
    def from_matrix(cls, d: int, matrix, herm_tol: float = 1e-10,
                    trace_tol: float = 1e-10, eig_tol: float = 1e-8) -> "DensityMatrix":
        matrix = np.asarray(matrix, dtype=complex)
        dim = d * d
        if matrix.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix for local dimension {d}")
        if np.max(np.abs(matrix - matrix.conj().T)) > herm_tol:
            raise ValueError("matrix is not Hermitian within tolerance")
        trace = np.trace(matrix).real
        if abs(trace - 1.0) > trace_tol:
            raise ValueError(f"trace {trace} differs from 1 beyond tolerance")
        eigs = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
        if eigs[0] < -eig_tol:
            raise ValueError(f"matrix has negative eigenvalue {eigs[0]:.3e}")
        return cls(d=d, matrix=0.5 * (matrix + matrix.conj().T))

    @classmethod
    def from_ket(cls, d: int, ket) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex)
        ket = ket / np.linalg.norm(ket)
        return cls(d=d, matrix=np.outer(ket, ket.conj()))

    @property
    def dim(self) -> int:
        return self.d * self.d


@dataclass(frozen=True)
class ReconstructionReport:
    rho: DensityMatrix
    chi_squared: float
    iterations: int
    flux: float
    converged: bool

    def __post_init__(self):
        if self.chi_squared < 0:
            raise ValueError("chi-squared must be non-negative")


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def _params_to_factor(x: np.ndarray, dim: int) -> np.ndarray:
    t = np.zeros((dim, dim), dtype=complex)
    idx = 0
    for i in range(dim):
        t[i, i] = x[idx]
        idx += 1
    for i in range(1, dim):
        for j in range(i):
            t[i, j] = x[idx] + 1j * x[idx + 1]
            idx += 2
    return t


def _factor_to_params(t: np.ndarray) -> np.ndarray:
    dim = t.shape[0]
    x = np.empty(dim * dim)
    idx = 0
    for i in range(dim):
        x[idx] = t[i, i].real
        idx += 1
    for i in range(1, dim):
        for j in range(i):
            x[idx] = t[i, j].real
            x[idx + 1] = t[i, j].imag
            idx += 2
    return x


def _params_to_rho(x: np.ndarray, dim: int) -> np.ndarray:
    t = _params_to_factor(x, dim)
    rho = t.conj().T @ t
    return rho / np.trace(rho).real


def _rho_to_params(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular factor T with T^dagger T = rho (reverse Cholesky)."""
    dim = rho.shape[0]
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 1e-12, None)
    rho = (v * w) @ v.conj().T
    rho = rho / np.trace(rho).real
    flip = np.eye(dim)[::-1]
    lower = np.linalg.cholesky(flip @ rho @ flip)
    upper = flip @ lower @ flip
    return _factor_to_params(upper.conj().T)


def _linear_inversion(counts: np.ndarray, projectors: np.ndarray, dim: int) -> np.ndarray:
    design = projectors.reshape(len(projectors), -1)
    solution, *_ = np.linalg.lstsq(design, counts, rcond=None)
    rho = solution.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if trace <= 0:
        return np.eye(dim, dtype=complex) / dim
    return rho / trace


def reconstruct(records, settings, d: int, seed: int = 0, restarts: int = 5,
                warm_start: bool = True, max_nfev: int | None = None) -> ReconstructionReport:
    """Reconstruct the two-qudit density matrix from coincidence counts.

    Minimizes chi^2 = sum_i (C_i - N p_i(rho))^2 / (C_i + 1) where p_i is the
    joint projection probability of setting i and the flux N is profiled out
    analytically at its weighted-least-squares optimum.  The state is
    parameterized as rho = T^dag T / Tr(T^dag T) with T lower triangular
    (real diagonal), i.e. (d^2)^2 real parameters, so every iterate is
    physical.

    The first start is a physicality-projected linear-inversion estimate
    (fast and usually within the convergence basin); the remaining restarts
    jitter around the maximally mixed state with a seed-derived generator.
    Restarting stops early once chi^2 falls below 1e-12 per setting.
    """
    records = list(records)
    settings = list(settings)
    if len(records) != len(settings):
        raise ValueError("records and settings must have equal length")
    dim = d * d
    counts = np.array([float(r.count) if isinstance(r, CoincidenceRecord) else float(r)
                       for r in records])
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    projectors = np.empty((len(settings), dim, dim), dtype=complex)
    for i, setting in enumerate(settings):
        joint_ket = np.kron(setting.ket_a, setting.ket_b)
        if len(joint_ket) != dim:
            raise ValueError("setting dimension does not match d")
        projectors[i] = np.outer(joint_ket, joint_ket.conj())
    rank = np.linalg.matrix_rank(projectors.reshape(len(settings), -1), tol=1e-10)
    if rank < dim * dim:
        raise ValueError(f"settings span rank {rank} < {dim * dim}; not informationally complete")

    weights = 1.0 / np.sqrt(counts + 1.0)

    def probabilities(x):
        rho = _params_to_rho(x, dim)
        return np.maximum(np.real(np.einsum("sij,ji->s", projectors, rho)), 0.0)

    def best_flux(p):
        denom = np.sum((weights * p) ** 2)
        if denom <= 0:
            return 0.0
        return float(np.sum(weights**2 * counts * p) / denom)

    def residuals(x):
        p = probabilities(x)
        return weights * (counts - best_flux(p) * p)

    rng = np.random.default_rng(seed)
    starts = []
    if warm_start:
        starts.append(_rho_to_params(_linear_inversion(counts, projectors, dim)))
    while len(starts) < max(restarts, 1):
        mixed = np.eye(dim, dtype=complex) / dim
        jitter = 0.05 * rng.normal(size=dim * dim)
        starts.append(_rho_to_params(mixed) + jitter)

    cap = max_nfev or 200 * dim * dim
    best = None
    total_nfev = 0
    for x0 in starts:
        result = least_squares(residuals, x0, method="trf",
                               ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=cap)
        total_nfev += result.nfev
        chi2 = float(np.sum(result.fun**2))
        if best is None or chi2 < best[0]:
            best = (chi2, result)
        if best[0] < 1e-12 * len(records):
            break

    chi2, result = best
    p = probabilities(result.x)
    rho = DensityMatrix.from_matrix(d, _params_to_rho(result.x, dim))
    return ReconstructionReport(rho=rho, chi_squared=chi2, iterations=total_nfev,
                                flux=best_flux(p), converged=bool(result.success))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, in [0, 1].

    Reduces to <psi|rho|psi> when either argument is the pure state |psi>.
    """
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError("states must share a dimension")
    root = psd_sqrt(a)
    inner = root @ b @ root
    w, _ = hermitian_eigen(0.5 * (inner + inner.conj().T))
    w = np.clip(w, 0.0, None)
    # eigenvalues at round-off scale are square-root amplified; zero them so
    # rank-deficient (e.g. pure) states keep full precision
    if w[0] > 0:
        w[w < 1e-13 * w[0]] = 0.0
    value = float(np.sum(np.sqrt(w)) ** 2)
    return min(max(value, 0.0), 1.0)


def linear_entropy(rho) -> float:
    """Normalized impurity (D / (D - 1)) (1 - Tr rho^2); 0 pure, 1 maximally mixed."""
    matrix = _as_matrix(rho)
    dim = matrix.shape[0]
    purity = float(np.real(np.trace(matrix @ matrix)))
    return dim / (dim - 1.0) * (1.0 - purity)


def concurrence(rho) -> float:
    """Two-qubit concurrence from the spin-flipped overlap spectrum."""
    matrix = _as_matrix(rho)
    if matrix.shape != (4, 4):
        raise ValueError("concurrence is defined for two qubits (4x4 matrices)")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    root = psd_sqrt(matrix)
    m = root @ flip @ matrix.conj() @ flip @ root
    w, _ = hermitian_eigen(0.5 * (m + m.conj().T))
    lam = np.sqrt(np.clip(w, 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def save_density_matrix(path, dm: DensityMatrix) -> None:
    """Write the delimited-text form: header with d, then row,col,real,imag."""
    dim = dm.dim
    lines = [f"d,{dm.d}"]
    for i in range(dim):
        for j in range(dim):
            value = dm.matrix[i, j]
            lines.append(f"{i},{j},{float(value.real)!r},{float(value.imag)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_density_matrix(path) -> DensityMatrix:
    """Read the delimited-text form, rejecting non-physical matrices.

    Invariant violations (hermiticity, unit trace, negative eigenvalues)
    beyond 1e-6 are rejected.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or not lines[0].startswith("d,"):
        raise ValueError("missing dimension header")
    d = int(lines[0].split(",")[1])
    dim = d * d
    if len(lines) - 1 != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, found {len(lines) - 1}")
    matrix = np.zeros((dim, dim), dtype=complex)
    for line in lines[1:]:
        row_s, col_s, re_s, im_s = line.split(",")
        matrix[int(row_s), int(col_s)] = float(re_s) + 1j * float(im_s)
    return DensityMatrix.from_matrix(d, matrix, herm_tol=1e-6, trace_tol=1e-6, eig_tol=1e-6)
