"""Density-matrix reconstruction and entanglement metrics for two-qudit states.

Reconstruction minimizes the count-weighted chi-square between measured and
predicted coincidences over the unnormalized state sigma = N rho (flux times
density matrix).  In sigma the problem is convex: a quadratic on the cone of
positive-semidefinite matrices, solved by accelerated projected gradient
(FISTA with adaptive restart; Beck & Teboulle, SIAM J. Imaging Sci. 2, 183,
2009) whose projection clips eigenvalues (Smolin, Gambetta & Smith, PRL 108,
070502, 2012).  The flux and the unit-trace state are read off the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import hermitian_eigen, psd_sqrt

# reconstruct stops once a step lowers chi^2 by at most this relative amount,
# or after MAX_ITERATIONS steps (then it reports converged = False)
TOLERANCE = 1e-12
MAX_ITERATIONS = 10000

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


def reconstruct(counts, settings, d: int) -> ReconstructionReport:
    """Reconstruct the two-qudit density matrix from coincidence counts.

    ``counts`` is an array of shape (len(settings),), count i measured at
    setting i.  Minimizes chi^2 = sum_i (C_i - <k_i|sigma|k_i>)^2 / (C_i + 1)
    over the unnormalized state sigma = N rho, where |k_i> is the joint ket of
    setting i and N the photon flux.  In sigma this is a convex quadratic on
    the cone of positive-semidefinite matrices, solved by FISTA with adaptive
    restart and the fixed step 1/L, L = 2 ||diag(1/sqrt(C + 1)) A||_2^2 for
    the setting-by-vec(sigma) design matrix A.  Each step is projected onto the
    cone by clipping eigenvalues.  The start is the least-squares linear
    inversion, clipped to the cone and scaled by its best flux.  The solve
    stops when a step lowers chi^2 by at most a relative TOLERANCE
    (converged) or after MAX_ITERATIONS steps; then N = Tr sigma and
    rho = sigma / N (maximally mixed when N = 0).
    """
    settings = list(settings)
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(settings),):
        raise ValueError(f"expected one count per setting, shape ({len(settings)},), got {counts.shape}")
    dim = d * d
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    design = np.empty((len(settings), dim * dim), dtype=complex)
    for i, setting in enumerate(settings):
        joint_ket = np.kron(setting.ket_a, setting.ket_b)
        if len(joint_ket) != dim:
            raise ValueError("setting dimension does not match d")
        design[i] = np.outer(joint_ket, joint_ket.conj()).ravel()
    w2 = 1.0 / (counts + 1.0)
    # the positive row weights keep the rank; numpy's matrix_rank tolerance is relative
    s = np.linalg.svd(np.sqrt(w2)[:, None] * design, compute_uv=False)
    rank = int(np.sum(s > s.max(initial=0.0) * max(design.shape) * np.finfo(float).eps))
    if rank < dim * dim:
        raise ValueError(f"settings span rank {rank} < {dim * dim}; not informationally complete")
    step = 0.5 / s[0] ** 2
    design_conj = design.conj()

    def probabilities(sigma):
        return np.real(design_conj @ sigma.ravel())

    def chi_squared(p):
        return float(np.sum(w2 * (counts - p) ** 2))

    def project(sigma):
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
        return (v * np.clip(w, 0.0, None)) @ v.conj().T

    x = project(np.linalg.lstsq(design, counts, rcond=None)[0].reshape(dim, dim))
    p_x = probabilities(x)
    denom = np.sum(w2 * p_x**2)
    scale = np.sum(w2 * counts * p_x) / denom if denom > 0 else 0.0
    x, p_x = x * scale, p_x * scale
    chi2 = chi_squared(p_x)
    # the rates are linear in sigma, so those at y follow from the iterates' rates
    y, p_y, t = x, p_x, 1.0
    converged = False
    iterations = 0
    while iterations < MAX_ITERATIONS and not converged:
        iterations += 1
        gradient = -2.0 * ((w2 * (counts - p_y)) @ design).reshape(dim, dim)
        x_next = project(y - step * gradient)
        p_next = probabilities(x_next)
        chi2_next = chi_squared(p_next)
        if chi2_next > chi2 and t > 1.0:
            # momentum overshot: restart from the last iterate
            y, p_y, t = x, p_x, 1.0
            continue
        converged = chi2 - chi2_next <= TOLERANCE * chi2
        if chi2_next <= chi2:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = x_next + beta * (x_next - x)
            p_y = p_next + beta * (p_next - p_x)
            x, p_x, chi2, t = x_next, p_next, chi2_next, t_next

    flux = float(np.trace(x).real)
    rho = x / flux if flux > 0 else np.eye(dim, dtype=complex) / dim
    return ReconstructionReport(rho=DensityMatrix.from_matrix(d, rho), chi_squared=chi2,
                                iterations=iterations, flux=flux, converged=converged)


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
