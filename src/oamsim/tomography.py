"""Two-qudit state tomography on plain arrays: the Born rule, reconstruction and metrics.

A density matrix is a (d^2, d^2) complex ndarray in kron order, from
``reconstruct`` to ``tomo_rho.csv``; ``check_density_matrix`` is the one
test that an array is a physical state.  On disk it is an ordinary table,
one row,col,real,imag row per entry (``density_matrix_columns``), written by
the runner's one table writer and read back by ``load_density_matrix``.  A
setting is a joint ket |k>, one row of an array of kets, and its rate is
<k|rho|k> = vec(|k><k|)^* . vec(rho).  ``born_probabilities`` forms the
rates from the design matrix whose rows are vec(|k><k|), and the fidelity
with a pure target is the same call on the target ket.  ``reconstruct``
inverts that design: it minimizes the count-weighted chi-square between
measured and predicted coincidences over the unnormalized state
sigma = N rho (flux times density matrix).  In sigma the problem is convex:
a quadratic on the cone of positive-semidefinite matrices, solved by
accelerated projected gradient (FISTA with adaptive restart; Beck &
Teboulle, SIAM J. Imaging Sci. 2, 183, 2009) whose projection clips
eigenvalues (Smolin, Gambetta & Smith, PRL 108, 070502, 2012).  The flux
and the unit-trace state are read off the optimum.  The metrics are closed
forms: the linear entropy is a trace, and the two-qubit concurrence one
eigendecomposition and one singular-value decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def check_density_matrix(matrix, d: int, herm_tol: float = 1e-10, trace_tol: float = 1e-10,
                         eig_tol: float = 1e-8) -> np.ndarray:
    """The Hermitian part of ``matrix`` once it passes as a two-qudit state.

    Raises ValueError unless ``matrix`` is (d^2, d^2), Hermitian within
    ``herm_tol``, of unit trace within ``trace_tol`` and without an
    eigenvalue below -``eig_tol``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = d * d
    if matrix.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for local dimension {d}")
    if np.max(np.abs(matrix - matrix.conj().T)) > herm_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    trace = np.trace(matrix).real
    if abs(trace - 1.0) > trace_tol:
        raise ValueError(f"trace {trace} differs from 1 beyond tolerance")
    hermitian = 0.5 * (matrix + matrix.conj().T)
    eigs = np.linalg.eigvalsh(hermitian)
    if eigs[0] < -eig_tol:
        raise ValueError(f"matrix has negative eigenvalue {eigs[0]:.3e}")
    return hermitian


@dataclass(frozen=True)
class ReconstructionReport:
    rho: np.ndarray
    chi_squared: float
    iterations: int
    flux: float
    converged: bool

    def __post_init__(self):
        if self.chi_squared < 0:
            raise ValueError("chi-squared must be non-negative")


def _projector_rows(kets) -> np.ndarray:
    """The design matrix: row k is vec(|k><k|) for row k of ``kets``."""
    kets = np.asarray(kets, dtype=complex)
    return (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), -1)


def born_probabilities(kets, rho) -> np.ndarray:
    """Re <k| rho |k> for every row k of ``kets``, one product with the design matrix."""
    rho = np.asarray(rho, dtype=complex)
    design = _projector_rows(kets)
    if design.shape[1] != rho.size:
        raise ValueError("ket dimension does not match the density matrix")
    return np.real(design.conj() @ rho.ravel())


def reconstruct(counts, settings, d: int) -> ReconstructionReport:
    """Reconstruct the two-qudit density matrix from coincidence counts.

    ``settings`` holds one joint ket |k_i> of dimension d^2 per row, and
    ``counts`` is an array of shape (len(settings),), count i measured at
    setting i.  Minimizes chi^2 = sum_i (C_i - <k_i|sigma|k_i>)^2 / (C_i + 1)
    over the unnormalized state sigma = N rho, N the photon flux.  In sigma
    this is a convex quadratic on the cone of positive-semidefinite matrices,
    solved by FISTA with adaptive restart and the fixed step 1/L,
    L = 2 ||diag(1/sqrt(C + 1)) A||_2^2 for the design matrix A of
    :func:`born_probabilities`.  Each step is projected onto the cone by
    clipping eigenvalues.  The start is the least-squares linear
    inversion, clipped to the cone and scaled by its best flux.  The solve
    stops when a step lowers chi^2 by at most a relative TOLERANCE
    (converged) or after MAX_ITERATIONS steps; then N = Tr sigma and
    rho = sigma / N (maximally mixed when N = 0).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(settings),):
        raise ValueError(f"expected one count per setting, shape ({len(settings)},), got {counts.shape}")
    dim = d * d
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    design = _projector_rows(settings)
    if design.shape[1] != dim * dim:
        raise ValueError("setting dimension does not match d")
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
    return ReconstructionReport(rho=check_density_matrix(rho, d), chi_squared=chi2,
                                iterations=iterations, flux=flux, converged=converged)


def linear_entropy(rho) -> float:
    """Normalized impurity (D / (D - 1)) (1 - Tr rho^2); 0 pure, 1 maximally mixed."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    purity = float(np.real(np.trace(rho @ rho)))
    return dim / (dim - 1.0) * (1.0 - purity)


def concurrence(rho) -> float:
    """Two-qubit concurrence C = max(0, l1 - l2 - l3 - l4) (Wootters, PRL 80, 2245, 1998).

    The l_i are the square roots of the eigenvalues of rho (Y rho* Y), Y the
    spin flip sigma_y (x) sigma_y, in decreasing order.  With rho = A A^dagger,
    A = V diag(sqrt(w)) from the eigendecomposition, they are the singular
    values of A^T Y A, which needs no matrix square root.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("concurrence is defined for two qubits (4x4 matrices)")
    flip = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y
    w, v = np.linalg.eigh(rho)
    a = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(a.T @ flip @ a, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def density_matrix_columns(rho) -> dict[str, np.ndarray]:
    """The table of a density matrix, one row per entry in C order: row, col, real, imag."""
    rho = np.asarray(rho, dtype=complex)
    row, col = np.indices(rho.shape)
    return {"row": row.ravel(), "col": col.ravel(), "real": rho.real.ravel(), "imag": rho.imag.ravel()}


def load_density_matrix(path) -> np.ndarray:
    """Read a density-matrix table, rejecting malformed or non-physical matrices.

    The table is what ``RunContext.write_table`` makes of
    :func:`density_matrix_columns`: a ``# config_hash=... seed=...`` line,
    the header ``row,col,real,imag`` and one row per entry.  There are d^4
    rows for local dimension d, and every (row, col) in [0, d^2) must appear
    exactly once.  Invariant violations (hermiticity, unit trace, negative
    eigenvalues) beyond 1e-6 are rejected.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# config_hash=") or lines[1] != "row,col,real,imag":
        raise ValueError("missing '# config_hash=...' line or 'row,col,real,imag' header"
                         " (the older 'd,N' header is no longer read)")
    entries = lines[2:]
    d = math.isqrt(math.isqrt(len(entries)))
    if d == 0 or d**4 != len(entries):
        raise ValueError(f"found {len(entries)} entries, which is not d^4 for any local dimension d >= 1")
    dim = d * d
    matrix = np.zeros((dim, dim), dtype=complex)
    seen = np.zeros((dim, dim), dtype=bool)
    for line in entries:
        row_s, col_s, re_s, im_s = line.split(",")
        row, col = int(row_s), int(col_s)
        if not (0 <= row < dim and 0 <= col < dim):
            raise ValueError(f"entry ({row}, {col}) lies outside the {dim}x{dim} matrix")
        if seen[row, col]:
            raise ValueError(f"entry ({row}, {col}) appears twice")
        seen[row, col] = True
        matrix[row, col] = float(re_s) + 1j * float(im_s)
    return check_density_matrix(matrix, d, herm_tol=1e-6, trace_tol=1e-6, eig_tol=1e-6)
