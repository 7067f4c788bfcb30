"""Two-qudit state tomography on plain arrays: the Born rule, reconstruction and metrics.

A density matrix is a (d^2, d^2) complex ndarray in kron order, from
``reconstruct`` to ``tomo_rho.csv``; ``check_density_matrix`` is the one
test that an array is a physical state.  On disk it is an ordinary table,
one row,col,real,imag row per entry (``density_matrix_columns``), written by
the runner's one table writer and read back by ``load_density_matrix``.  A
setting pairs two rows |a>, |b> of one (m, d) array of arm kets, at rate
<ab|rho|ab>.  The joint design of the m^2 settings is P (x) P, P the arm
design, up to the permutation ``_realign``; it is never formed, and
``born_probabilities`` gives all the rates of a mixed rho as one (m, m)
array, the model ``reconstruct`` fits; the pure state that a run samples
takes its rates from the one kernel, ``experiments.analyzer_rates``.
``reconstruct`` minimizes the count-weighted chi-square over sigma = N rho
(flux times density matrix), a convex quadratic on the positive-semidefinite
cone, by accelerated projected gradient with adaptive restart (FISTA; Beck &
Teboulle, SIAM J. Imaging Sci. 2, 183, 2009).  Its step backtracks both ways:
the curvature estimate doubles when a step fails its test and shrinks after
each accepted one (Scheinberg, Goldfarb & Bai, Found. Comput. Math. 14, 389,
2014).  The projection clips eigenvalues (Smolin, Gambetta & Smith, PRL 108,
070502, 2012).  The metrics are closed forms: the linear entropy is a trace,
and the two-qubit concurrence one eigendecomposition and one SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# reconstruct stops once a step lowers chi^2 by at most this relative amount,
# or after MAX_ITERATIONS steps (then it reports converged = False)
TOLERANCE = 1e-12
MAX_ITERATIONS = 10000

# Minimal pure-state fraction p of the isotropic two-qudit state
# p |Phi><Phi| + (1 - p) I / d^2 above which it violates the d-dimensional Bell
# inequality (Collins et al., PRL 88, 040404, 2002): 2 / I_d, with I_d the
# inequality's value for |Phi> under the optimal Fourier-basis settings,
#     I_d = 4 d sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}),
#     q_k = 1 / (2 d^3 sin^2(pi (k + 1/4) / d)),
# where q_{-(k+1)} is written with sin^2(pi (k + 3/4) / d), its equal.  For
# d = 2 it is 1/sqrt(2).  The keys are the tomo.d that validate accepts.
BELL_VIOLATION_THRESHOLDS = {
    d: 2.0 / (4 * d * sum((1 - 2 * k / (d - 1))
                          * (1 / (2 * d**3 * math.sin(math.pi * (k + 0.25) / d) ** 2)
                             - 1 / (2 * d**3 * math.sin(math.pi * (k + 0.75) / d) ** 2))
                          for k in range(d // 2)))
    for d in range(2, 8)
}


def threshold_fidelity(p: float, d: int) -> float:
    """Fidelity p + (1 - p) / d^2 of the isotropic state p |psi><psi| + (1 - p) I / d^2
    with its maximally entangled |psi>."""
    return p + (1.0 - p) / d**2


def check_density_matrix(matrix, d: int, herm_tol: float = 1e-10, trace_tol: float = 1e-10,
                         eig_tol: float = 1e-8) -> np.ndarray:
    """The Hermitian part of ``matrix`` once it passes as a two-qudit state.

    Raises ValueError unless ``matrix`` is (d^2, d^2), finite, Hermitian within
    ``herm_tol``, of unit trace within ``trace_tol`` and without an
    eigenvalue below -``eig_tol``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = d * d
    if matrix.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for local dimension {d}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has a NaN or infinite entry")
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


def _realign(x, d: int) -> np.ndarray:
    """The d^4 entries of x as a (d^2, d^2) matrix, entry (ij),(kl) moved to (ik),(jl).
    Its own inverse; it takes A (x) B to vec(A) vec(B)^T."""
    return np.reshape(x, (d, d, d, d)).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _arm_design(kets) -> np.ndarray:
    """The arm design P: row a is vec(|a><a|)^* for row a of ``kets``."""
    kets = np.asarray(kets, dtype=complex)
    return (kets.conj()[:, :, None] * kets[:, None, :]).reshape(len(kets), -1)


def _born(design, realigned) -> np.ndarray:
    """The (m, m) rates <ab|rho|ab>, Re(P R P^T) for the arm design P and R = _realign(rho)."""
    return (design @ realigned @ design.T).real


def born_probabilities(kets, rho) -> np.ndarray:
    """Re <ab| rho |ab> for every pair of rows a, b of ``kets``, with no joint ket formed."""
    rho = np.asarray(rho, dtype=complex)
    d = np.shape(kets)[-1]
    if rho.shape != (d * d, d * d):
        raise ValueError("ket dimension does not match the density matrix")
    return _born(_arm_design(kets), _realign(rho, d))


def reconstruct(counts, kets, d: int) -> ReconstructionReport:
    """Reconstruct the two-qudit density matrix from coincidence counts.

    Count a * m + b of the (m^2,) ``counts`` was measured at setting
    |a> (x) |b>, a and b rows of the (m, d) ``kets``.  Minimizes
    chi^2 = sum_ab (C_ab - <ab|sigma|ab>)^2 / (C_ab + 1) over sigma = N rho,
    N the photon flux, by FISTA with adaptive restart.  Realigned, the joint
    design A is P (x) P, P the arm design, of full rank when P has rank d^2.
    The step 1/(2 G) backtracks: G starts at the curvature along the first
    descent direction, below lambda_max(A^H W A) for W = diag(1 / (C + 1)).
    It doubles, the step redone and not counted, while
    sum W (A step)^2 > G |step|^2: chi^2 is quadratic, so this test of
    sufficient decrease is exact.  After each accepted step G shrinks by a
    fixed factor, so the step follows the curvature along the iterates rather
    than the largest one met so far.  The start is the linear inversion
    pinv(P) C pinv(P)^T, realigned, clipped to the cone and scaled by its
    best flux.  The solve stops when a step lowers chi^2 by at most a relative
    TOLERANCE (converged) or after MAX_ITERATIONS steps; then N = Tr sigma
    and rho = sigma / N (maximally mixed when N = 0).
    """
    m = len(kets)
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (m * m,):
        raise ValueError(f"expected one count per setting, shape ({m * m},), got {counts.shape}")
    if np.shape(kets) != (m, d):
        raise ValueError("ket dimension does not match d")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be finite and non-negative")
    dim = d * d
    design = _arm_design(kets)
    rank = np.linalg.matrix_rank(design)
    if rank < dim:
        raise ValueError(f"arm kets span rank {rank} < {dim}; not informationally complete")
    counts = counts.reshape(m, m)
    w2 = 1.0 / (counts + 1.0)
    # x.ravel()[perm] is _realign(x, d), one indexing call per product
    perm = _realign(np.arange(dim * dim), d)
    design_conj = design.conj()

    def chi_squared(p):
        return float((w2 * (counts - p) ** 2).sum())

    def descent(p):
        # minus half the chi^2 gradient at rates p; the step 1/L is 1/(2 G)
        return (design_conj.T @ (w2 * (counts - p)) @ design_conj).ravel()[perm]

    def project(sigma):
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
        return (v * np.maximum(w, 0.0)) @ v.conj().T

    pinv = np.linalg.pinv(design)
    x = project(_realign(pinv @ counts @ pinv.T, d))
    p_x = _born(design, x.ravel()[perm])
    denom = np.sum(w2 * p_x**2)
    scale = np.sum(w2 * counts * p_x) / denom if denom > 0 else 0.0
    x, p_x = x * scale, p_x * scale
    chi2 = chi_squared(p_x)
    g = descent(p_x)  # g = 0 only at an optimal start, where any G will do
    gram = np.sum(w2 * _born(design, g.ravel()[perm]) ** 2) / np.vdot(g, g).real if g.any() else 1.0
    # the rates are linear in sigma, so those at y and x_next follow from steps' rates
    y, p_y, t = x, p_x, 1.0
    iterations, converged = 0, False
    while iterations < MAX_ITERATIONS and not converged:
        x_next = project(y + descent(p_y) / gram)
        step = x_next - y
        p_step = _born(design, step.ravel()[perm])
        if np.vdot(p_step, w2 * p_step) > gram * np.vdot(step, step).real:
            gram *= 2.0  # the step overshot chi^2, a quadratic: redo it from y
            continue
        iterations += 1
        # G shrinks after each accepted step, so one region of high curvature does
        # not shorten every later step.  Of 0.9, 0.95 and 0.98, 0.95 took the fewest
        # projections on d = 2 inputs; 0.9 took up to 9 % fewer at d = 5 and 7
        gram *= 0.95
        p_next = p_y + p_step
        chi2_next = chi_squared(p_next)
        if chi2_next > chi2 and t > 1.0:
            # momentum overshot: restart from the last iterate
            y, p_y, t = x, p_x, 1.0
            continue
        converged = chi2 - chi2_next <= TOLERANCE * chi2
        if chi2_next <= chi2:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
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
