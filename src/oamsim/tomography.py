"""Two-qudit state tomography on plain arrays: the Born rule, reconstruction and metrics.

A density matrix is a (d^2, d^2) complex ndarray in kron order, from
``reconstruct`` to ``tomo_rho.csv``; ``check_density_matrix`` is the one
test that an array is a physical state.  On disk it is an ordinary table,
one row,col,real,imag row per entry (``density_matrix_columns``), written by
the runner's one table writer and read back by ``load_density_matrix``.  A
setting pairs two rows |a>, |b> of one (m, d) array of arm kets, at rate
<ab|rho|ab>.  The joint design of the m^2 settings is P (x) P, P the arm
design, up to the permutation ``_realign``; it is never formed, and
``_born`` gives all the rates of a mixed rho as one (m, m) array, the model
``reconstruct`` fits; the pure state that a run samples takes its rates
from the one kernel, ``experiments.analyzer_rates``.
``reconstruct`` minimizes the count-weighted chi-square over sigma = N rho
(flux times density matrix), a convex quadratic on the positive-semidefinite
cone.  It writes sigma = T T^H with T a full d^2 x d^2 complex factor, the
Cholesky-factor parametrisation of James et al. (PRA 64, 052312, 2001), which
needs no projection, and runs L-BFGS on T (Liu & Nocedal, Math. Program. 45,
503, 1989).  With T square a local minimum of the factored problem is a global
one of the convex problem (Burer & Monteiro, Math. Program. 95, 329, 2003).
The rates along a search line are quadratic in the step length, so chi^2 on
it is an exact quartic, minimized without another Born product.  The metrics
are closed forms: the linear entropy is a trace, and the two-qubit
concurrence one eigendecomposition and one SVD.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

# reconstruct stops once its last WINDOW steps together lower chi^2 by at most
# this relative amount, or after MAX_ITERATIONS steps (then it reports
# converged = False).  Of windows of 2, 3, 5 and 8 steps, 5 is the shortest
# that ended at or below FISTA's chi^2 on all nine pinned test runs
TOLERANCE = 1e-12
WINDOW = 5
MAX_ITERATIONS = 10000
# the steps and gradient changes L-BFGS keeps; of 8, 16, 24 and 32, 24 was the
# fastest, or within a few percent of it, on d = 2 inputs and on d = 5 and 7
# runs at pair rates 3e4 to 1e12
MEMORY = 24

def bell_violation_threshold(d: int) -> float:
    """Minimal pure-state fraction p of the isotropic two-qudit state
    p |Phi><Phi| + (1 - p) I / d^2 above which it violates the d-dimensional Bell
    inequality (Collins et al., PRL 88, 040404, 2002): 2 / I_d, with I_d the
    inequality's value for |Phi> under the optimal Fourier-basis settings,

        I_d = 4 d sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}),
        q_k = 1 / (2 d^3 sin^2(pi (k + 1/4) / d)),

    where q_{-(k+1)} is written with sin^2(pi (k + 3/4) / d), its equal.  For
    d = 2 it is 1/sqrt(2).
    """
    return 2.0 / (4 * d * sum((1 - 2 * k / (d - 1))
                              * (1 / (2 * d**3 * math.sin(math.pi * (k + 0.25) / d) ** 2)
                                 - 1 / (2 * d**3 * math.sin(math.pi * (k + 0.75) / d) ** 2))
                              for k in range(d // 2)))


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


def _factor_gradient(design_conj, perm, weighted, t) -> np.ndarray:
    """The chi^2 gradient in the factor T of sigma = T T^H at the weighted residuals
    W (C - p): -4 D T, with D = P^H W (C - p) P^*, realigned, minus half the
    chi^2 gradient in sigma.  ``perm`` realigns the d^4 entries (``_realign``)."""
    dim = len(t)
    return -4.0 * ((design_conj.T @ weighted @ design_conj).ravel()[perm].reshape(dim, dim) @ t)


def reconstruct(counts, kets, d: int) -> ReconstructionReport:
    """Reconstruct the two-qudit density matrix from coincidence counts.

    Count a * m + b of the (m^2,) ``counts`` was measured at setting
    |a> (x) |b>, a and b rows of the (m, d) ``kets``.  Minimizes
    chi^2 = sum_ab (C_ab - <ab|sigma|ab>)^2 / (C_ab + 1) over sigma = N rho,
    N the photon flux.  Realigned, the joint design A is P (x) P, P the arm
    design, of full rank when P has rank d^2; one SVD of P gives both that rank
    (with the tolerance of ``np.linalg.matrix_rank``) and pinv(P).

    sigma = T T^H, T a full-rank d^2 x d^2 complex matrix, and L-BFGS runs on
    T's real and imaginary parts.  The start is the linear inversion
    pinv(P) C pinv(P)^T, realigned, clipped to the cone and scaled by its best
    flux; with V diag(w) V^H its eigendecomposition, T_0 = V diag(sqrt(w)),
    each w floored at 1e-6 of the largest: a zero column of T gets a zero
    gradient and would stay zero.  The gradient is -4 D T (``_factor_gradient``).  Along
    a direction S the rates are p + alpha p1 + alpha^2 p2, p1 those of
    T S^H + S T^H and p2 those of S S^H, so chi^2(alpha) is an exact quartic:
    two Born products give it, and safeguarded Newton steps on its derivative
    take alpha to a local minimum (``_quartic_minimum``).  The direction is
    the compact L-BFGS product with the last MEMORY steps and gradient changes.

    The solve stops (converged) once the last WINDOW steps (all of them, when
    fewer) together lowered chi^2 by at most a relative TOLERANCE, since one
    short step of a quasi-Newton run does not mark its end, or at once when chi^2 is down to
    the round-off of rates within a relative d^2 eps of the counts, which no
    relative test can resolve; otherwise after MAX_ITERATIONS steps.  Then N = Tr sigma and
    rho = sigma / N (maximally mixed when N = 0).
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
    u, sv, vh = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(sv > sv.max(initial=0.0) * max(design.shape) * np.finfo(float).eps))
    if rank < dim:
        raise ValueError(f"arm kets span rank {rank} < {dim}; not informationally complete")
    counts = counts.reshape(m, m)
    w2 = 1.0 / (counts + 1.0)
    # x.ravel()[perm] is _realign(x, d), one indexing call per product
    perm = _realign(np.arange(dim * dim), d)
    design_conj = design.conj()

    pinv = (vh.conj().T / sv) @ u.conj().T
    w, v = np.linalg.eigh(_realign(pinv @ counts @ pinv.T, d))
    w = np.maximum(w, 0.0)
    p = _born(design, ((v * w) @ v.conj().T).ravel()[perm])
    denom = np.vdot(w2 * p, p)
    w *= np.vdot(w2 * counts, p) / denom if denom > 0 else 0.0
    t = v * np.sqrt(np.maximum(w, 1e-6 * w[-1]))
    p = _born(design, (t @ t.conj().T).ravel()[perm])
    residual = counts - p
    chi2 = float(np.vdot(w2 * residual, residual))
    grad = _factor_gradient(design_conj, perm, w2 * residual, t)
    # chi^2 of rates within a relative d^2 eps of every count: round-off
    floor = float(np.vdot(w2, (dim * np.finfo(float).eps * counts) ** 2))
    # The last MEMORY steps s_i and gradient changes y_i, real vectors in the rows
    # of a ring, give the compact form of the inverse-Hessian estimate (Byrd,
    # Nocedal & Schnabel, Math. Program. 63, 129, 1994).  Oldest first, it needs
    # s_i.y_i, y_i.y_j and the inverse of the upper triangle R_ij = s_i.y_j,
    # i <= j, which grows and loses a column at a time
    ring = np.zeros((2 * MEMORY, 2 * dim * dim))  # the s rows, then the y rows
    yy, r_inv, sy = np.zeros((MEMORY, MEMORY)), np.zeros((MEMORY, MEMORY)), np.zeros(MEMORY)
    order = []  # ring slots, oldest first
    recent = deque([chi2], maxlen=WINDOW + 1)  # chi^2 before the last WINDOW steps, and after each
    iterations, converged = 0, not grad.any()
    while iterations < MAX_ITERATIONS and not converged:
        g = grad.view(float).ravel()
        if order:
            k = len(order)
            sg, yg = (ring @ g).reshape(2, MEMORY)[:, order]
            gamma = sy[k - 1] / yy[k - 1, k - 1]
            a = r_inv[:k, :k] @ sg
            b = (sy[:k] * a + gamma * (yy[:k, :k] @ a - yg)) @ r_inv[:k, :k]
            coef = np.zeros((2, MEMORY))
            coef[:, order] = b, -gamma * a
            g = gamma * g + coef.ravel() @ ring
        step = -g.view(complex).reshape(dim, dim)
        # T S^H and S T^H have the same rates, so p1 is twice those of T S^H
        both = (np.concatenate((t, step)) @ step.conj().T).reshape(2, -1)[:, perm]
        half_p1, p2 = (design @ both @ design.T).real
        series = np.array([residual, 2.0 * half_p1, p2]).reshape(3, -1)
        c = (series * w2.ravel()) @ series.T
        # chi^2(alpha) = chi^2 - 2 c01 alpha + (c11 - 2 c02) alpha^2 + 2 c12 alpha^3 + c22 alpha^4;
        # a direction that does not descend, c01 <= 0 by round-off, is not taken
        alpha = (_quartic_minimum(-2.0 * c[0, 1], 2.0 * (c[1, 1] - 2.0 * c[0, 2]), 6.0 * c[1, 2],
                                  4.0 * c[2, 2]) if c[0, 1] > 0 else 0.0)
        t = t + alpha * step
        p = p + (alpha * series[1] + alpha * alpha * series[2]).reshape(m, m)
        residual = counts - p
        weighted = w2 * residual
        chi2_next = float(np.vdot(weighted, residual))
        grad_next = _factor_gradient(design_conj, perm, weighted, t)
        iterations += 1
        s = alpha * step.view(float).ravel()
        y = (grad_next - grad).view(float).ravel()
        s_y = s @ y
        if s_y > 0:  # a pair without positive curvature would break the estimate
            if len(order) == MEMORY:
                slot = order.pop(0)
                sy[:-1], yy[:-1, :-1], r_inv[:-1, :-1] = sy[1:], yy[1:, 1:], r_inv[1:, 1:]
            else:
                slot = len(order)
            k = len(order)
            ring[slot], ring[MEMORY + slot], sy[k] = s, y, s_y
            order.append(slot)
            s_old_y, yy[:k + 1, k] = (ring @ y).reshape(2, MEMORY)[:, order]
            yy[k, :k] = yy[:k, k]
            r_inv[:k, k] = r_inv[:k, :k] @ s_old_y[:k] / -s_y
            r_inv[k, :k], r_inv[k, k] = 0.0, 1.0 / s_y
        recent.append(chi2_next)
        converged = recent[0] - chi2_next <= TOLERANCE * recent[0] or chi2_next <= floor
        chi2, grad = chi2_next, grad_next

    sigma = t @ t.conj().T
    flux = float(np.trace(sigma).real)
    rho = sigma / flux if flux > 0 else np.eye(dim, dtype=complex) / dim
    return ReconstructionReport(rho=check_density_matrix(rho, d), chi_squared=chi2,
                                iterations=iterations, flux=flux, converged=converged)


def _quartic_minimum(b0: float, b1: float, b2: float, b3: float) -> float:
    """A local minimum at alpha > 0 of a quartic whose derivative is the cubic
    b0 + b1 alpha + b2 alpha^2 + b3 alpha^3, with b0 < 0 < b3.

    Newton steps on the cubic from alpha = 1, the quasi-Newton step, kept inside
    a bracket at whose ends the cubic is negative and positive: a step that
    leaves it bisects it, or doubles alpha while no upper end is known.
    """
    lo, hi, alpha = 0.0, math.inf, 1.0
    for _ in range(100):
        slope = b0 + alpha * (b1 + alpha * (b2 + alpha * b3))
        if slope < 0:
            lo = alpha
        else:
            hi = alpha
        if abs(slope) <= 1e-12 * -b0 or hi - lo <= 1e-15 * alpha:
            break
        curvature = b1 + alpha * (2.0 * b2 + 3.0 * alpha * b3)
        alpha = alpha - slope / curvature if curvature > 0 else math.inf
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    return alpha


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
