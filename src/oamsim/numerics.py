"""Exact Gaussian quadrature on the plane and Hermitian matrix functions.

``GaussPolarRule`` holds the few nodes and weights on which the offset state
build samples its modes: every integrand there is a Gaussian times a
polynomial, which the rule integrates exactly.  The eigendecomposition and
positive-semidefinite square root serve the tomography metrics.  Everything
here is a pure function of its inputs; no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.laguerre import laggauss


class GaussPolarRule:
    """Nodes and weights integrating e^{-a |r - c|^2} P(x, y) over the plane exactly.

    Exact whenever P has total degree at most 2 * ell_max.  The nodes are
    c + sqrt(t_k / a) e^{i phi_j}: t_k are the n_r = ell_max // 2 + 1
    Gauss-Laguerre nodes and phi_j = 2 pi j / n_phi with n_phi = 2 ell_max + 1.
    The phi sum removes every e^{i m phi} with 0 < |m| <= 2 ell_max; what is
    left is a polynomial in t = a |r - c|^2 of degree at most
    ell_max <= 2 n_r - 1, which the Laguerre nodes integrate exactly.  The
    weights lambda_k e^{t_k} / (2 a) * 2 pi / n_phi apply to the whole
    integrand, Gaussian included.  ``points`` holds the nodes as complex
    numbers x + i y, phi varying fastest, and ``weights`` matches it.
    """

    def __init__(self, a: float, centre: tuple[float, float], ell_max: int):
        if not a > 0:
            raise ValueError("Gaussian rate a must be positive")
        if ell_max < 0:
            raise ValueError("ell_max must be non-negative")
        self.n_r, self.n_phi = ell_max // 2 + 1, 2 * ell_max + 1
        t, lam = laggauss(self.n_r)
        ring = np.exp(2j * np.pi * np.arange(self.n_phi) / self.n_phi)
        self.points = complex(*centre) + np.outer(np.sqrt(t / a), ring).ravel()
        self.weights = np.repeat(lam * np.exp(t) * (math.pi / (a * self.n_phi)), self.n_phi)


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    return 0.5 * (m + m.conj().T)


def hermitian_eigen(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as the corresponding columns, so m = V diag(w) V^dagger.
    """
    m = _check_hermitian(m)
    w, v = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def psd_sqrt(m, fail_tol: float = 1e-6):
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-fail_tol, 0) are treated as round-off and clamped to
    zero; anything below -fail_tol signals a genuinely non-physical matrix.
    """
    w, v = hermitian_eigen(m)
    if w[-1] < -fail_tol:
        raise ValueError(f"matrix has negative eigenvalue {w[-1]:.3e}; not positive semidefinite")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)

