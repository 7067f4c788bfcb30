"""Polar-grid quadrature nodes and Hermitian matrix functions.

``PolarGrid`` holds the nodes and area weights on which the offset state
build samples its modes; the eigendecomposition and positive-semidefinite
square root serve the tomography metrics.  Everything here is a pure function
of its inputs; no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class PolarGrid:
    """Tensor-product quadrature on a disc of radius ``r_max``.

    Gauss-Legendre nodes in r on [0, r_max], uniform nodes in phi.  The
    uniform azimuthal rule is exact for integrands whose azimuthal content is
    band-limited below n_phi/2, which covers every e^{i ell phi} mode used
    here as long as n_phi > 2*ell_max.
    """

    r_max: float
    n_r: int = 256
    n_phi: int = 256
    r: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")
        if self.n_r < 1 or self.n_phi < 1:
            raise ValueError("n_r and n_phi must be positive")
        x, wx = leggauss(self.n_r)
        r = 0.5 * (x + 1.0) * self.r_max
        wr = 0.5 * self.r_max * wx
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        # area element r dr dphi, flattened onto the (n_r, n_phi) mesh
        weights = np.outer(wr * r, np.full(self.n_phi, 2.0 * np.pi / self.n_phi))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "weights", weights)


def _check_hermitian(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > tol * scale:
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


def psd_sqrt(m, clamp_tol: float = 1e-10, fail_tol: float = 1e-6):
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-clamp_tol, 0) are treated as round-off and clamped to
    zero; anything below -fail_tol signals a genuinely non-physical matrix.
    """
    w, v = hermitian_eigen(m)
    if w[-1] < -fail_tol:
        raise ValueError(f"matrix has negative eigenvalue {w[-1]:.3e}; not positive semidefinite")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)

