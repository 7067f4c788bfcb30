"""Exact Gaussian quadrature on the plane.

``GaussPolarRule`` holds the few nodes and weights on which the offset state
build samples its modes: every integrand there is a Gaussian times a
polynomial, which the rule integrates exactly.  It is a pure function of its
inputs; no shared mutable state.
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

