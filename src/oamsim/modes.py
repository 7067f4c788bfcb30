"""Transverse optical modes used for projective measurements.

The p = 0 Laguerre-Gaussian modes at the waist plane, sampled for a whole
window of azimuthal indices at once at the nodes of an exact Gaussian rule
(``numerics.GaussPolarRule``) and optionally shifted laterally to model a
misaligned measurement hologram, and the azimuthal Fourier coefficients of
the angular-sector ("slice") holograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import GaussPolarRule


@dataclass(frozen=True)
class TransverseMode:
    """The p = 0 Laguerre-Gaussian modes ell = -ell_max, ..., ell_max at the waist.

    Each mode is normalized so its transverse intensity integrates to one; all
    share the waist and the lateral (dx, dy) offset of their centre.
    """

    waist: float
    ell_max: int
    offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.waist <= 0:
            raise ValueError("waist must be positive")

    def sample(self, rule: GaussPolarRule) -> np.ndarray:
        """Field samples at the rule's nodes (``rule.points``), one row per ell.

        With zeta = sqrt(2) ((x - dx) + i (y - dy)) / w: u_0 = sqrt(2 / pi) / w
        exp(-|zeta|^2 / 2), u_ell = u_{ell-1} zeta / sqrt(ell), u_{-ell} = conj(u_ell).
        """
        m, (dx, dy) = self.ell_max, self.offset
        zeta = (math.sqrt(2.0) / self.waist) * (rule.points - complex(dx, dy))
        rows = np.empty((2 * m + 1, zeta.size), dtype=complex)
        rows[m] = math.sqrt(2.0 / math.pi) / self.waist * np.exp(-0.5 * (zeta.real**2 + zeta.imag**2))
        for ell in range(1, m + 1):
            np.multiply(rows[m + ell - 1], zeta / math.sqrt(ell), out=rows[m + ell])
            np.conjugate(rows[m + ell], out=rows[m - ell])
        return rows


def sector_coefficients(beta, width: float, ells) -> np.ndarray:
    """Azimuthal Fourier coefficients of a sector hologram.

    c_ell = (width / 2pi) * sinc(ell * width / 2) * exp(-i ell beta), the
    projection of the wedge indicator onto e^{i ell phi}.  The ell-independent
    radial envelope is factored out.  beta broadcasts against ells, so a
    column of orientations gives one row of coefficients per orientation.
    """
    if not 0.0 < width <= 2.0 * math.pi:
        raise ValueError("sector width must lie in (0, 2*pi]")
    ells = np.asarray(ells, dtype=int)
    x = ells * width / 2.0
    sinc = np.ones_like(x, dtype=float)
    nz = x != 0
    sinc[nz] = np.sin(x[nz]) / x[nz]
    return (width / (2.0 * math.pi)) * sinc * np.exp(-1j * ells * beta)
