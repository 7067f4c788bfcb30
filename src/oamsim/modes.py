"""Transverse optical modes used for projective measurements.

The p = 0 Laguerre-Gaussian modes at the waist plane, sampled for a whole
window of azimuthal indices at once and optionally shifted laterally to model
a misaligned measurement hologram, and the azimuthal Fourier coefficients of
the angular-sector ("slice") holograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import PolarGrid


def default_grid(*waists: float, n_r: int = 256, n_phi: int = 256) -> PolarGrid:
    """Quadrature grid sized for Gaussian tails: r_max = 6x the largest waist."""
    if not waists:
        raise ValueError("at least one waist is required")
    return PolarGrid(r_max=6.0 * max(waists), n_r=n_r, n_phi=n_phi)


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

    def sample(self, grid: PolarGrid) -> np.ndarray:
        """Field samples on the flattened (n_r, n_phi) mesh, one row per ell.

        With zeta = sqrt(2) ((x - dx) + i (y - dy)) / w: u_0 = sqrt(2 / pi) / w
        exp(-|zeta|^2 / 2), u_ell = u_{ell-1} zeta / sqrt(ell), u_{-ell} = conj(u_ell).
        """
        m, (dx, dy) = self.ell_max, self.offset
        zeta = (math.sqrt(2.0) / self.waist) * (np.outer(grid.r, np.cos(grid.phi)) - dx
                                                 + 1j * (np.outer(grid.r, np.sin(grid.phi)) - dy)).ravel()
        rows = np.empty((2 * m + 1, zeta.size), dtype=complex)
        rows[m] = math.sqrt(2.0 / math.pi) / self.waist * np.exp(-0.5 * (zeta.real**2 + zeta.imag**2))
        for ell in range(1, m + 1):
            np.multiply(rows[m + ell - 1], zeta / math.sqrt(ell), out=rows[m + ell])
            np.conjugate(rows[m + ell], out=rows[m - ell])
        return rows


def sector_coefficients(beta: float, width: float, ells) -> np.ndarray:
    """Azimuthal Fourier coefficients of a sector hologram.

    c_ell = (width / 2pi) * sinc(ell * width / 2) * exp(-i ell beta), the
    projection of the wedge indicator onto e^{i ell phi}.  The ell-independent
    radial envelope is factored out.
    """
    if not 0.0 < width <= 2.0 * math.pi:
        raise ValueError("sector width must lie in (0, 2*pi]")
    ells = np.asarray(ells, dtype=int)
    x = ells * width / 2.0
    sinc = np.ones_like(x, dtype=float)
    nz = x != 0
    sinc[nz] = np.sin(x[nz]) / x[nz]
    return (width / (2.0 * math.pi)) * sinc * np.exp(-1j * ells * beta)
