"""Transverse optical modes used for projective measurements.

The p = 0 Laguerre-Gaussian modes at the waist plane, sampled for a whole
window of azimuthal indices at once at any set of points in the plane and
optionally shifted laterally to model a misaligned measurement hologram, and
the azimuthal Fourier coefficients of the angular-sector ("slice")
holograms over their common width factor.  The state build needs no
samples (``spdc.build_state`` is a closed form); the samples serve
field-level checks and tracing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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

    def sample(self, grid) -> np.ndarray:
        """Field samples at ``grid.points``, complex x + i y, one row per ell.

        With zeta = sqrt(2) ((x - dx) + i (y - dy)) / w: u_0 = sqrt(2 / pi) / w
        exp(-|zeta|^2 / 2), u_ell = u_{ell-1} zeta / sqrt(ell), u_{-ell} = conj(u_ell).
        """
        m, (dx, dy) = self.ell_max, self.offset
        zeta = (math.sqrt(2.0) / self.waist) * (grid.points - complex(dx, dy))
        rows = np.empty((2 * m + 1, zeta.size), dtype=complex)
        rows[m] = math.sqrt(2.0 / math.pi) / self.waist * np.exp(-0.5 * (zeta.real**2 + zeta.imag**2))
        for ell in range(1, m + 1):
            np.multiply(rows[m + ell - 1], zeta / math.sqrt(ell), out=rows[m + ell])
            np.conjugate(rows[m + ell], out=rows[m - ell])
        return rows


def sector_shape(beta, width: float, ells) -> np.ndarray:
    """Azimuthal Fourier coefficients of a sector hologram over their common
    factor width / 2pi: sinc(ell * width / 2) * exp(-i ell beta), every entry
    of magnitude at most 1.

    The coefficients, width / 2pi times these, project the wedge indicator
    onto e^{i ell phi}, the ell-independent radial envelope factored out.
    beta broadcasts against ells, so a column of orientations gives one row
    per orientation.  A row normalised over ell needs no more, and unlike the
    coefficients it does not underflow to 0 at the narrowest widths, from
    about 1e-300.
    """
    if not 0.0 < width <= 2.0 * math.pi:
        raise ValueError("sector width must lie in (0, 2*pi]")
    ells = np.asarray(ells, dtype=int)
    x = ells * width / 2.0
    sinc = np.ones_like(x, dtype=float)
    nz = x != 0
    sinc[nz] = np.sin(x[nz]) / x[nz]
    return sinc * np.exp(-1j * ells * beta)
