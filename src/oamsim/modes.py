"""Transverse optical modes used for projective measurements.

Laguerre-Gaussian modes, which evaluate a complex amplitude on the transverse
plane and can carry a lateral offset that models a misaligned measurement
hologram, and the azimuthal Fourier coefficients of the angular-sector
("slice") holograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import PolarGrid, laguerre


@dataclass(frozen=True)
class BeamGeometry:
    """Wavelength, beam waist and evaluation plane of a paraxial beam."""

    wavelength: float = 710e-9
    waist: float = 1.0
    z: float = 0.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.waist <= 0:
            raise ValueError("waist must be positive")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist**2 / self.wavelength

    @property
    def spot_size(self) -> float:
        """1/e beam radius w(z)."""
        zr = self.rayleigh_range
        return self.waist * math.sqrt(1.0 + (self.z / zr) ** 2)

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


def default_grid(*waists: float, n_r: int = 256, n_phi: int = 256) -> PolarGrid:
    """Quadrature grid sized for Gaussian tails: r_max = 6x the largest waist."""
    if not waists:
        raise ValueError("at least one waist is required")
    return PolarGrid(r_max=6.0 * max(waists), n_r=n_r, n_phi=n_phi)


class TransverseMode:
    """Base class: complex field on the transverse plane, with lateral offset.

    Subclasses implement ``_centered_field(r, phi)``; ``field`` shifts the
    evaluation point by the mode's (dx, dy) offset.
    """

    geometry: BeamGeometry
    offset: tuple[float, float]

    def field(self, r, phi):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        dx, dy = self.offset
        if dx == 0.0 and dy == 0.0:
            return self._centered_field(r, phi)
        x = r * np.cos(phi) - dx
        y = r * np.sin(phi) - dy
        return self._centered_field(np.hypot(x, y), np.arctan2(y, x))

    def _centered_field(self, r, phi):
        raise NotImplementedError

    def sample(self, grid: PolarGrid) -> np.ndarray:
        r, phi = grid.mesh()
        return np.asarray(self.field(r, phi), dtype=complex)


@dataclass(frozen=True)
class LGMode(TransverseMode):
    """Laguerre-Gaussian mode with azimuthal index ell and radial index p.

    Normalized so the transverse intensity integrates to one.  Includes the
    wavefront-curvature and Gouy phases away from the waist plane.
    """

    ell: int
    p: int = 0
    geometry: BeamGeometry = BeamGeometry()
    offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("radial index p must be non-negative")

    def _centered_field(self, r, phi):
        geo = self.geometry
        al = abs(self.ell)
        w = geo.spot_size
        norm = math.sqrt(2.0 * math.factorial(self.p) / (math.pi * math.factorial(self.p + al))) / w
        rho = np.sqrt(2.0) * r / w
        # radial profile: (sqrt(2) r / w)^|ell| L_p^|ell|(2 r^2 / w^2) exp(-r^2/w^2)
        amp = norm * rho**al * laguerre(self.p, float(al), 2.0 * r**2 / w**2) * np.exp(-(r**2) / w**2)
        out = amp * np.exp(1j * self.ell * phi)
        if geo.z != 0.0:
            zr = geo.rayleigh_range
            curvature = geo.wavenumber * r**2 * geo.z / (2.0 * (geo.z**2 + zr**2))
            gouy = (2 * self.p + al + 1) * math.atan2(geo.z, zr)
            out = out * np.exp(1j * (curvature - gouy))
        return out


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

