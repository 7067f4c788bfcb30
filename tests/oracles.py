"""Independent reference implementations that the tests check shipped paths against.

None of these is used by the library.  Each one computes a quantity a second
way: by quadrature of a sampled field where the library uses a closed form
or a different summation, or by brute-force evaluation where the library
uses a frozen table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oamsim.modes import BeamGeometry, LGMode, TransverseMode, default_grid
from oamsim.numerics import PolarGrid, integrate_polar
from oamsim.spdc import PumpSpec


@dataclass(frozen=True)
class SuperpositionMode(TransverseMode):
    """Bloch-sphere superposition of opposite-helicity LG modes (p = 0).

    cos(theta/2) |+ell> + e^{i phase} sin(theta/2) |-ell>, with the north and
    south poles mapping to |+ell> and |-ell>.  theta = pi/2 gives the
    equal-weight petal modes used for the rotated analyzer holograms; it
    checks ``experiments.analyzer_ket``.
    """

    ell: int
    theta: float = math.pi / 2.0
    phase: float = 0.0
    geometry: BeamGeometry = BeamGeometry()
    offset: tuple[float, float] = (0.0, 0.0)

    def _components(self):
        plus = LGMode(ell=self.ell, p=0, geometry=self.geometry)
        minus = LGMode(ell=-self.ell, p=0, geometry=self.geometry)
        return plus, minus

    def _centered_field(self, r, phi):
        plus, minus = self._components()
        c_plus = math.cos(self.theta / 2.0)
        c_minus = math.sin(self.theta / 2.0) * np.exp(1j * self.phase)
        return c_plus * plus._centered_field(r, phi) + c_minus * minus._centered_field(r, phi)


@dataclass(frozen=True)
class SectorMode(TransverseMode):
    """Angular-sector ("slice") hologram used for angular-position projections.

    Wedge of angular width ``width`` centered on orientation ``beta``, with a
    Gaussian radial envelope matching the fiber-coupled fundamental mode.
    Analytic normalization: the wedge carries width * w^2 / 4 of envelope
    power.  Checks ``modes.sector_coefficients``.
    """

    beta: float
    width: float
    geometry: BeamGeometry = BeamGeometry()
    offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.width <= 2.0 * math.pi:
            raise ValueError("sector width must lie in (0, 2*pi]")

    def _centered_field(self, r, phi):
        w = self.geometry.spot_size
        delta = np.mod(phi - self.beta + math.pi, 2.0 * math.pi) - math.pi
        inside = np.abs(delta) <= self.width / 2.0
        norm = 1.0 / math.sqrt(self.width * w**2 / 4.0)
        return norm * np.exp(-(r**2) / w**2) * inside.astype(complex)


def mode_overlap(a: TransverseMode, b: TransverseMode, grid: PolarGrid | None = None) -> complex:
    """Inner product <a|b> over the transverse plane, including offsets."""
    if abs(a.geometry.wavelength - b.geometry.wavelength) > 1e-15 * a.geometry.wavelength:
        raise ValueError("modes must share a wavelength")
    if grid is None:
        grid = default_grid(a.geometry.spot_size, b.geometry.spot_size)
    return integrate_polar(np.conj(a.sample(grid)) * b.sample(grid), grid)


def coincidence_amplitude(signal: TransverseMode, idler: TransverseMode,
                          pump: PumpSpec | TransverseMode, grid: PolarGrid | None = None) -> complex:
    """Normalized two-photon projection amplitude at the crystal plane.

    The magnitude squared is the relative coincidence rate: the squared
    overlap of the back-projected signal and idler modes with the pump,
    normalized by the individual signal-pump and idler-pump overlaps.  A
    ``PumpSpec`` stands for its Gaussian mode; any other pump mode is used
    as given.  One mode pair at a time, so it checks both paths of
    ``spdc.build_state``: the closed form and the offset matrix product.
    """
    if isinstance(pump, PumpSpec):
        pump = LGMode(ell=0, geometry=BeamGeometry(waist=pump.waist))
    if grid is None:
        grid = default_grid(signal.geometry.spot_size, idler.geometry.spot_size,
                            pump.geometry.spot_size)
    u_s = signal.sample(grid)
    u_i = idler.sample(grid)
    u_p = pump.sample(grid)
    numerator = integrate_polar(np.conj(u_s) * np.conj(u_i) * u_p, grid)
    d_s = integrate_polar(np.abs(u_s) ** 2 * np.abs(u_p) ** 2, grid).real
    d_i = integrate_polar(np.abs(u_i) ** 2 * np.abs(u_p) ** 2, grid).real
    if d_s <= 0 or d_i <= 0:
        raise ValueError("degenerate mode choice: a signal/idler mode has no overlap with the pump")
    return numerator / (d_s * d_i) ** 0.25


def max_entangled_ket(d: int) -> np.ndarray:
    """Maximally entangled two-qudit ket sum_i |i, i> / sqrt(d)."""
    ket = np.zeros(d * d, dtype=complex)
    for i in range(d):
        ket[i * d + i] = 1.0
    return ket / math.sqrt(d)


def cross_entangled_ket(d: int) -> np.ndarray:
    """Maximally entangled ket sum_i |i, d-1-i> / sqrt(d).

    With a helicity basis listed as (+ell, ..., -ell) per arm this is the
    opposite-helicity pair state produced by a zero-OAM pump.
    """
    ket = np.zeros(d * d, dtype=complex)
    for i in range(d):
        ket[i * d + (d - 1 - i)] = 1.0
    return ket / math.sqrt(d)


def isotropic_state(d: int, p: float) -> np.ndarray:
    """p |psi><psi| + (1 - p) I / d^2 with |psi> maximally entangled."""
    ket = max_entangled_ket(d)
    return p * np.outer(ket, ket.conj()) + (1.0 - p) * np.eye(d * d) / d**2


def bell_inequality_value(d):
    """Quantum value of the d-outcome two-setting Bell expression (Collins et
    al., PRL 88, 040404, 2002) for the maximally entangled state with the
    optimal Fourier-basis measurements.  Checks the frozen threshold table
    ``tomography.BELL_VIOLATION_THRESHOLDS``."""
    psi = max_entangled_ket(d)

    def alice_vec(a, k):
        alpha = (0.0, 0.5)[a]
        j = np.arange(d)
        return np.exp(1j * 2 * np.pi * j * (k + alpha) / d) / math.sqrt(d)

    def bob_vec(b, l):
        beta = (0.25, -0.25)[b]
        j = np.arange(d)
        return np.exp(1j * 2 * np.pi * j * (-l + beta) / d) / math.sqrt(d)

    def prob(a, b, k, l):
        amp = np.vdot(np.kron(alice_vec(a, k), bob_vec(b, l)), psi)
        return abs(amp) ** 2

    def p_eq(a, b, k):
        return sum(prob(a, b, (l + k) % d, l) for l in range(d))

    total = 0.0
    for k in range(d // 2):
        w = 1.0 - 2.0 * k / (d - 1.0)
        plus = p_eq(0, 0, k) + p_eq(1, 0, -(k + 1)) + p_eq(1, 1, k) + p_eq(0, 1, -k)
        minus = p_eq(0, 0, -(k + 1)) + p_eq(1, 0, k) + p_eq(1, 1, -(k + 1)) + p_eq(0, 1, k + 1)
        total += w * (plus - minus)
    return total


def su_basis(d: int) -> list[np.ndarray]:
    """Hermitian operator basis for d-dimensional systems.

    Element 0 is the identity; the remaining d^2 - 1 matrices are the
    generalized Gell-Mann generators (symmetric, antisymmetric and diagonal
    families), each traceless and normalized so Tr(t_m t_n) = 2 delta_mn.
    For d = 2 they are exactly the Pauli matrices.
    """
    if not 2 <= d <= 8:
        raise ValueError(f"dimension d={d} outside supported range [2, 8]")
    basis = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            basis.append(asym)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -l
        basis.append(math.sqrt(2.0 / (l * (l + 1))) * diag)
    return basis


def _su_norms(d: int) -> np.ndarray:
    """Tr(t_m t_m) for the elements of :func:`su_basis`."""
    return np.array([d] + [2.0] * (d * d - 1))


def su_expand(rho, d: int | None = None) -> np.ndarray:
    """Coefficients b[m, n] of rho in the tensor operator basis.

    rho = sum_{m,n} b[m, n] t_m (x) t_n over :func:`su_basis`; b[0, 0] = 1/d^2
    for a unit-trace state.  The Bloch form gives Tr rho^2 a second way, which
    checks ``tomography.linear_entropy``.
    """
    matrix = np.asarray(rho, dtype=complex)
    if d is None:
        d = int(round(math.sqrt(matrix.shape[0])))
    basis = su_basis(d)
    norms = _su_norms(d)
    n_ops = len(basis)
    coeffs = np.zeros((n_ops, n_ops), dtype=complex)
    for m in range(n_ops):
        for n in range(n_ops):
            op = np.kron(basis[m], basis[n])
            coeffs[m, n] = np.trace(matrix @ op) / (norms[m] * norms[n])
    return coeffs


def su_compose(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Rebuild the matrix sum_{m,n} b[m, n] t_m (x) t_n from its coefficients."""
    basis = su_basis(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for m in range(len(basis)):
        for n in range(len(basis)):
            if coeffs[m, n] != 0:
                out += coeffs[m, n] * np.kron(basis[m], basis[n])
    return out


def su_purity(coeffs: np.ndarray, d: int) -> float:
    """Tr rho^2 = sum_{m,n} |b[m, n]|^2 Tr(t_m^2) Tr(t_n^2) from the Bloch form."""
    norms = _su_norms(d)
    return float(np.sum(np.abs(coeffs) ** 2 * np.outer(norms, norms)))
