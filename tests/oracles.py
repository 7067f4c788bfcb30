"""Independent reference implementations that the tests check shipped paths against.

None of these is used by the library.  Each one computes a quantity a second
way: by quadrature on a brute-force polar grid where the library uses a
closed form or an exact Gaussian rule, by the general Laguerre-Gaussian mode
(any radial index, any propagation distance, one mode at a time) where the
library samples the p = 0 modes at the waist by recurrence, one setting at
a time where the library forms the rates of all settings as one array, or by
brute-force evaluation where the library uses a frozen table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from oamsim.modes import TransverseMode
from oamsim.spdc import PumpSpec

MAX_LAGUERRE_ORDER = 64


def laguerre(p: int, alpha: float, x):
    """Associated Laguerre polynomial L_p^alpha(x) via the three-term recurrence.

    Parameters
    ----------
    p : int
        Polynomial degree, 0 <= p <= 64.
    alpha : float
        Order parameter, alpha >= 0 for the optical-mode use case.
    x : float or ndarray
        Evaluation point(s).
    """
    if not 0 <= p <= MAX_LAGUERRE_ORDER:
        raise ValueError(f"laguerre degree p={p} outside supported range [0, {MAX_LAGUERRE_ORDER}]")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if p == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - x
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


@dataclass(frozen=True)
class PolarGrid:
    """Tensor-product quadrature on a disc of radius ``r_max``.

    Gauss-Legendre nodes in r on [0, r_max], uniform nodes in phi.  The
    uniform azimuthal rule is exact for integrands whose azimuthal content is
    band-limited below n_phi/2, which covers every e^{i ell phi} mode used
    here as long as n_phi > 2*ell_max.  ``points`` flattens the nodes to
    complex x + i y like ``numerics.GaussPolarRule``, so
    ``modes.TransverseMode.sample`` takes either.
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

    @property
    def points(self) -> np.ndarray:
        return (np.outer(self.r, np.cos(self.phi)) + 1j * np.outer(self.r, np.sin(self.phi))).ravel()


def default_grid(*waists: float, n_r: int = 256, n_phi: int = 256) -> PolarGrid:
    """Quadrature grid sized for Gaussian tails: r_max = 6x the largest waist."""
    if not waists:
        raise ValueError("at least one waist is required")
    return PolarGrid(r_max=6.0 * max(waists), n_r=n_r, n_phi=n_phi)


def polar_mesh(grid: PolarGrid):
    """Return (R, PHI) arrays of shape (n_r, n_phi) over the grid nodes."""
    return np.meshgrid(grid.r, grid.phi, indexing="ij")


def integrate_polar(f, grid: PolarGrid) -> complex:
    """Integrate a complex field over the disc: sum of f(node) * weight.

    ``f`` may be a callable f(r, phi) broadcasting over arrays, or an array of
    samples with shape (n_r, n_phi).
    """
    if callable(f):
        r, phi = polar_mesh(grid)
        values = np.asarray(f(r, phi))
    else:
        values = np.asarray(f)
    if values.shape != grid.weights.shape:
        raise ValueError(f"field samples have shape {values.shape}, expected {grid.weights.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand is not finite on all grid nodes")
    return complex(np.sum(values * grid.weights))


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


class FieldMode:
    """Base class: complex field of one mode on the transverse plane, with lateral offset.

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
        r, phi = polar_mesh(grid)
        return np.asarray(self.field(r, phi), dtype=complex)


@dataclass(frozen=True)
class LGMode(FieldMode):
    """Laguerre-Gaussian mode with azimuthal index ell and radial index p.

    Normalized so the transverse intensity integrates to one.  Includes the
    wavefront-curvature and Gouy phases away from the waist plane.  At p = 0
    and z = 0 it checks ``modes.TransverseMode.sample``.
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


@dataclass(frozen=True)
class SuperpositionMode(FieldMode):
    """Bloch-sphere superposition of opposite-helicity LG modes (p = 0).

    cos(theta/2) |+ell> + e^{i phase} sin(theta/2) |-ell>, with the north and
    south poles mapping to |+ell> and |-ell>.  theta = pi/2 gives the
    equal-weight petal modes used for the rotated analyzer holograms, the
    rows of ``experiments.analyzer_kets``.
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
class SectorMode(FieldMode):
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


def mode_overlap(a: FieldMode, b: FieldMode, grid: PolarGrid | None = None) -> complex:
    """Inner product <a|b> over the transverse plane, including offsets."""
    if abs(a.geometry.wavelength - b.geometry.wavelength) > 1e-15 * a.geometry.wavelength:
        raise ValueError("modes must share a wavelength")
    if grid is None:
        grid = default_grid(a.geometry.spot_size, b.geometry.spot_size)
    return integrate_polar(np.conj(a.sample(grid)) * b.sample(grid), grid)


def coincidence_amplitude(signal: FieldMode, idler: FieldMode,
                          pump: PumpSpec | FieldMode, grid: PolarGrid | None = None) -> complex:
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


def offset_joint(pump: PumpSpec, gamma: float, ell_max: int, signal_offset,
                 grid: PolarGrid | None = None) -> np.ndarray:
    """The offset joint matrix of ``spdc.build_state``, on a polar grid.

    The same overlaps, normalizations and matrix product, but every integral
    is a sum over one brute-force grid (65,536 nodes by default) in place of
    the library's three exact Gauss rules.
    """
    w_meas = pump.waist / gamma
    if grid is None:
        grid = default_grid(pump.waist, w_meas)
    weights = grid.weights.ravel()
    u_p = TransverseMode(pump.waist, 0).sample(grid)[0]

    def sampled(offset):
        rows = TransverseMode(w_meas, ell_max, offset).sample(grid)
        return rows, np.abs(rows) ** 2 @ (np.abs(u_p) ** 2 * weights)

    u_s, d_s = sampled(signal_offset)
    u_i, d_i = sampled((0.0, 0.0))
    joint = (np.conj(u_s) * (u_p * weights)) @ np.conj(u_i).T / np.outer(d_s, d_i) ** 0.25
    return joint / np.linalg.norm(joint)


def analyzer_ket(ell: int, theta: float) -> np.ndarray:
    """Ket of the two-lobed analyzer rotated by theta over {|+ell>, |-ell>}.

    Rotating the hologram by theta advances the relative phase between the
    two helicities by 2 ell theta.
    """
    return np.array([1.0, np.exp(2j * ell * theta)]) / math.sqrt(2.0)


def bell_probability(state, ell: int, theta_a: float, theta_b: float) -> float:
    """Joint projection probability onto rotated analyzers for one orientation pair.

    Built from the state's pair amplitudes of |ell, -ell> and |-ell, ell>,
    normalized over the two, one orientation at a time.  Checks the array
    ``experiments.bell_probability`` on aligned states.
    """
    pair = state.amplitudes[state.index_of(np.array([ell, -ell]))]
    a_plus, a_minus = pair / np.linalg.norm(pair)
    va = analyzer_ket(ell, theta_a)
    vb = analyzer_ket(ell, theta_b)
    amp = a_plus * np.conj(va[0]) * np.conj(vb[1]) + a_minus * np.conj(va[1]) * np.conj(vb[0])
    return float(abs(amp) ** 2)


def tomography_probabilities(arm_kets, rho) -> np.ndarray:
    """Re <ab| rho |ab> for every pair of arm kets (a, b), a varying slowest.

    One explicit kron product and one matrix-vector product per setting.
    Checks ``tomography.born_probabilities`` on ``experiments.tomography_settings``.
    """
    rho = np.asarray(rho, dtype=complex)
    probs = []
    for ket_a in arm_kets:
        for ket_b in arm_kets:
            ket = np.kron(ket_a, ket_b)
            probs.append(float(np.real(np.conj(ket) @ rho @ ket)))
    return np.array(probs)


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
