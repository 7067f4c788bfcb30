"""Independent reference implementations that the tests check shipped paths against.

None of these is used by the library.  Each one computes a quantity a second
way: by quadrature on a brute-force polar grid or by the Gaussian moments in
exact rational arithmetic where the library uses a closed form, by the
general Laguerre-Gaussian mode (any radial index, any propagation distance,
one mode at a time) where the library samples the p = 0 modes at the waist
by recurrence, one setting at a time where the library forms the rates of
all settings as one array, one numpy Generator per count where the library
runs every count's random stream in lockstep, by brute-force evaluation
where the library uses a frozen table, by the general Uhlmann fidelity
through a matrix square root where the library applies the Born rule to a
pure target, or by projected gradient on the convex tomography problem where
the library runs L-BFGS on its Cholesky factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from oamsim.modes import TransverseMode, sector_shape
from oamsim.tomography import _arm_design, _born, _realign

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
    complex x + i y, the form ``modes.TransverseMode.sample`` takes.
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


def sector_coefficients(beta, width: float, ells) -> np.ndarray:
    """Azimuthal Fourier coefficients of a sector hologram: c_ell = (width / 2pi)
    sinc(ell * width / 2) exp(-i ell beta), width / 2pi times ``modes.sector_shape``."""
    return (width / (2.0 * math.pi)) * sector_shape(beta, width, ells)


@dataclass(frozen=True)
class SectorMode(FieldMode):
    """Angular-sector ("slice") hologram used for angular-position projections.

    Wedge of angular width ``width`` centered on orientation ``beta``, with a
    Gaussian radial envelope matching the fiber-coupled fundamental mode.
    Analytic normalization: the wedge carries width * w^2 / 4 of envelope
    power.  Checks ``sector_coefficients``.
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
                          pump: FieldMode, grid: PolarGrid | None = None) -> complex:
    """Normalized two-photon projection amplitude at the crystal plane.

    The magnitude squared is the relative coincidence rate: the squared
    overlap of the back-projected signal and idler modes with the pump,
    normalized by the individual signal-pump and idler-pump overlaps.  One
    mode pair at a time, so it checks ``spdc.build_state`` entry by entry,
    aligned and offset.
    """
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


def offset_joint(pump_waist: float, gamma: float, ell_max: int, signal_offset,
                 grid: PolarGrid | None = None) -> np.ndarray:
    """The offset joint matrix of ``spdc.build_state``, on a polar grid.

    The same overlaps and normalizations as one matrix product, every integral
    a sum over one brute-force grid (65,536 nodes by default) in place of the
    library's closed form, and every length (the pump waist,
    the measurement waist pump_waist / gamma and the (dx, dy) signal offset)
    is in one unit of the caller's choice, not in measurement waists.
    """
    w_meas = pump_waist / gamma
    if grid is None:
        grid = default_grid(pump_waist, w_meas)
    weights = grid.weights.ravel()
    u_p = TransverseMode(pump_waist, 0).sample(grid)[0]

    def sampled(offset):
        rows = TransverseMode(w_meas, ell_max, offset).sample(grid)
        return rows, np.abs(rows) ** 2 @ (np.abs(u_p) ** 2 * weights)

    u_s, d_s = sampled(signal_offset)
    u_i, d_i = sampled((0.0, 0.0))
    joint = (np.conj(u_s) * (u_p * weights)) @ np.conj(u_i).T / np.outer(d_s, d_i) ** 0.25
    return joint / np.linalg.norm(joint)


def exact_offset_joint(gamma: Fraction, ell_max: int, offset_waists: Fraction) -> np.ndarray:
    """The joint matrix of ``spdc.build_state`` from the Gaussian moments, in exact arithmetic.

    gamma and the signal offset d are rationals, every length in measurement
    waists.  Each overlap is shifted to the centre c of its Gaussian
    e^{-a |w|^2} and its two polynomial factors, (w + alpha)^m or
    (conj(w) + alpha)^m, are expanded term by term; the moments
    int w^j conj(w)^k e^{-a |w|^2} d^2w = delta_jk pi j! / a^{j+1} leave a
    finite sum of rationals.  The joint overlap has a = 2 + 1 / gamma^2 and
    c = d / a, the signal-pump and idler-pump overlaps a' = 2 + 2 / gamma^2
    and c = 2 d / a' or 0.  Factors shared by every entry are dropped, each
    entry's fourth power relative to the largest is a Fraction, and only its
    fourth root and the normalization are taken in float.
    """

    def moment(inv_a, alpha, m, beta, n, crossed):
        # int e^{-a |w|^2} (v + alpha)^m (v' + beta)^n d^2w * a / pi, where v'
        # is conj(v) when crossed and v otherwise: only w^j conj(w)^j survives
        if not crossed:
            return alpha**m * beta**n
        return sum(math.comb(m, j) * math.comb(n, j) * math.factorial(j) * alpha ** (m - j) * beta ** (n - j)
                   * inv_a**j for j in range(min(m, n) + 1))

    d = Fraction(offset_waists)
    inv_a, inv_a_pump = 1 / (2 + 1 / gamma**2), 1 / (2 + 2 / gamma**2)
    shift = 2 * d * inv_a_pump - d
    ms = range(ell_max + 1)
    d_s = [2**m * moment(inv_a_pump, shift, m, shift, m, True) / math.factorial(m) for m in ms]
    d_i = [2**n * moment(inv_a_pump, 0, n, 0, n, True) / math.factorial(n) for n in ms]
    # the entry at |ell_s| = m, |ell_i| = n, and its fourth power; conj(u_ell)
    # carries conj(w)^|ell| for ell >= 0 and w^|ell| for ell < 0
    fourth = {}
    for m, n, crossed in itertools.product(ms, ms, (False, True)):
        amp = moment(inv_a, d * inv_a - d, m, d * inv_a, n, crossed)
        fourth[m, n, crossed] = (amp, 2 ** (2 * (m + n)) * amp**4
                                 / ((math.factorial(m) * math.factorial(n)) ** 2 * d_s[m] * d_i[n]))
    largest = max(f for _, f in fourth.values())
    # int / int rounds correctly without reducing the fraction first
    entry = {key: (-1 if amp < 0 else 1) * (f.numerator * largest.denominator
                                            / (f.denominator * largest.numerator)) ** 0.25
             for key, (amp, f) in fourth.items()}
    ells = range(-ell_max, ell_max + 1)
    joint = np.array([[entry[abs(ls), abs(li), (ls >= 0) != (li >= 0)] for li in ells] for ls in ells])
    return joint / np.linalg.norm(joint)


def analyzer_ket(ell: int, theta: float) -> np.ndarray:
    """Ket of the two-lobed analyzer rotated by theta over {|+ell>, |-ell>}.

    Rotating the hologram by theta advances the relative phase between the
    two helicities by 2 ell theta.
    """
    return np.array([1.0, np.exp(2j * ell * theta)]) / math.sqrt(2.0)


def bell_probability(joint, ell: int, theta_a: float, theta_b: float) -> float:
    """Joint projection probability onto rotated analyzers for one orientation pair.

    Built from the pair amplitudes of |ell, -ell> and |-ell, ell> in the joint
    matrix over ells = -ell_max, ..., ell_max, normalized over the two, one
    orientation at a time.  Checks ``experiments.analyzer_rates`` on the Bell
    rows, ``experiments.analyzer_kets`` on the normalized {|+ell>, |-ell>}
    block, on aligned states.
    """
    m = len(joint) // 2
    i, j = m + ell, m - ell
    pair = np.array([joint[i, j], joint[j, i]])
    a_plus, a_minus = pair / np.linalg.norm(pair)
    va = analyzer_ket(ell, theta_a)
    vb = analyzer_ket(ell, theta_b)
    amp = a_plus * np.conj(va[0]) * np.conj(vb[1]) + a_minus * np.conj(va[1]) * np.conj(vb[0])
    return float(abs(amp) ** 2)


def tomography_probabilities(arm_kets, rho) -> np.ndarray:
    """Re <ab| rho |ab> for every pair of arm kets (a, b), a varying slowest.

    One explicit kron product and one matrix-vector product per setting.
    Checks the (m, m) arrays on the arm kets of ``experiments.arm_projectors``
    that are this list in C order: ``tomography._born`` for any rho, and
    ``experiments.analyzer_rates`` at unit pair rate for a pure rho.
    """
    rho = np.asarray(rho, dtype=complex)
    probs = []
    for ket_a in arm_kets:
        for ket_b in arm_kets:
            ket = np.kron(ket_a, ket_b)
            probs.append(float(np.real(np.conj(ket) @ rho @ ket)))
    return np.array(probs)


def joint_design(arm_kets) -> np.ndarray:
    """The (m^2, d^4) joint design: row a * m + b is vec(|ab><ab|)^*, |ab> = |a> (x) |b>
    by explicit kron.

    Its rank, d^4 for informationally complete settings, is what
    ``test_informationally_complete`` checks; the library never forms it.
    """
    kets = [np.kron(ket_a, ket_b) for ket_a, ket_b in itertools.product(arm_kets, repeat=2)]
    return np.array([np.outer(ket, ket.conj()).conj().ravel() for ket in kets])


def fista_reconstruct(counts, kets, d: int, tolerance: float = 1e-12,
                      max_iterations: int = 10000):
    """The convex problem ``tomography.reconstruct`` solves in its factored form:
    minimize chi^2 = sum_ab (C_ab - <ab|sigma|ab>)^2 / (C_ab + 1) over the
    positive-semidefinite sigma itself.

    Accelerated projected gradient with adaptive restart (FISTA; Beck &
    Teboulle, SIAM J. Imaging Sci. 2, 183, 2009), from the same start as the
    library: the linear inversion pinv(P) C pinv(P)^T, realigned, clipped to
    the cone and scaled by its best flux.  The step 1/(2 G) backtracks both
    ways: G doubles, the step redone and not counted, while
    sum W (A step)^2 > G |step|^2, an exact test of sufficient decrease on a
    quadratic, and shrinks by 0.95 after each accepted step (Scheinberg,
    Goldfarb & Bai, Found. Comput. Math. 14, 389, 2014).  The projection clips
    eigenvalues (Smolin, Gambetta & Smith, PRL 108, 070502, 2012).  It stops
    once a step lowers chi^2 by at most a relative ``tolerance`` (converged)
    or after ``max_iterations`` steps.  Returns (sigma, chi^2, steps, converged).
    """
    m = len(kets)
    dim = d * d
    design = _arm_design(kets)
    counts = np.asarray(counts, dtype=float).reshape(m, m)
    w2 = 1.0 / (counts + 1.0)
    perm = _realign(np.arange(dim * dim), d)
    design_conj = design.conj()

    def chi_squared(p):
        return float((w2 * (counts - p) ** 2).sum())

    def descent(p):
        # minus half the chi^2 gradient at rates p; the step 1/L is 1/(2 G)
        return (design_conj.T @ (w2 * (counts - p)) @ design_conj).ravel()[perm]

    def project(sigma):
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
        return (v * np.maximum(w, 0.0)) @ v.conj().T

    pinv = np.linalg.pinv(design)
    x = project(_realign(pinv @ counts @ pinv.T, d))
    p_x = _born(design, x.ravel()[perm])
    denom = np.sum(w2 * p_x**2)
    scale = np.sum(w2 * counts * p_x) / denom if denom > 0 else 0.0
    x, p_x = x * scale, p_x * scale
    chi2 = chi_squared(p_x)
    g = descent(p_x)  # g = 0 only at an optimal start, where any G will do
    gram = np.sum(w2 * _born(design, g.ravel()[perm]) ** 2) / np.vdot(g, g).real if g.any() else 1.0
    # the rates are linear in sigma, so those at y and x_next follow from steps' rates
    y, p_y, t = x, p_x, 1.0
    iterations, converged = 0, False
    while iterations < max_iterations and not converged:
        x_next = project(y + descent(p_y) / gram)
        step = x_next - y
        p_step = _born(design, step.ravel()[perm])
        if np.vdot(p_step, w2 * p_step) > gram * np.vdot(step, step).real:
            gram *= 2.0  # the step overshot chi^2, a quadratic: redo it from y
            continue
        iterations += 1
        gram *= 0.95
        p_next = p_y + p_step
        chi2_next = chi_squared(p_next)
        if chi2_next > chi2 and t > 1.0:
            # momentum overshot: restart from the last iterate
            y, p_y, t = x, p_x, 1.0
            continue
        converged = chi2 - chi2_next <= tolerance * chi2
        if chi2_next <= chi2:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = x_next + beta * (x_next - x)
            p_y = p_next + beta * (p_next - p_x)
            x, p_x, chi2, t = x_next, p_next, chi2_next, t_next
    return x, chi2, iterations, converged


def per_setting_counts(ideal_rates, model, seed: int) -> np.ndarray:
    """Poisson counts shaped like ideal_rates, one numpy Generator per setting.

    The count at flat position k is ``default_rng([seed, k]).poisson(mean)``
    with mean (efficiency_sq * rate + accidental_rate) * integration_s of the
    ``spdc.CountModel`` ``model``.  Checks ``spdc.sample_counts``, which
    evaluates every stream at once.
    """
    rates = np.asarray(ideal_rates, dtype=float)
    means = (model.efficiency_sq * rates + model.accidental_rate) * model.integration_s
    counts = [np.random.default_rng([seed, k]).poisson(mean)
              for k, mean in enumerate(means.ravel().tolist())]
    return np.array(counts, dtype=np.int64).reshape(rates.shape)


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


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, in [0, 1].

    Holds for any two states; for a pure one it reduces to <psi|rho|psi>,
    the Born rule by which ``oamsim tomo`` reports ``fidelity_vs_target``.
    """
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("states must share a dimension")
    root = psd_sqrt(a)
    inner = root @ b @ root
    w, _ = hermitian_eigen(0.5 * (inner + inner.conj().T))
    w = np.clip(w, 0.0, None)
    # eigenvalues at round-off scale are square-root amplified; zero them so
    # rank-deficient (e.g. pure) states keep full precision
    if w[0] > 0:
        w[w < 1e-13 * w[0]] = 0.0
    value = float(np.sum(np.sqrt(w)) ** 2)
    return min(max(value, 0.0), 1.0)


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
    optimal Fourier-basis measurements, summed from the outcome
    probabilities.  Checks the closed form of
    ``tomography.bell_violation_threshold``."""
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
