"""Down-conversion source model: two-photon state, phase matching and counting.

The two-photon state is a plain complex matrix over the orbital angular
momenta ells = -ell_max, ..., ell_max: ``joint[i, j]`` is the amplitude of
|ells[i]>|ells[j]>, with unit total probability; ``restricted_ket`` cuts a
subspace's ket out of it.  Aligned, only the pairs |ell>|-ell> are
populated; a lateral signal offset fills the ones OAM conservation forbids.
It pairs a Gaussian pump with p = 0 Laguerre-Gaussian measurement modes at
the crystal plane (thin-crystal approximation) and depends on the pump only
through gamma, the pump waist in measurement waists.  The overlaps of the
back-projected modes with the pump are Gaussians times polynomials, so
``build_state`` evaluates one closed form at every lateral signal offset,
the aligned state included.  Crystal length and phase mismatch enter only
through the far-field ring profile.
Coincidence counts are Poisson draws over an array of ideal rates, each count
from a random stream seeded by the run seed and the setting's position in the
array: numpy's ``default_rng([seed, k]).poisson``.  ``numerics.poisson_streams``
runs all of these streams in lockstep as arrays, the same counts bit for
bit; it takes exp and log from the C library through ``math``, as numpy's
sampler does, since numpy's vectorised exp and log can differ from it in the
last bit and flip an acceptance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .numerics import poisson_streams


@dataclass(frozen=True)
class CrystalConfig:
    """Nonlinear crystal and Fourier-lens geometry for the ring profile.

    The pairs are degenerate: each photon has twice the pump wavelength.
    """

    length: float = 3e-3
    refractive_index: float = 1.66
    phase_mismatch: float = 0.0
    pump_wavelength: float = 355e-9
    focal_length: float = 0.5

    def __post_init__(self):
        if self.length <= 0 or self.refractive_index <= 0 or self.focal_length <= 0:
            raise ValueError("crystal length, index and focal length must be positive")
        if self.pump_wavelength <= 0:
            raise ValueError("pump wavelength must be positive")

    @property
    def ring_coefficient(self) -> float:
        """(k_s + k_i) L / (4 n^2), the quadratic coefficient of the ring argument."""
        k = 2.0 * math.pi / (2.0 * self.pump_wavelength)
        return 2.0 * k * self.length / (4.0 * self.refractive_index**2)


@dataclass(frozen=True)
class DetectorConfig:
    """Single-photon detectors and coincidence gating."""

    singles_1: float = 2e4
    singles_2: float = 2e4
    gate_time: float = 12.5e-9
    efficiency: float = 0.6
    integration_time: float = 1.0

    def __post_init__(self):
        if min(self.singles_1, self.singles_2) < 0:
            raise ValueError("count rates must be non-negative")
        if self.gate_time <= 0:
            raise ValueError("gate time must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if not self.integration_time > 0:
            raise ValueError("integration time must be positive")


def _binom(n, k):
    """Binomial coefficients of integer-valued arrays 0 <= k <= n, in floating
    point and rounded step by step as the usual special-function ``binom``
    rounds them: k is reduced to n - k when k > n / 2, then num *= i + n - k
    and den *= i for i = 1, ..., k, and num / den is returned."""
    k = np.where(k > n / 2, n - k, k)
    # step i multiplies by 1, exactly, where i > k
    i = np.arange(1.0, np.max(k, initial=0) + 1).reshape(-1, *[1] * k.ndim)
    return np.prod(np.where(i <= k, i + n - k, 1.0), axis=0) / np.prod(np.where(i <= k, i, 1.0), axis=0)


def _genlaguerre(n, alpha, x: float) -> np.ndarray:
    """Generalised Laguerre polynomials L_n^alpha(x) of integer arrays n, alpha >= 0
    at one point x, shaped like n and alpha broadcast together.

    The recurrence and its order of operations are those of the usual
    special-function ``eval_genlaguerre`` at integer order, whose values it
    gives bit for bit (tests/test_spdc.py): L_0 = 1, L_1 = -x + alpha + 1, and
    otherwise d = -x / (alpha + 1), p = d + 1, then for k = 1, ..., n - 1
    d = -x / (k + alpha + 1) p + k / (k + alpha + 1) d and p = d + p, and
    L_n^alpha = binom(n + alpha, n) p.  One pass of the recurrence over every
    order alpha up to the largest gives every degree up to the largest, as a
    table that n and alpha index.
    """
    orders = np.arange(np.max(alpha, initial=0) + 1.0)
    degrees = np.arange(max(np.max(n, initial=0), 1) + 1.0)[:, None]
    # row k holds k + alpha + 1 over the orders, exact in floating point
    steps = degrees + orders + 1.0
    table = np.ones(steps.shape)
    d = -x / steps[0]
    p = d + 1.0
    for k in range(1, len(degrees) - 1):
        d = -x / steps[k] * p + (k / steps[k]) * d
        table[k + 1] = p = d + p
    table *= _binom(degrees + orders, degrees)
    table[0], table[1] = 1.0, -x + orders + 1.0
    return table[n, alpha]


def build_state(gamma: float, ell_max: int, offset_waists: float = 0.0) -> np.ndarray:
    """Joint OAM matrix of the pair for p = 0 measurement modes, all lengths in measurement waists.

    The measurement modes have waist w = 1 and the Gaussian pump has waist
    w_pump = gamma; the state depends on the pump only through g = 2 gamma^2.
    With the signal modes offset by d = offset_waists along x, coefficient
    (ell_s, ell_i) is the overlap of the back-projected signal and idler modes
    with the pump, divided by the fourth roots of its signal-pump and
    idler-pump overlaps; the offset fills the pairs that OAM conservation
    forbids.  Each overlap is a Gaussian times a polynomial: shifted to the
    Gaussian's centre, it is a finite sum of the moments
    int w^j conj(w)^k e^{-a |w|^2} d^2w = delta_jk pi j! / a^{j+1}.  With
    m = |ell_s|, n = |ell_i|, k = min(m, n) and

        q = sqrt(g (g + 2)) / (g + 1),    kappa = (4 (g + 2))^(1/4) / (2 (g + 1)),
        s = -d g^(-1/4) (g + 2) kappa,    t = d g^(3/4) kappa,
        x = d^2 (g + 2) / (2 (g + 1)),    y = 8 d^2 / (g (g + 2)),

    the coefficient is T / sqrt(m! n!) / L_m(-y)^(1/4), where T = s^m t^n when
    ell_s ell_i > 0 and otherwise T = s^(m-n) or t^(n-m), whichever power is
    non-negative, times q^k k! L_k^(|m-n|)(x).  L are the generalised Laguerre
    polynomials, evaluated by ``_genlaguerre``, their three-term recurrence in
    the normalised form that ``eval_genlaguerre`` of the special-function
    libraries uses.  At d = 0 only T = q^|ell| on the anti-diagonal survives:
    the aligned closed form (Torres et al., PRA 68, 050301, 2003; Miatto, Yao &
    Barnett, PRA 83, 033816, 2011).  Written in g rather than 1 / gamma^2, and
    with s and y set to 0 at d = 0, it is finite for every gamma > 0.  The
    matrix is normalized to unit total probability; ValueError is raised
    rather than a matrix returned that is not finite and normalized.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0 <= ell_max <= 20:
        raise ValueError("ell_max must lie in [0, 20]")
    g, d = 2.0 * gamma * gamma, offset_waists
    q = math.sqrt(g * (g + 2.0)) / (g + 1.0)
    kappa = (4.0 * (g + 2.0)) ** 0.25 / (2.0 * (g + 1.0))
    s = (d and -d / g**0.25) * (g + 2.0) * kappa
    t = d * g**0.75 * kappa
    x = d * d * (g + 2.0) / (2.0 * (g + 1.0))
    y = d and 8.0 * d * d / (g * (g + 2.0))
    ells = np.arange(-ell_max, ell_max + 1)
    m, n = np.abs(ells)[:, None], np.abs(ells)[None, :]
    k, gap = np.minimum(m, n), np.abs(m - n)
    factorial = np.cumprod(np.r_[1.0, np.arange(1.0, ell_max + 1)])
    crossed = np.where(m >= n, s, t) ** gap * q**k * factorial[k] * _genlaguerre(k, gap, x)
    joint = np.where(np.outer(ells, ells) > 0, s**m * t**n, crossed)
    joint /= np.sqrt(factorial[m] * factorial[n]) * _genlaguerre(m, 0, -y) ** 0.25
    joint = (joint / np.linalg.norm(joint)).astype(complex)
    if not abs(np.sum(np.abs(joint) ** 2) - 1.0) <= 1e-10:
        raise ValueError("state norm is not 1: the closed form overflowed or underflowed")
    return joint


def ell_index(joint: np.ndarray, ells) -> np.ndarray:
    """Positions of ``ells`` along either axis of ``joint``; raises ValueError outside its window."""
    ells = np.asarray(ells)
    m = len(joint) // 2
    if np.any(np.abs(ells) > m):
        raise ValueError(f"ell={ells} not in state support")
    return ells + m


def restricted_ket(joint: np.ndarray, ell_values) -> np.ndarray:
    """Joint ket over the subspace spanned by ell_values in each arm.

    Index order matches kron: entry i*d + j is |ell_values[i]>_signal
    |ell_values[j]>_idler.  Normalized over the subspace.  With
    ell_values = [ell, -ell] it is the sector that the Bell analyzers see.
    """
    idx = ell_index(joint, list(ell_values))
    ket = joint[np.ix_(idx, idx)].ravel()
    norm = np.linalg.norm(ket)
    if norm == 0:
        raise ValueError("state has no support on the requested subspace")
    return ket / norm


def maximally_entangled_ket(ell_values) -> np.ndarray:
    """|Phi> = sum_i |ell_values[i]>|-ell_values[i]> / sqrt(d) in the index order
    of ``restricted_ket``: the state the isotropic thresholds are stated for.
    Raises ValueError unless ell_values is closed under negation."""
    ells = list(ell_values)
    d = len(ells)
    ket = np.zeros(d * d, dtype=complex)
    ket[np.arange(d) * d + [ells.index(-ell) for ell in ells]] = 1.0 / math.sqrt(d)
    return ket


def sinc_ring_profile(r, config: CrystalConfig):
    """Far-field intensity profile sinc^2(a r^2 / f^2 + alpha).

    Unnormalized sinc convention sin(x)/x so the phase-mismatch offset is
    additive inside the argument; negative mismatch opens the emission ring.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be non-negative")
    x = config.ring_coefficient * r**2 / config.focal_length**2 + config.phase_mismatch
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz]
    result = out**2
    return result if result.ndim else float(result)


def transverse_mode_count(area: float, solid_angle: float, wavelength: float) -> float:
    """Etendue-limited number of detectable transverse modes: A * Omega / lambda^2."""
    if area <= 0 or solid_angle <= 0 or wavelength <= 0:
        raise ValueError("area, solid angle and wavelength must be positive")
    return area * solid_angle / wavelength**2


def accidentals(det: DetectorConfig) -> float:
    """Uncorrelated coincidence rate S1 * S2 * gate_time (counts/second)."""
    return det.singles_1 * det.singles_2 * det.gate_time


def sample_counts(ideal_rates, det: DetectorConfig, seed: int) -> np.ndarray:
    """Poisson-sampled coincidence counts, an integer array shaped like ``ideal_rates``.

    Each mean is (efficiency^2 * ideal_rate + accidental rate) * integration
    time; one efficiency factor per detector.  The count at flat C-order
    position k is ``default_rng([seed, k]).poisson(mean)``, so it depends only
    on the seed, k and its own rate, not on the other settings or on
    evaluation order.  ``numerics.poisson_streams`` evaluates all of these
    streams at once as arrays, bit for bit; its exp and log come from the C
    library, as in numpy's own sampler, because numpy's vectorised exp and log
    may differ in the last bit and flip a rejection test.
    """
    rates = np.asarray(ideal_rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("ideal rates must be non-negative")
    means = (det.efficiency**2 * rates + accidentals(det)) * det.integration_time
    return poisson_streams(means.ravel(), seed).reshape(rates.shape)
