"""Down-conversion source model: two-photon state, phase matching and counting.

The two-photon state is a plain complex matrix over the orbital angular
momenta ells = -ell_max, ..., ell_max: ``joint[i, j]`` is the amplitude of
|ells[i]>|ells[j]>, with unit total probability; ``restricted_ket`` cuts a
subspace's ket out of it.  Either is the J of the one rate kernel, every
ideal rate pair_rate |A* J B*^T|^2 (``experiments.analyzer_rates``) with
the analyzer kets as rows of A and B.  Aligned, only the pairs |ell>|-ell> are
populated; a lateral signal offset fills the ones OAM conservation forbids.
It pairs a Gaussian pump with p = 0 Laguerre-Gaussian measurement modes at
the crystal plane (thin-crystal approximation) and depends on the pump only
through gamma, the pump waist in measurement waists.  The overlaps of the
back-projected modes with the pump are Gaussians times polynomials, so
``build_state`` evaluates one closed form at every lateral signal offset,
the aligned state included.  Crystal length and phase mismatch enter only
through the far-field ring profile, computed like the mode count in mm and nm.
Coincidence counts are Poisson draws over an array of ideal rates, each count
from a random stream seeded by the run seed and the setting's position in the
array: numpy's ``default_rng([seed, k]).poisson``, drawn by
``numerics.poisson_streams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .numerics import poisson_streams

# the largest ell_max of a state: the offset closed form is checked against
# exact rational arithmetic up to this window (tests/test_spdc.py)
ELL_WINDOW_CAP = 20


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


def _normalised_laguerre(points, size: int) -> np.ndarray:
    """Table M[i, k, a] = L_k^a(points[i]) / sqrt(C(k + a, k)) for 0 <= k, a < size.

    L_k^a are the generalised Laguerre polynomials, and C(k + a, k) = L_k^a(0).
    So scaled, they obey M_0 = 1 and a recurrence with no j! to overflow,

        M_{k+1} = ((2k + 1 + a - x) M_k - sqrt(k (k + a)) M_{k-1}) / sqrt((k + 1) (k + 1 + a)),

    carried in the step D_k = M_k - r_k M_{k-1}, r_k = sqrt((k + a) / k), D_0 = 0:

        D_{k+1} = r_{k+1} (k D_k - x M_k) / (k + 1 + a),    M_{k+1} = r_{k+1} M_k + D_{k+1}.

    Evaluated as written, the three-term form cancels near a root of L_k^a at
    small x and loses about a digit more (tests/test_spdc.py, the exact-moment
    case at gamma = 1 and 0.35 waists).  One pass over the degrees k fills
    every order a at every point.
    """
    x = np.asarray(points, dtype=float)[:, None]
    orders = np.arange(float(size))
    # row k holds k + 1 + a and r_{k+1} over the orders a
    sums = orders[:, None] + 1.0 + orders
    ratios = np.sqrt(sums / (orders[:, None] + 1.0))
    table = np.ones((len(x), size, size))
    d = 0.0
    for k in range(size - 1):
        d = ratios[k] * (k * d - x * table[:, k]) / sums[k]
        table[:, k + 1] = ratios[k] * table[:, k] + d
    return table


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

    the coefficient is P / M_m^0(-y)^(1/4), where P = S_m T_n when
    ell_s ell_i > 0 and otherwise P = S_(m-n) or T_(n-m), whichever index is
    non-negative, times q^k M_k^(|m-n|)(x).  Here S_j = s^j / sqrt(j!) and
    T_j = t^j / sqrt(j!) are running products, and M_k^a = L_k^a /
    sqrt(C(k + a, k)) are the generalised Laguerre polynomials in the
    normalised form of ``_normalised_laguerre``; the j! of the overlaps
    cancel into these two.  At d = 0 only P = q^|ell| on the
    anti-diagonal survives: the aligned closed form (Torres et al., PRA 68,
    050301, 2003; Miatto, Yao & Barnett, PRA 83, 033816, 2011).  Written in g
    rather than 1 / gamma^2, and with s and y set to 0 at d = 0, it is finite
    for every gamma > 0.  The matrix is normalized to unit total probability;
    ValueError is raised rather than a matrix returned that is not finite and
    normalized.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0 <= ell_max <= ELL_WINDOW_CAP:
        raise ValueError(f"ell_max must lie in [0, {ELL_WINDOW_CAP}]")
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
    roots = np.sqrt(np.arange(1.0, ell_max + 1))
    s_powers, t_powers = np.cumprod(np.r_[1.0, s / roots]), np.cumprod(np.r_[1.0, t / roots])
    at_x, at_minus_y = _normalised_laguerre([x, -y], ell_max + 1)
    crossed = np.where(m >= n, s_powers[gap], t_powers[gap]) * q**k * at_x[k, gap]
    joint = np.where(np.outer(ells, ells) > 0, s_powers[m] * t_powers[n], crossed)
    joint /= at_minus_y[m, 0] ** 0.25
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


def sinc_ring_profile(r_mm, focal_length_mm: float, crystal_length_mm: float, pump_wavelength_nm: float,
                      refractive_index: float, phase_mismatch: float = 0.0):
    """Far-field intensity sinc^2(a (r/f)^2 + alpha), sinc x = sin(x) / x, at radii r_mm behind a lens.

    f is its focal length and a = (k_s + k_i) L / (4 n^2) = pi 1e6 L_mm / (2 lambda_nm n^2), each photon at
    twice the pump wavelength lambda.  A negative phase mismatch alpha opens the emission ring.
    """
    r_mm = np.asarray(r_mm, dtype=float)
    if np.any(r_mm < 0) or min(focal_length_mm, crystal_length_mm, pump_wavelength_nm, refractive_index) <= 0:
        raise ValueError("radius must be non-negative; lengths, wavelength and index positive")
    a = math.pi * 1e6 * crystal_length_mm / (2.0 * pump_wavelength_nm * refractive_index**2)
    return np.sinc((a * (r_mm / focal_length_mm) ** 2 + phase_mismatch) / math.pi) ** 2


def transverse_mode_count(area_mm2: float, solid_angle_sr: float, wavelength_nm: float) -> float:
    """Etendue-limited number of detectable transverse modes A Omega / lambda^2, A in mm^2 and lambda in nm."""
    if area_mm2 <= 0 or solid_angle_sr <= 0 or wavelength_nm <= 0:
        raise ValueError("area, solid angle and wavelength must be positive")
    return 1e12 * area_mm2 * solid_angle_sr / wavelength_nm**2


def accidentals(det: DetectorConfig) -> float:
    """Uncorrelated coincidence rate S1 * S2 * gate_time (counts/second)."""
    return det.singles_1 * det.singles_2 * det.gate_time


def sample_counts(ideal_rates, det: DetectorConfig, seed: int) -> np.ndarray:
    """Poisson-sampled coincidence counts, an integer array shaped like ``ideal_rates``.

    Each mean is (efficiency^2 * ideal_rate + accidental rate) * integration
    time; one efficiency factor per detector.  The count at flat C-order
    position k is ``default_rng([seed, k]).poisson(mean)``, so it depends only
    on the seed, k and its own rate, not on the other settings or on
    evaluation order; ``numerics.poisson_streams`` draws them.
    """
    rates = np.asarray(ideal_rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("ideal rates must be non-negative")
    means = (det.efficiency**2 * rates + accidentals(det)) * det.integration_time
    return poisson_streams(means.ravel(), seed).reshape(rates.shape)
