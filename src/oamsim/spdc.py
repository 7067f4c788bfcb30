"""Down-conversion source model: two-photon state, phase matching and counting.

The two-photon state over the orbital-angular-momentum basis pairs a Gaussian
pump with p = 0 Laguerre-Gaussian measurement modes at the crystal plane
(thin-crystal approximation).  Aligned, the amplitudes are known in closed
form.  A lateral signal offset needs the overlaps of the back-projected modes
with the pump; each integrand is a Gaussian times a polynomial, which three
small exact rules (``numerics.GaussPolarRule``) integrate without a grid, and
the joint overlaps are one matrix product.  Crystal length and phase
mismatch enter only through the far-field ring profile.  Coincidence counts
are Poisson draws over an array of ideal rates, each count from a random
stream seeded by the run seed and the setting's position in the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import TransverseMode
from .numerics import GaussPolarRule


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
class PumpSpec:
    """Gaussian pump beam at the crystal plane."""

    waist: float = 1.0

    def __post_init__(self):
        if self.waist <= 0:
            raise ValueError("pump waist must be positive")


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
        if self.integration_time < 0:
            raise ValueError("integration time must be non-negative")


@dataclass(frozen=True)
class TwoPhotonState:
    """Joint OAM state of the photon pair over ells = -ell_max, ..., ell_max.

    ``amplitudes[i]`` is the coefficient of |ells[i]>|-ells[i]>.  ``joint[i, j]``
    is the coefficient of |ells[i]>|ells[j]>; it defaults to the anti-diagonal
    matrix of the amplitudes.  When lateral misalignment relaxes OAM
    conservation it also holds the conservation-forbidden pairs, and the
    amplitudes are its anti-diagonal.
    """

    ells: np.ndarray
    amplitudes: np.ndarray
    joint: np.ndarray | None = None

    def __post_init__(self):
        ells = np.asarray(self.ells, dtype=int)
        amps = np.asarray(self.amplitudes, dtype=complex)
        m = len(ells) // 2
        if not np.array_equal(ells, np.arange(-m, m + 1)):
            raise ValueError("ells must run from -ell_max to ell_max in steps of one")
        if ells.shape != amps.shape:
            raise ValueError("ells and amplitudes must have matching shapes")
        joint = np.fliplr(np.diag(amps)) if self.joint is None else np.asarray(self.joint, dtype=complex)
        if joint.shape != (len(ells), len(ells)):
            raise ValueError("joint must be square over ells")
        total = np.sum(np.abs(joint) ** 2)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"state norm {total} is not 1")
        object.__setattr__(self, "ells", ells)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "joint", joint)

    def index_of(self, ell):
        """Position of ell in ``ells``; elementwise for an array of ells."""
        ell = np.asarray(ell)
        m = len(self.ells) // 2
        if np.any(np.abs(ell) > m):
            raise ValueError(f"ell={ell} not in state support")
        return ell + m

    def restricted_ket(self, ell_values) -> np.ndarray:
        """Joint ket over the subspace spanned by ell_values in each arm.

        Index order matches kron: entry i*d + j is |ell_values[i]>_signal
        |ell_values[j]>_idler.  Normalized over the subspace.  With
        ell_values = [ell, -ell] it is the sector that the Bell analyzers see.
        """
        idx = self.index_of(list(ell_values))
        ket = self.joint[np.ix_(idx, idx)].ravel()
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise ValueError("state has no support on the requested subspace")
        return ket / norm


def build_state(pump: PumpSpec, gamma: float, ell_max: int,
                signal_offset: tuple[float, float] = (0.0, 0.0)) -> TwoPhotonState:
    """Two-photon OAM state for p = 0 measurement modes with waist w = w_pump / gamma.

    Aligned, the pair amplitudes are the closed form q^|ell| with
    q = sqrt(g (g + 2)) / (g + 1) and g = 2 gamma^2 (Torres et al., PRA 68,
    050301, 2003; Miatto, Yao & Barnett, PRA 83, 033816, 2011), normalized to
    unit total probability.  With a nonzero lateral signal offset d the full
    (ell_s, ell_i) coefficient matrix is the overlap of the back-projected
    signal and idler modes with the pump, each pair normalized by its
    signal-pump and idler-pump overlaps; it captures misalignment crosstalk
    into conservation-forbidden pairs.  Each of the three integrands is a
    Gaussian times a polynomial of degree at most 2 ell_max, integrated
    exactly by a ``GaussPolarRule`` for its Gaussian: the joint overlaps by
    rate a = 2 / w^2 + 1 / w_pump^2 centred at d / (w^2 a), the signal-pump
    overlaps by a' = 2 / w^2 + 2 / w_pump^2 centred at 2 d / (w^2 a') and the
    idler-pump overlaps by a' centred at the origin.  Each arm is sampled
    once per rule, and the joint matrix is one product of the two arms'
    sample arrays.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0 <= ell_max <= 20:
        raise ValueError("ell_max must lie in [0, 20]")
    ells = np.arange(-ell_max, ell_max + 1)
    if signal_offset == (0.0, 0.0):
        g = 2.0 * gamma * gamma
        amps = (math.sqrt(g * (g + 2.0)) / (g + 1.0)) ** np.abs(ells)
        return TwoPhotonState(ells=ells, amplitudes=amps / np.linalg.norm(amps))
    w_meas = pump.waist / gamma

    def sampled(a, shift, offset):
        # the rule for rate a centred at shift * offset, with the modes centred
        # at offset and the pump sampled at its nodes
        rule = GaussPolarRule(a, (shift * offset[0], shift * offset[1]), ell_max)
        return (rule, TransverseMode(w_meas, ell_max, offset).sample(rule),
                TransverseMode(pump.waist, 0).sample(rule)[0])

    def denominators(offset):
        # overlaps of |u_ell|^2 with |u_p|^2, one per ell, for modes centred at offset
        a = 2.0 / w_meas**2 + 2.0 / pump.waist**2
        rule, rows, u_p = sampled(a, 2.0 / (w_meas**2 * a), offset)
        denoms = np.abs(rows) ** 2 @ (np.abs(u_p) ** 2 * rule.weights)
        if denoms.min() <= 0:
            raise ValueError("degenerate mode choice: a measurement mode has no overlap with the pump")
        return denoms

    a = 2.0 / w_meas**2 + 1.0 / pump.waist**2
    rule, u_s, u_p = sampled(a, 1.0 / (w_meas**2 * a), signal_offset)
    u_i = TransverseMode(w_meas, ell_max).sample(rule)
    joint = (np.conjugate(u_s) * (u_p * rule.weights)) @ np.conjugate(u_i).T
    joint /= np.outer(denominators(signal_offset), denominators((0.0, 0.0))) ** 0.25
    joint /= np.linalg.norm(joint)
    return TwoPhotonState(ells=ells, amplitudes=np.fliplr(joint).diagonal(), joint=joint)


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
    position k is drawn from the stream ``default_rng([seed, k])``, so it
    depends only on the seed, k and its own rate, not on the other settings
    or on evaluation order.
    """
    rates = np.asarray(ideal_rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("ideal rates must be non-negative")
    means = (det.efficiency**2 * rates + accidentals(det)) * det.integration_time
    counts = [np.random.default_rng([seed, k]).poisson(mean)
              for k, mean in enumerate(means.ravel().tolist())]
    return np.array(counts, dtype=np.int64).reshape(rates.shape)
