"""Down-conversion source model: two-photon state, phase matching and counting.

The two-photon state over the orbital-angular-momentum basis is built from
overlap integrals of back-projected measurement modes with the pump at the
crystal plane (thin-crystal approximation).  Crystal length and phase
mismatch enter only through the far-field ring profile.  Count synthesis
is Poissonian with seed-derived, per-setting random streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import BeamGeometry, LGMode, TransverseMode, default_grid
from .numerics import PolarGrid


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
    """Pump beam: waist plus an optional structured mode (default Gaussian)."""

    waist: float = 1.0
    mode: TransverseMode | None = None

    def __post_init__(self):
        if self.waist <= 0:
            raise ValueError("pump waist must be positive")

    def resolve(self) -> TransverseMode:
        if self.mode is not None:
            return self.mode
        return LGMode(ell=0, p=0, geometry=BeamGeometry(waist=self.waist))


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
class CoincidenceRecord:
    """One measured setting: ideal rate, sampled count, accidental estimate."""

    setting_id: int
    ideal_rate: float
    count: int
    accidental_estimate: float

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("sampled count must be non-negative")


@dataclass(frozen=True)
class TwoPhotonState:
    """Joint OAM state of the photon pair over ells in [-ell_max, ell_max].

    ``amplitudes[i]`` is the coefficient of |ells[i]>|-ells[i]>; when lateral
    misalignment relaxes OAM conservation, ``joint[i, j]`` holds the full
    coefficient of |ells[i]>|ells[j]> and the pair amplitudes are its
    conservation-allowed slice.
    """

    ells: np.ndarray
    amplitudes: np.ndarray
    joint: np.ndarray | None = None

    def __post_init__(self):
        ells = np.asarray(self.ells, dtype=int)
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "ells", ells)
        object.__setattr__(self, "amplitudes", amps)
        if self.joint is not None:
            object.__setattr__(self, "joint", np.asarray(self.joint, dtype=complex))
        if ells.shape != amps.shape:
            raise ValueError("ells and amplitudes must have matching shapes")
        total = np.sum(np.abs(self.joint) ** 2) if self.joint is not None else np.sum(np.abs(amps) ** 2)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"state norm {total} is not 1")

    def index_of(self, ell: int) -> int:
        hits = np.nonzero(self.ells == ell)[0]
        if len(hits) != 1:
            raise ValueError(f"ell={ell} not in state support")
        return int(hits[0])

    def amplitude(self, ell: int) -> complex:
        return complex(self.amplitudes[self.index_of(ell)])

    def joint_matrix(self) -> np.ndarray:
        """Full (ell_s, ell_i) coefficient matrix; anti-diagonal when aligned."""
        if self.joint is not None:
            return self.joint
        n = len(self.ells)
        out = np.zeros((n, n), dtype=complex)
        for i, ell in enumerate(self.ells):
            j = np.nonzero(self.ells == -ell)[0]
            if len(j):
                out[i, int(j[0])] = self.amplitudes[i]
        return out

    def sector_ket(self, ell: int) -> np.ndarray:
        """Normalized two-dimensional ket over {|ell,-ell>, |-ell,ell>}."""
        if ell == 0:
            raise ValueError("sector requires ell != 0")
        pair = np.array([self.amplitude(ell), self.amplitude(-ell)])
        norm = np.linalg.norm(pair)
        if norm == 0:
            raise ValueError(f"state has no support on ells +-{ell}")
        return pair / norm

    def restricted_ket(self, ell_values) -> np.ndarray:
        """Joint ket over the subspace spanned by ell_values in each arm.

        Index order matches kron: entry i*d + j is |ell_values[i]>_signal
        |ell_values[j]>_idler.  Normalized over the subspace.
        """
        ell_values = list(ell_values)
        d = len(ell_values)
        joint = self.joint_matrix()
        ket = np.zeros(d * d, dtype=complex)
        for i, ls in enumerate(ell_values):
            for j, li in enumerate(ell_values):
                ket[i * d + j] = joint[self.index_of(ls), self.index_of(li)]
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise ValueError("state has no support on the requested subspace")
        return ket / norm


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Per-setting random stream: generator seeded from (seed, *stream)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def build_state(pump: PumpSpec, gamma: float, ell_max: int,
                grid: PolarGrid | None = None,
                signal_offset: tuple[float, float] = (0.0, 0.0)) -> TwoPhotonState:
    """Two-photon OAM state for measurement modes with waist w_pump / gamma.

    Coefficients are projection amplitudes onto signal/idler LG (p = 0) mode
    pairs, normalized to unit total probability.  With a nonzero lateral
    signal offset the full (ell_s, ell_i) coefficient matrix is evaluated,
    which captures misalignment crosstalk into conservation-forbidden pairs.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0 <= ell_max <= 20:
        raise ValueError("ell_max must lie in [0, 20]")
    w_meas = pump.waist / gamma
    geo = BeamGeometry(waist=w_meas)
    if grid is None:
        grid = default_grid(pump.waist, w_meas)
    ells = np.arange(-ell_max, ell_max + 1)
    u_p = pump.resolve().sample(grid)
    weights = grid.weights

    def sampled(offset):
        # per-ell field samples and mode-pump overlap denominators
        fields, denoms = [], []
        for ell in ells:
            u = LGMode(ell=int(ell), geometry=geo, offset=offset).sample(grid)
            fields.append(u)
            denoms.append(float(np.sum(np.abs(u) ** 2 * np.abs(u_p) ** 2 * weights)))
        if min(denoms) <= 0:
            raise ValueError("degenerate mode choice: a measurement mode has no overlap with the pump")
        return fields, np.array(denoms)

    u_s, d_s = sampled(signal_offset)
    if signal_offset != (0.0, 0.0):
        u_i, d_i = sampled((0.0, 0.0))
        joint = np.zeros((len(ells), len(ells)), dtype=complex)
        for i in range(len(ells)):
            base = np.conj(u_s[i]) * u_p * weights
            for j in range(len(ells)):
                numerator = np.sum(base * np.conj(u_i[j]))
                joint[i, j] = numerator / (d_s[i] * d_i[j]) ** 0.25
        joint /= math.sqrt(np.sum(np.abs(joint) ** 2))
        amps = np.array([joint[i, len(ells) - 1 - i] for i in range(len(ells))])
        return TwoPhotonState(ells=ells, amplitudes=amps, joint=joint)
    amps = np.zeros(len(ells), dtype=complex)
    for i in range(len(ells)):
        j = len(ells) - 1 - i  # the opposite-helicity partner of ells[i]
        numerator = np.sum(np.conj(u_s[i]) * np.conj(u_s[j]) * u_p * weights)
        amps[i] = numerator / (d_s[i] * d_s[j]) ** 0.25
    amps /= math.sqrt(np.sum(np.abs(amps) ** 2))
    return TwoPhotonState(ells=ells, amplitudes=amps)


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


def sample_counts(ideal_rate: float, det: DetectorConfig, seed: int,
                  setting_id: int = 0) -> CoincidenceRecord:
    """Poisson-sampled coincidence count for one setting.

    Mean is (efficiency^2 * ideal_rate + accidental rate) * integration time;
    one efficiency factor per detector.  Deterministic for a fixed
    (seed, setting_id) pair regardless of evaluation order.
    """
    if ideal_rate < 0:
        raise ValueError("ideal rate must be non-negative")
    acc_rate = accidentals(det)
    mean = (det.efficiency**2 * ideal_rate + acc_rate) * det.integration_time
    rng = derive_rng(seed, setting_id)
    count = int(rng.poisson(mean)) if mean > 0 else 0
    return CoincidenceRecord(
        setting_id=setting_id,
        ideal_rate=float(ideal_rate),
        count=count,
        accidental_estimate=acc_rate * det.integration_time,
    )
