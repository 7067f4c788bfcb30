"""Scenario configuration: flat key = value files with sectioned keys.

The format is line oriented and diff friendly: one ``section.key = value``
per line, ``#`` comments, and every physical quantity carried in the unit
named by the key.  All randomness in a scenario flows from the single
``seed`` entry; there is no wall-clock seeding anywhere.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .modes import sector_coefficients
from .spdc import ELL_WINDOW_CAP, CrystalConfig, DetectorConfig
from .tomography import BELL_VIOLATION_THRESHOLDS


class ConfigError(ValueError):
    """Raised for unreadable, unparseable or invalid configuration input."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _as_text(value) -> str:
    """A value as a config file carries it: a tuple joined by commas, anything else through str."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# key -> (parser, default). Defaults mirror the reference setup: 355 nm pump,
# degenerate 710 nm pairs, 3 mm crystal, 12.5 ns gate.  The phase mismatch and
# ring coefficient have no published numeric values; the defaults below are
# stated here as configuration, not inferred from measurements.
SCHEMA: dict[str, tuple] = {
    "seed": (int, 12345),
    "source.pump_wavelength_nm": (float, 355.0),
    "source.gamma": (float, 2.0),
    "source.ell_max": (int, 20),
    "source.crystal_length_mm": (float, 3.0),
    "source.refractive_index": (float, 1.66),
    "source.phase_mismatch": (float, 0.0),
    "source.focal_length_mm": (float, 500.0),
    "source.signal_offset_waists": (float, 0.0),
    "detector.singles_1": (float, 2e4),
    "detector.singles_2": (float, 2e4),
    "detector.gate_ns": (float, 12.5),
    "detector.efficiency": (float, 0.6),
    "detector.integration_s": (float, 1.0),
    "experiment.pair_rate": (float, 3e4),
    "experiment.sector_width_rad": (float, math.pi / 8.0),
    "experiment.angular_points": (int, 64),
    "experiment.epr_ell_max": (int, 10),
    "bell.ell": (int, 2),
    "bell.curve_points": (int, 64),
    "tomo.d": (int, 2),
    "tomo.ell_values": (_parse_int_list, (1, -1)),
    "ring.r_max_mm": (float, 30.0),
    "ring.points": (int, 400),
    "modes.area_mm2": (float, 1.0),
    "modes.solid_angle_sr": (float, 1e-6),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view over a validated key = value mapping."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def canonical_lines(self) -> list[str]:
        return [f"{key} = {_as_text(self.values[key])}" for key in SCHEMA]

    def hash(self) -> str:
        payload = "\n".join(self.canonical_lines()).encode()
        return hashlib.sha256(payload).hexdigest()

    # --- conversions to simulation objects -------------------------------
    def detector(self) -> DetectorConfig:
        return DetectorConfig(
            singles_1=self.values["detector.singles_1"],
            singles_2=self.values["detector.singles_2"],
            gate_time=self.values["detector.gate_ns"] * 1e-9,
            efficiency=self.values["detector.efficiency"],
            integration_time=self.values["detector.integration_s"],
        )

    def crystal(self) -> CrystalConfig:
        return CrystalConfig(
            length=self.values["source.crystal_length_mm"] * 1e-3,
            refractive_index=self.values["source.refractive_index"],
            phase_mismatch=self.values["source.phase_mismatch"],
            pump_wavelength=self.values["source.pump_wavelength_nm"] * 1e-9,
            focal_length=self.values["source.focal_length_mm"] * 1e-3,
        )


def parse_config_text(text: str) -> dict:
    """Parse key = value lines into raw string values; rejects unknown keys."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Combine defaults, file values and --set overrides into a typed config."""
    values = {}
    merged = {}
    merged.update(raw or {})
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r} in override")
        merged[key] = value
    for key, (parser, default) in SCHEMA.items():
        if key in merged:
            incoming = merged[key]
            # a typed value is parsed from the text canonical_lines would write for it
            try:
                values[key] = parser(_as_text(incoming))
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {incoming!r}") from exc
        else:
            values[key] = default
    return ScenarioConfig(values=values)


def load_config(path: str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    raw = None
    if path is not None:
        try:
            with open(path) as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return build_config(raw, overrides)


def validate(config: ScenarioConfig) -> list[str]:
    """Every violated invariant, one message per violation; empty when valid."""
    v = config.values
    problems = []

    def positive(key):
        if not v[key] > 0:
            problems.append(f"{key} must be positive (got {v[key]})")

    def non_negative(key):
        if v[key] < 0:
            problems.append(f"{key} must be non-negative (got {v[key]})")

    for key in ("source.pump_wavelength_nm", "source.gamma",
                "source.crystal_length_mm", "source.refractive_index",
                "source.focal_length_mm", "detector.gate_ns", "detector.integration_s",
                "experiment.pair_rate", "ring.r_max_mm", "modes.area_mm2", "modes.solid_angle_sr"):
        positive(key)
    for key in ("detector.singles_1", "detector.singles_2", "source.signal_offset_waists"):
        non_negative(key)

    # inside these bounds the offset state's closed form is checked against
    # exact rational arithmetic at ell_max = 20 (tests/test_spdc.py); outside
    # them its accuracy is untested
    if v["source.signal_offset_waists"] > 0:
        if v["source.signal_offset_waists"] > 10.0:
            problems.append(f"source.signal_offset_waists must not exceed 10 (got {v['source.signal_offset_waists']})")
        if v["source.gamma"] < 1e-3:
            problems.append(f"source.gamma must be at least 1e-3 when source.signal_offset_waists > 0 (got {v['source.gamma']})")
    # the state's closed form overflows to NaN amplitudes from about gamma = 8e76
    if v["source.gamma"] > 1e6:
        problems.append(f"source.gamma must not exceed 1e6 (got {v['source.gamma']})")
    # no ideal rate exceeds pair_rate, so this bounds every count mean; numpy's
    # Poisson sampler refuses means above about 9.2e18, and every count below
    # 2^53 is exact in float64
    largest_mean = (v["detector.efficiency"] ** 2 * v["experiment.pair_rate"]
                    + v["detector.singles_1"] * v["detector.singles_2"] * v["detector.gate_ns"] * 1e-9
                    ) * v["detector.integration_s"]
    if not largest_mean <= 1e15:
        problems.append("the largest count mean (detector.efficiency^2 * experiment.pair_rate + detector.singles_1"
                        " * detector.singles_2 * detector.gate_ns * 1e-9) * detector.integration_s"
                        f" must not exceed 1e15 (got {largest_mean})")
    # each window key bounds only the window of the runner that reads it
    for key in ("source.ell_max", "experiment.epr_ell_max"):
        if not 0 <= v[key] <= ELL_WINDOW_CAP:
            problems.append(f"{key} must lie in [0, {ELL_WINDOW_CAP}] (got {v[key]})")
    if not 0.0 < v["detector.efficiency"] <= 1.0:
        problems.append(f"detector.efficiency must lie in (0, 1] (got {v['detector.efficiency']})")
    try:
        sector_coefficients(0.0, v["experiment.sector_width_rad"], ())
    except ValueError as exc:
        problems.append(f"experiment.sector_width_rad: {exc} (got {v['experiment.sector_width_rad']})")
    # no table may exceed 2^20 rows, a 1024 x 1024 angular map; on 2 cores an
    # offset run of that map takes 2.2-3.9 s and 83 MB peak RSS, growing with the row count
    if not 8 <= v["experiment.angular_points"] <= 1024:
        problems.append(f"experiment.angular_points must lie in [8, 1024] (got {v['experiment.angular_points']})")
    if not 1 <= v["bell.ell"] <= ELL_WINDOW_CAP:
        problems.append(f"bell.ell must lie in [1, {ELL_WINDOW_CAP}] (got {v['bell.ell']})")
    if not 4 <= v["bell.curve_points"] <= 2**20:
        problems.append(f"bell.curve_points must lie in [4, 2^20] (got {v['bell.curve_points']})")
    d = v["tomo.d"]
    # run_tomo reads BELL_VIOLATION_THRESHOLDS[d], so its keys, 2..7, are the dimensions
    # run.  On 2 cores with BLAS at 1 thread a d = 7 run takes 1.2-1.5 s, and 1.7-2.2 s at
    # gamma = 0.1, within the time of the largest angular map; d = 8, with this check
    # bypassed, takes 1.5-2.0 s, and 2.6 s at gamma = 0.1
    if d not in BELL_VIOLATION_THRESHOLDS:
        problems.append(f"tomo.d must be one of {', '.join(map(str, BELL_VIOLATION_THRESHOLDS))} (got {d})")
    ells = v["tomo.ell_values"]
    if len(ells) != d:
        problems.append(f"tomo.ell_values must list exactly tomo.d = {d} values (got {len(ells)})")
    if len(set(ells)) != len(ells):
        problems.append("tomo.ell_values must be distinct")
    if any(abs(e) > ELL_WINDOW_CAP for e in ells):
        problems.append(f"tomo.ell_values must lie within [-{ELL_WINDOW_CAP}, {ELL_WINDOW_CAP}]")
    if any(-e not in ells for e in ells):
        problems.append("tomo.ell_values must be closed under negation (opposite-helicity pairing)")
    if not 2 <= v["ring.points"] <= 2**20:
        problems.append(f"ring.points must lie in [2, 2^20] (got {v['ring.points']})")
    return problems

