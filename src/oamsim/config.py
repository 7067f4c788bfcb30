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

from .spdc import CrystalConfig, DetectorConfig, PumpSpec
from .tomography import BELL_VIOLATION_THRESHOLDS


class ConfigError(ValueError):
    """Raised for unreadable, unparseable or invalid configuration input."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in str(text).split(",") if part.strip())


# key -> (parser, default). Defaults mirror the reference setup: 355 nm pump,
# degenerate 710 nm pairs, 3 mm crystal, 12.5 ns gate.  The phase mismatch and
# ring coefficient have no published numeric values; the defaults below are
# stated here as configuration, not inferred from measurements.
SCHEMA: dict[str, tuple] = {
    "seed": (int, 12345),
    "output_dir": (str, "out"),
    "source.pump_wavelength_nm": (float, 355.0),
    "source.pump_waist_mm": (float, 1.0),
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
    # negative means: use the built-in per-dimension threshold table
    "tomo.threshold_p": (float, -1.0),
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

    @property
    def output_dir(self) -> str:
        return self.values["output_dir"]

    def canonical_lines(self) -> list[str]:
        lines = []
        for key in SCHEMA:
            value = self.values[key]
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return lines

    def hash(self) -> str:
        payload = "\n".join(self.canonical_lines()).encode()
        return hashlib.sha256(payload).hexdigest()

    # --- conversions to simulation objects -------------------------------
    def pump(self) -> PumpSpec:
        return PumpSpec(waist=self.values["source.pump_waist_mm"] * 1e-3)

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

    def threshold_fraction(self) -> float:
        explicit = self.values["tomo.threshold_p"]
        if explicit >= 0:
            return explicit
        d = self.values["tomo.d"]
        return BELL_VIOLATION_THRESHOLDS[d]


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
            try:
                values[key] = parser(incoming) if isinstance(incoming, str) else incoming
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"key {key!r}: cannot parse {incoming!r}") from exc
            # '#' starts a comment and a line break (any that splitlines() splits
            # on) ends the entry, so such a value would not read back from its file
            text = str(values[key])
            if parser is str and ("#" in text or "".join(text.splitlines()) != text):
                raise ConfigError(f"key {key!r}: value {incoming!r} must not contain '#' or a line break")
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

    for key in ("source.pump_wavelength_nm", "source.pump_waist_mm", "source.gamma",
                "source.crystal_length_mm", "source.refractive_index",
                "source.focal_length_mm", "detector.gate_ns", "detector.integration_s",
                "experiment.pair_rate", "ring.r_max_mm", "modes.area_mm2", "modes.solid_angle_sr"):
        positive(key)
    for key in ("detector.singles_1", "detector.singles_2", "source.signal_offset_waists"):
        non_negative(key)

    # an offset state's overlaps underflow from about 15 waists at gamma = 1e-3
    # and ell_max = 20, and at any offset once gamma is far below 1e-3; inside
    # these bounds every accepted ell window builds
    if v["source.signal_offset_waists"] > 0:
        if v["source.signal_offset_waists"] > 10.0:
            problems.append(f"source.signal_offset_waists must not exceed 10 (got {v['source.signal_offset_waists']})")
        if v["source.gamma"] < 1e-3:
            problems.append(f"source.gamma must be at least 1e-3 when source.signal_offset_waists > 0 (got {v['source.gamma']})")
    if not 0 <= v["source.ell_max"] <= 20:
        problems.append(f"source.ell_max must lie in [0, 20] (got {v['source.ell_max']})")
    # 2 epr_ell_max + 1 OAM bins must leave the Gaussian fit at least four points
    if not 2 <= v["experiment.epr_ell_max"] <= 20:
        problems.append(f"experiment.epr_ell_max must lie in [2, 20] (got {v['experiment.epr_ell_max']})")
    if not 0.0 < v["detector.efficiency"] <= 1.0:
        problems.append(f"detector.efficiency must lie in (0, 1] (got {v['detector.efficiency']})")
    if not 0.0 < v["experiment.sector_width_rad"] < 2.0 * math.pi:
        problems.append(f"experiment.sector_width_rad must lie in (0, 2*pi) (got {v['experiment.sector_width_rad']})")
    if v["experiment.angular_points"] < 8:
        problems.append(f"experiment.angular_points must be at least 8 (got {v['experiment.angular_points']})")
    if v["bell.ell"] < 1:
        problems.append(f"bell.ell must be a positive integer (got {v['bell.ell']})")
    if v["bell.ell"] > v["source.ell_max"]:
        problems.append("bell.ell must not exceed source.ell_max")
    if v["bell.curve_points"] < 4:
        problems.append(f"bell.curve_points must be at least 4 (got {v['bell.curve_points']})")
    d = v["tomo.d"]
    if not 2 <= d <= 5:
        problems.append(f"tomo.d must lie in [2, 5] (got {d})")
    ells = v["tomo.ell_values"]
    if len(ells) != d:
        problems.append(f"tomo.ell_values must list exactly tomo.d = {d} values (got {len(ells)})")
    if len(set(ells)) != len(ells):
        problems.append("tomo.ell_values must be distinct")
    if any(abs(e) > v["source.ell_max"] for e in ells):
        problems.append("tomo.ell_values must lie within [-source.ell_max, source.ell_max]")
    if any(-e not in ells for e in ells):
        problems.append("tomo.ell_values must be closed under negation (opposite-helicity pairing)")
    threshold = v["tomo.threshold_p"]
    if threshold > 1.0:
        problems.append(f"tomo.threshold_p must lie in [0, 1] or be negative for the built-in table (got {threshold})")
    if threshold < 0 and 2 <= d <= 5 and d not in BELL_VIOLATION_THRESHOLDS:
        problems.append(f"no built-in Bell threshold for d = {d}; set tomo.threshold_p")
    if v["ring.points"] < 2:
        problems.append(f"ring.points must be at least 2 (got {v['ring.points']})")
    if not str(v["output_dir"]).strip():
        problems.append("output_dir must not be empty")
    return problems

