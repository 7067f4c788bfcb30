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

from .spdc import ELL_WINDOW_CAP, DetectorConfig


class ConfigError(ValueError):
    """Raised for unreadable, unparseable or invalid configuration input."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _as_text(value) -> str:
    """A value as a config file carries it: a tuple joined by commas, anything else through str."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


class Interval:
    """An interval as validate's messages write it, such as "(0, 1]" or "[0, inf)".
    Every comparison in it fails for NaN, so NaN lies in no interval."""

    def __init__(self, text: str):
        self.text, self.closed_lo, self.closed_hi = text, text[0] == "[", text[-1] == "]"
        self.lo, self.hi = (float(end) for end in text[1:-1].split(","))

    def __contains__(self, x) -> bool:
        return ((self.lo <= x if self.closed_lo else self.lo < x)
                and (x <= self.hi if self.closed_hi else x < self.hi))


# key -> (parser, default, accepted interval, which bounds each entry of a list).
# Defaults mirror the reference setup: 355 nm pump, degenerate 710 nm pairs, 3 mm
# crystal, 12.5 ns gate.  The phase mismatch and ring coefficient have no published
# numeric values; the defaults are stated here as configuration, not measured.
SCHEMA: dict[str, tuple] = {
    "seed": (int, 12345, "[0, inf)"),
    # X-rays (1 nm) to the far infrared (1 mm), closed below: ring and modes divide by it
    "source.pump_wavelength_nm": (float, 355.0, "[1, 1e6]"),
    # the state's closed form overflows to NaN amplitudes from about gamma = 8e76
    "source.gamma": (float, 2.0, "(0, 1e6]"),
    # each window key bounds only the window of the runner that reads it
    "source.ell_max": (int, 20, f"[0, {ELL_WINDOW_CAP}]"),
    # no crystal is a km long; with the ring bounds below, sinc_ring_profile's a (r/f)^2 stays below 2e36
    "source.crystal_length_mm": (float, 3.0, "(0, 1e6]"),
    # no down-conversion crystal has n < 1, and no transparent one n much above 4 (germanium)
    "source.refractive_index": (float, 1.66, "[1, 10]"),
    "source.phase_mismatch": (float, 0.0, "(-inf, inf)"),
    # no lens is shorter than the shortest pump wavelength, 1 nm; ring divides radii by it
    "source.focal_length_mm": (float, 500.0, "[1e-6, inf)"),
    # up to 10 waists the offset state's closed form is checked against exact
    # rational arithmetic at ell_max = 20 (tests/test_spdc.py); beyond, its
    # accuracy is untested
    "source.signal_offset_waists": (float, 0.0, "[0, 10]"),
    "detector.singles_1": (float, 2e4, "[0, inf)"),
    "detector.singles_2": (float, 2e4, "[0, inf)"),
    "detector.gate_ns": (float, 12.5, "(0, inf)"),
    "detector.efficiency": (float, 0.6, "(0, 1]"),
    "detector.integration_s": (float, 1.0, "(0, inf)"),
    "experiment.pair_rate": (float, 3e4, "(0, inf)"),
    # the widths modes.sector_coefficients accepts, the full disc included
    "experiment.sector_width_rad": (float, math.pi / 8.0, f"(0, {2.0 * math.pi!r}]"),
    # no table may exceed 2^20 rows, a 1024 x 1024 angular map.  Timed in fresh
    # processes on 2 cores with BLAS at 1 thread, an offset run of that map at
    # experiment.epr_ell_max = 20 takes 2.1-2.2 s and 76 MB peak RSS
    "experiment.angular_points": (int, 64, "[8, 1024]"),
    "experiment.epr_ell_max": (int, 10, f"[0, {ELL_WINDOW_CAP}]"),
    "bell.ell": (int, 2, f"[1, {ELL_WINDOW_CAP}]"),
    "bell.curve_points": (int, 64, f"[4, {2**20}]"),
    # the dimensions tomo runs.  Timed as above, a d = 7 run takes 0.73-0.75 s,
    # and 0.61-0.68 s at gamma = 0.1; d = 8, with this interval lifted, takes
    # 0.81-1.12 s, and 0.92-1.18 s at gamma = 0.1
    "tomo.d": (int, 2, "[2, 7]"),
    "tomo.ell_values": (_parse_int_list, (1, -1), f"[-{ELL_WINDOW_CAP}, {ELL_WINDOW_CAP}]"),
    # a km, past any far-field screen
    "ring.r_max_mm": (float, 30.0, "(0, 1e6]"),
    "ring.points": (int, 400, f"[2, {2**20}]"),
    # a square km, past any detector; the mode count stays at most pi 1e24
    "modes.area_mm2": (float, 1.0, "(0, 1e12]"),
    # 4 pi is the full sphere
    "modes.solid_angle_sr": (float, 1e-6, f"(0, {4.0 * math.pi!r}]"),
}
INTERVALS = {key: Interval(text) for key, (_, _, text) in SCHEMA.items()}


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

    def detector(self) -> DetectorConfig:
        return DetectorConfig(
            singles_1=self.values["detector.singles_1"],
            singles_2=self.values["detector.singles_2"],
            gate_time=self.values["detector.gate_ns"] * 1e-9,
            efficiency=self.values["detector.efficiency"],
            integration_time=self.values["detector.integration_s"],
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
    merged = dict(raw or {})
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r} in override")
        merged[key] = value
    for key, (parser, default, _) in SCHEMA.items():
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
    problems = [f"{key} must lie in {interval.text} (got {_as_text(v[key])})"
                for key, interval in INTERVALS.items()
                if not all(x in interval for x in (v[key] if isinstance(v[key], tuple) else [v[key]]))]
    if v["source.signal_offset_waists"] > 0 and v["source.gamma"] < 1e-3:
        problems.append(f"source.gamma must be at least 1e-3 when source.signal_offset_waists > 0 (got {v['source.gamma']})")
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
    ells = v["tomo.ell_values"]
    if len(ells) != v["tomo.d"]:
        problems.append(f"tomo.ell_values must list exactly tomo.d = {v['tomo.d']} values (got {len(ells)})")
    if len(set(ells)) != len(ells):
        problems.append("tomo.ell_values must be distinct")
    if any(-e not in ells for e in ells):
        problems.append("tomo.ell_values must be closed under negation (opposite-helicity pairing)")
    return problems
