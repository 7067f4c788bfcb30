"""Scenario runner: one subcommand per experiment, delimited-text outputs.

Every run writes its tables plus a manifest into the output directory that
``--out`` names (``out`` by default).  A table is a dict of columns, each
header mapped to a 1-D array or a scalar, and ``RunContext.write_table``,
the one writer, formats each column from its dtype.  Every table, the
density matrix ``tomo_rho.csv`` included, carries the config hash and seed
on its first line; rerunning with the same config and seed reproduces it
byte for byte, which ``tests/test_cli.py`` checks for every subcommand.
The manifest additionally records versions, wall-clock timings and
``diag.<name> = value`` lines of how a stage got its numbers (the solver's
steps, say), so it is the one file excluded from the byte-identity guarantee.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
# numpy 2 imports these on first access: the stage seeds use numpy.random and
# np.unique reads np.ma.  Imported here, they cost start-up, not the first run.
import numpy.ma
import numpy.random

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config, validate
from .experiments import (
    BellSettings,
    arm_projectors,
    bell_counts,
    bell_curve,
    bell_parameter,
    conditional_profile,
    epr_reid,
    run_tomography_experiment,
    spectrum_fwhm,
    spiral_scan,
    spiral_spectrum,
    angular_scan,
)
from .spdc import (build_state, maximally_entangled_ket, restricted_ket, sinc_ring_profile,
                   transverse_mode_count)
from .tomography import (
    bell_violation_threshold,
    concurrence,
    density_matrix_columns,
    linear_entropy,
    reconstruct,
    threshold_fidelity,
)


# rows formatted and written at a time, so a long table is never held as text
_BLOCK_ROWS = 8192
# shortest column formatted once per distinct value; np.unique costs about
# 20 us a call, more than the repr calls it saves on shorter columns
_DISTINCT_MIN_ROWS = 64


def _format_column(values: np.ndarray) -> list[str]:
    """Cells of one column, from its dtype: floats by repr, integers as digits,
    booleans as true/false, text as is.

    A float or integer column of at least ``_DISTINCT_MIN_ROWS`` cells is
    formatted once per distinct value and spread to the rows by index.
    Table columns repeat heavily (the orientation columns of a 256 x 256
    angular map hold 256 values over 65,536 rows), and one repr per cell
    would take most of the time of a large write; below that length the
    fixed cost of ``np.unique`` exceeds what it saves.  Floats are told apart by their bit
    patterns, not by value: ``0.0 == -0.0`` but the two print differently,
    and NaN equals nothing, so value equality would merge the first pair and
    keep every NaN apart.  Each bit pattern prints as repr does, every NaN as
    ``nan``."""
    kind = values.dtype.kind
    if kind == "f":
        values = values.astype(float)
        keys, fmt = values.view(np.uint64), repr
    elif kind in "iu":
        keys, fmt = values, str
    elif kind == "U":
        return list(map(str, values.tolist()))
    elif kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    else:
        raise TypeError(f"cannot format a column of dtype {values.dtype}")
    if len(values) < _DISTINCT_MIN_ROWS:
        return list(map(fmt, values.tolist()))
    distinct, index = np.unique(keys, return_inverse=True)
    texts = list(map(fmt, distinct.view(values.dtype).tolist()))
    return np.array(texts, dtype=object)[index].tolist()


class RunContext:
    """Collects output files and timings for one subcommand invocation."""

    def __init__(self, config: ScenarioConfig, out_dir: Path, command: str):
        self.config = config
        self.out_dir = out_dir
        self.command = command
        self.files: list[str] = []
        self.timings: list[tuple[str, float]] = []
        self.diagnostics: list[tuple[str, str]] = []
        self._t0 = time.perf_counter()
        out_dir.mkdir(parents=True, exist_ok=True)

    def mark(self, stage: str):
        now = time.perf_counter()
        self.timings.append((stage, now - self._t0))
        self._t0 = now

    def record(self, name: str, value):
        """Record ``diag.<name> = value`` for the manifest; the value is
        formatted as a table cell of its type."""
        self.diagnostics.append((name, _format_column(np.atleast_1d(value))[0]))

    def write_table(self, name: str, columns: dict):
        """Write one table: ``columns`` maps each header to a 1-D array or a
        scalar, and a scalar repeats down the rows.  The rows are formatted
        and written ``_BLOCK_ROWS`` at a time.  Within a block, a long
        number column is formatted once per distinct value
        (``_format_column``), so neither the text nor the distinct values
        outlive a block."""
        values = np.broadcast_arrays(*map(np.atleast_1d, columns.values()))
        if values[0].ndim != 1:
            raise TypeError("table columns must be 1-D arrays or scalars")
        for v in values:
            _format_column(v[:0])  # a dtype it cannot format raises before the file opens
        with (self.out_dir / name).open("w") as out:
            out.write(f"# config_hash={self.config.hash()} seed={self.config.seed}\n{','.join(columns)}\n")
            for first in range(0, len(values[0]), _BLOCK_ROWS):
                cells = [_format_column(v[first:first + _BLOCK_ROWS]) for v in values]
                out.write("\n".join(map(",".join, zip(*cells))) + "\n")
        self.files.append(name)

    def write_manifest(self):
        lines = [f"command = {self.command}",
                 f"config_hash = {self.config.hash()}",
                 f"seed = {self.config.seed}",
                 f"oamsim_version = {__version__}",
                 f"numpy_version = {np.__version__}",
                 f"python_version = {sys.version.split()[0]}",
                 f"outputs = {','.join(self.files)}"]
        for stage, elapsed in self.timings:
            lines.append(f"elapsed_s.{stage} = {elapsed:.3f}")
        lines.extend(f"diag.{name} = {value}" for name, value in self.diagnostics)
        lines.append("# config echo")
        lines.extend(self.config.canonical_lines())
        (self.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _stage_seed(config: ScenarioConfig, stage: int) -> int:
    """Deterministic per-stage seed: first word of SeedSequence([seed, stage])."""
    return int(np.random.SeedSequence([config.seed, stage]).generate_state(1)[0])


def _state(config: ScenarioConfig, ell_max: int):
    return build_state(config["source.gamma"], ell_max, config["source.signal_offset_waists"])


def run_spiral(config: ScenarioConfig, ctx: RunContext):
    ell_max = config["source.ell_max"]
    joint = _state(config, ell_max)
    ctx.mark("build_state")
    ells = np.arange(-ell_max, ell_max + 1)
    scan = spiral_scan(joint, ells, ells, config.detector(), _stage_seed(config, 0),
                       pair_rate=config["experiment.pair_rate"])
    ctx.mark("scan")
    ctx.write_table("spiral_matrix.csv", scan.columns())
    s_ells, s_ideal, s_counts = spiral_spectrum(scan)
    # this table has always written its counts as floats
    ctx.write_table("spiral_spectrum.csv",
                    {"ell": s_ells, "ideal_rate": s_ideal, "count": s_counts.astype(float)})
    fwhm = spectrum_fwhm(s_ells, s_counts, scan.accidental)
    # a half width past the window is an extrapolation; an inf or nan width is limited too
    ctx.write_table("spiral_summary.csv", {"fwhm": fwhm, "peak_count": s_counts.max(),
                                           "window_limited": not fwhm / 2 <= ell_max})
    ctx.mark("write")


def run_angular(config: ScenarioConfig, ctx: RunContext):
    joint = _state(config, config["experiment.epr_ell_max"])
    ctx.mark("build_state")
    n = config["experiment.angular_points"]
    betas = np.linspace(-math.pi, math.pi, n, endpoint=False)
    scan = angular_scan(joint, config["experiment.sector_width_rad"], betas, betas,
                        config.detector(), _stage_seed(config, 1),
                        pair_rate=config["experiment.pair_rate"])
    ctx.mark("scan")
    ctx.write_table("angular_map.csv", scan.columns())
    xs, ps, _ = conditional_profile(scan)
    ctx.write_table("angular_conditional.csv", {"beta_a": xs, "probability": ps})
    ctx.mark("write")


def run_epr_reid(config: ScenarioConfig, ctx: RunContext):
    ell_max = config["experiment.epr_ell_max"]
    joint = _state(config, ell_max)
    ctx.mark("build_state")
    det = config.detector()
    rate = config["experiment.pair_rate"]
    ells = np.arange(-ell_max, ell_max + 1)
    spiral = spiral_scan(joint, ells, np.array([0]), det, _stage_seed(config, 0),
                         pair_rate=rate)
    betas = np.linspace(-math.pi, math.pi, config["experiment.angular_points"], endpoint=False)
    angular = angular_scan(joint, config["experiment.sector_width_rad"], betas,
                           np.array([0.0]), det, _stage_seed(config, 1), pair_rate=rate)
    ctx.mark("scan")
    profiles = [conditional_profile(scan) for scan in (spiral, angular)]
    xs, probabilities, model = (np.concatenate(column) for column in zip(*profiles))
    ctx.write_table("epr_profiles.csv", {
        "profile": np.repeat(["ell", "phi"], [len(spiral), len(angular)]),
        "x": xs, "probability": probabilities, "model": model})
    ctx.write_table("epr_summary.csv", asdict(epr_reid(spiral, angular)))
    ctx.mark("write")


def run_bell(config: ScenarioConfig, ctx: RunContext):
    ell = config["bell.ell"]
    joint = _state(config, ell)
    ctx.mark("build_state")
    det = config.detector()
    rate = config["experiment.pair_rate"]
    thetas = np.linspace(0.0, math.pi / ell, config["bell.curve_points"], endpoint=False)
    curve = bell_curve(joint, ell, 0.0, thetas, det, _stage_seed(config, 0), pair_rate=rate)
    settings = BellSettings(ell)
    counts, rates = bell_counts(joint, settings, det, _stage_seed(config, 1), pair_rate=rate)
    s_value, sigma = bell_parameter(counts, settings)
    ctx.mark("scan")
    ctx.write_table("bell_curve.csv", curve.columns())
    pair, offset = np.indices(counts.shape)
    theta_a, theta_b = settings.orientations()
    ctx.write_table("bell_counts.csv", {
        "pair": pair.ravel(), "offset": offset.ravel(), "theta_a": theta_a.ravel(),
        "theta_b": theta_b.ravel(), "ideal_rate": rates.ravel(), "count": counts.ravel()})
    n_sigma = (s_value - 2.0) / sigma if sigma != 0 else math.inf
    ctx.write_table("bell_summary.csv", {"ell": ell, "s_value": s_value, "sigma_s": sigma,
                                         "n_sigma_above_2": n_sigma, "violated": s_value > 2.0})
    ctx.mark("write")


def run_tomo(config: ScenarioConfig, ctx: RunContext):
    d = config["tomo.d"]
    ell_values = list(config["tomo.ell_values"])
    joint = _state(config, max(abs(e) for e in ell_values))
    ctx.mark("build_state")
    target_ket = restricted_ket(joint, ell_values)
    # setting a * m + b pairs arm ket a with arm ket b
    kets, labels = arm_projectors(d, ell_values)
    scan = run_tomography_experiment(target_ket, kets, config.detector(),
                                     _stage_seed(config, 0),
                                     pair_rate=config["experiment.pair_rate"])
    ctx.mark("counts")
    report = reconstruct(scan.counts, kets, d)
    ctx.mark("reconstruct")
    ctx.record("reconstruct.iterations", report.iterations)
    ctx.record("reconstruct.converged", report.converged)
    ctx.record("reconstruct.chi2_dof", report.chi_squared / (len(kets) ** 2 - d**4))
    columns = scan.columns()
    ctx.write_table("tomo_counts.csv", {"index": columns.pop("setting"),
                                        "arm_a": np.repeat(labels, len(labels)),
                                        "arm_b": np.tile(labels, len(labels)), **columns})
    ctx.write_table("tomo_rho.csv", density_matrix_columns(report.rho))
    # each fidelity with a pure ket is <ket|rho|ket>; the isotropic threshold and the
    # Schmidt-number witness are stated for F_phi, the fidelity with |Phi>
    fid, fid_phi = (min(max(float(np.real(ket.conj() @ report.rho @ ket)), 0.0), 1.0)
                    for ket in (target_ket, maximally_entangled_ket(ell_values)))
    entropy = linear_entropy(report.rho)
    threshold_p = bell_violation_threshold(d)
    threshold_fid = threshold_fidelity(threshold_p, d)
    summary = {"d": d, "chi_squared": report.chi_squared, "flux": report.flux,
               "converged": report.converged, "fidelity_vs_target": fid,
               "fidelity_vs_phi": fid_phi, "linear_entropy": entropy,
               "threshold_p": threshold_p, "threshold_fidelity": threshold_fid,
               "above_threshold": fid_phi > threshold_fid,
               # F_phi > k/d certifies Schmidt number k + 1 (Terhal & Horodecki,
               # PRA 61, 040301(R), 2000)
               "schmidt_number_bound": int(np.count_nonzero(fid_phi > np.arange(d) / d))}
    if d == 2:
        summary["concurrence"] = concurrence(report.rho)
    ctx.write_table("tomo_summary.csv", summary)
    ctx.mark("write")


def run_ring(config: ScenarioConfig, ctx: RunContext):
    rs = np.linspace(0.0, config["ring.r_max_mm"], config["ring.points"])
    profile = sinc_ring_profile(rs, config["source.focal_length_mm"], config["source.crystal_length_mm"],
                                config["source.pump_wavelength_nm"], config["source.refractive_index"],
                                config["source.phase_mismatch"])
    ctx.write_table("ring_profile.csv", {"r_mm": rs, "intensity": profile})
    ctx.mark("write")


def run_modes(config: ScenarioConfig, ctx: RunContext):
    area, solid_angle = config["modes.area_mm2"], config["modes.solid_angle_sr"]
    wavelength = 2.0 * config["source.pump_wavelength_nm"]  # degenerate pairs: twice the pump wavelength
    ctx.write_table("modes_summary.csv", {
        "area_mm2": area, "solid_angle_sr": solid_angle, "wavelength_nm": wavelength,
        "mode_count": transverse_mode_count(area, solid_angle, wavelength)})
    ctx.mark("write")


RUNNERS = {
    "spiral": run_spiral,
    "angular": run_angular,
    "epr-reid": run_epr_reid,
    "bell": run_bell,
    "tomo": run_tomo,
    "ring": run_ring,
    "modes": run_modes,
}


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamsim",
        description="Simulate and analyze orbital-angular-momentum photon entanglement experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spiral", "joint OAM coincidence matrix, spiral spectrum and its width"),
        ("angular", "sector-hologram orientation map and conditional profile"),
        ("epr-reid", "conditional-variance product for OAM and angular position"),
        ("bell", "analyzer-rotation fringe and the four-correlation Bell parameter"),
        ("tomo", "two-qudit state tomography, reconstruction and metrics"),
        ("ring", "far-field phase-matching ring profile"),
        ("modes", "etendue-limited transverse mode count"),
        ("validate", "check a configuration and list every violated invariant"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a key = value configuration file")
        cmd.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                         help="override a configuration entry (repeatable)")
        if name != "validate":
            cmd.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, _parse_overrides(args.overrides))
        problems = validate(config)
        if args.command == "validate":
            for problem in problems:
                print(problem)
            return 1 if problems else 0
        if problems:
            for problem in problems:
                print(f"config error: {problem}", file=sys.stderr)
            return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        ctx = RunContext(config, Path(args.out), args.command)
        RUNNERS[args.command](config, ctx)
        ctx.write_manifest()
    except Exception as exc:  # runtime failure after a valid config
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
