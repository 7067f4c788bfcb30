"""Scenario runner: one subcommand per experiment, delimited-text outputs.

Every run writes its tables plus a manifest into the configured output
directory.  A table is a dict of columns, each header mapped to a 1-D array
or a scalar, and ``RunContext.write_table`` formats each column from its
dtype.  All tables carry the config hash and seed on their first line;
rerunning with the same config and seed reproduces them byte for byte, which
``tests/test_cli.py`` checks for every subcommand.  The manifest additionally
records versions and wall-clock timings, so it is the one file excluded from
the byte-identity guarantee.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

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
    tomography_settings,
    angular_scan,
)
from .spdc import build_state, sinc_ring_profile, transverse_mode_count
from .tomography import (
    DensityMatrix,
    concurrence,
    fidelity,
    linear_entropy,
    reconstruct,
    save_density_matrix,
    threshold_fidelity,
)


def _format_column(values: np.ndarray) -> list[str]:
    """Cells of one column, from its dtype: floats by repr, integers as digits,
    booleans as true/false, text as is."""
    kind = values.dtype.kind
    if kind == "f":
        return list(map(repr, values.astype(float).tolist()))
    if kind in "iuU":
        return list(map(str, values.tolist()))
    if kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    raise TypeError(f"cannot format a column of dtype {values.dtype}")


class RunContext:
    """Collects output files and timings for one subcommand invocation."""

    def __init__(self, config: ScenarioConfig, out_dir: Path, command: str):
        self.config = config
        self.out_dir = out_dir
        self.command = command
        self.files: list[str] = []
        self.timings: list[tuple[str, float]] = []
        self._t0 = time.perf_counter()
        out_dir.mkdir(parents=True, exist_ok=True)

    def mark(self, stage: str):
        now = time.perf_counter()
        self.timings.append((stage, now - self._t0))
        self._t0 = now

    def write_table(self, name: str, columns: dict):
        """Write one table: ``columns`` maps each header to a 1-D array or a
        scalar, and a scalar repeats down the rows."""
        values = np.broadcast_arrays(*map(np.atleast_1d, columns.values()))
        if values[0].ndim != 1:
            raise TypeError("table columns must be 1-D arrays or scalars")
        cells = [_format_column(v) for v in values]
        path = self.out_dir / name
        lines = [f"# config_hash={self.config.hash()} seed={self.config.seed}"]
        lines.append(",".join(columns))
        lines.extend(map(",".join, zip(*cells)))
        path.write_text("\n".join(lines) + "\n")
        self.files.append(name)

    def write_manifest(self):
        lines = [f"command = {self.command}",
                 f"config_hash = {self.config.hash()}",
                 f"seed = {self.config.seed}",
                 f"oamsim_version = {__version__}",
                 f"numpy_version = {np.__version__}",
                 f"scipy_version = {scipy.__version__}",
                 f"python_version = {sys.version.split()[0]}",
                 f"outputs = {','.join(self.files)}"]
        for stage, elapsed in self.timings:
            lines.append(f"elapsed_s.{stage} = {elapsed:.3f}")
        lines.append("# config echo")
        lines.extend(self.config.canonical_lines())
        (self.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _stage_seed(config: ScenarioConfig, stage: int) -> int:
    """Deterministic per-stage seed: first word of SeedSequence([seed, stage])."""
    return int(np.random.SeedSequence([config.seed, stage]).generate_state(1)[0])


def _state(config: ScenarioConfig, ell_max: int, with_offset: bool = True):
    pump = config.pump()
    meas_waist = pump.waist / config["source.gamma"]
    offset_waists = config["source.signal_offset_waists"] if with_offset else 0.0
    return build_state(
        pump,
        gamma=config["source.gamma"],
        ell_max=ell_max,
        signal_offset=(offset_waists * meas_waist, 0.0),
    )


def run_spiral(config: ScenarioConfig, ctx: RunContext):
    ell_max = config["source.ell_max"]
    state = _state(config, ell_max)
    ctx.mark("build_state")
    ells = np.arange(-ell_max, ell_max + 1)
    scan = spiral_scan(state, ells, ells, config.detector(), _stage_seed(config, 0),
                       pair_rate=config["experiment.pair_rate"])
    ctx.mark("scan")
    ctx.write_table("spiral_matrix.csv", scan.columns())
    s_ells, s_ideal, s_counts = spiral_spectrum(scan)
    # this table has always written its counts as floats
    ctx.write_table("spiral_spectrum.csv",
                    {"ell": s_ells, "ideal_rate": s_ideal, "count": s_counts.astype(float)})
    fwhm = spectrum_fwhm(s_ells.astype(float), s_counts.astype(float))
    ctx.write_table("spiral_summary.csv", {"fwhm": fwhm, "peak_count": s_counts.max()})
    ctx.mark("write")


def run_angular(config: ScenarioConfig, ctx: RunContext):
    state = _state(config, config["experiment.epr_ell_max"])
    ctx.mark("build_state")
    n = config["experiment.angular_points"]
    betas = np.linspace(-math.pi, math.pi, n, endpoint=False)
    scan = angular_scan(state, config["experiment.sector_width_rad"], betas, betas,
                        config.detector(), _stage_seed(config, 1),
                        pair_rate=config["experiment.pair_rate"])
    ctx.mark("scan")
    ctx.write_table("angular_map.csv", scan.columns())
    xs, ps = conditional_profile(scan)
    ctx.write_table("angular_conditional.csv", {"beta_a": xs, "probability": ps})
    ctx.mark("write")


def run_epr_reid(config: ScenarioConfig, ctx: RunContext):
    ell_max = config["experiment.epr_ell_max"]
    state = _state(config, ell_max)
    ctx.mark("build_state")
    det = config.detector()
    rate = config["experiment.pair_rate"]
    ells = np.arange(-ell_max, ell_max + 1)
    spiral = spiral_scan(state, ells, np.array([0]), det, _stage_seed(config, 0),
                         pair_rate=rate)
    betas = np.linspace(-math.pi, math.pi, config["experiment.angular_points"], endpoint=False)
    angular = angular_scan(state, config["experiment.sector_width_rad"], betas,
                           np.array([0.0]), det, _stage_seed(config, 1), pair_rate=rate)
    ctx.mark("scan")
    ell_profile = conditional_profile(spiral)
    phi_profile = conditional_profile(angular)
    result = epr_reid(ell_profile, phi_profile)
    (ell_xs, ell_ps), (phi_xs, phi_ps) = ell_profile, phi_profile
    # point by point, keeping the table's bits: numpy's scalar x ** 2 (libm pow) can round apart from x * x
    fits = [result.ell_fit(x) for x in ell_xs] + [result.angle_fit(x) for x in phi_xs]
    ctx.write_table("epr_profiles.csv", {
        "profile": np.repeat(["ell", "phi"], [len(ell_xs), len(phi_xs)]),
        "x": np.concatenate([ell_xs, phi_xs]),
        "probability": np.concatenate([ell_ps, phi_ps]), "fit": np.array(fits)})
    ctx.write_table("epr_summary.csv", {
        "delta_ell_sq": result.delta_ell_sq, "delta_phi_sq": result.delta_phi_sq,
        "product": result.product, "violated": result.violated,
        "discrete_ell_var": result.discrete_ell_var, "discrete_phi_var": result.discrete_phi_var})
    ctx.mark("write")


def run_bell(config: ScenarioConfig, ctx: RunContext):
    ell = config["bell.ell"]
    state = _state(config, ell, with_offset=False)
    ctx.mark("build_state")
    det = config.detector()
    rate = config["experiment.pair_rate"]
    thetas = np.linspace(0.0, math.pi / ell, config["bell.curve_points"], endpoint=False)
    curve = bell_curve(state, ell, 0.0, thetas, det, _stage_seed(config, 0), pair_rate=rate)
    settings = BellSettings.canonical(ell)
    counts, rates = bell_counts(state, settings, det, _stage_seed(config, 1), pair_rate=rate)
    s_value, sigma = bell_parameter(counts, settings)
    ctx.mark("scan")
    ctx.write_table("bell_curve.csv", curve.columns())
    pair, offset = np.indices(counts.shape)
    theta_a, theta_b = settings.orientations()
    ctx.write_table("bell_counts.csv", {
        "pair": pair.ravel(), "offset": offset.ravel(), "theta_a": theta_a.ravel(),
        "theta_b": theta_b.ravel(), "ideal_rate": rates.ravel(), "count": counts.ravel()})
    n_sigma = (s_value - 2.0) / sigma if sigma > 0 else float("inf")
    ctx.write_table("bell_summary.csv", {"ell": ell, "s_value": s_value, "sigma_s": sigma,
                                         "n_sigma_above_2": n_sigma, "violated": s_value > 2.0})
    ctx.mark("write")


def run_tomo(config: ScenarioConfig, ctx: RunContext):
    d = config["tomo.d"]
    ell_values = list(config["tomo.ell_values"])
    state = _state(config, max(abs(e) for e in ell_values), with_offset=False)
    ctx.mark("build_state")
    target_ket = state.restricted_ket(ell_values)
    rho_true = DensityMatrix.from_ket(d, target_ket)
    settings = tomography_settings(d, ell_values)
    scan = run_tomography_experiment(rho_true, settings, config.detector(),
                                     _stage_seed(config, 0),
                                     flux=config["experiment.pair_rate"])
    ctx.mark("counts")
    report = reconstruct(scan.counts, settings, d)
    ctx.mark("reconstruct")
    # setting a * m + b pairs arm ket a with arm ket b
    _, labels = arm_projectors(d, ell_values)
    columns = scan.columns()
    ctx.write_table("tomo_counts.csv", {"index": columns.pop("setting"),
                                        "arm_a": np.repeat(labels, len(labels)),
                                        "arm_b": np.tile(labels, len(labels)), **columns})
    save_density_matrix(ctx.out_dir / "tomo_rho.csv", report.rho)
    ctx.files.append("tomo_rho.csv")
    fid = fidelity(rho_true, report.rho)
    entropy = linear_entropy(report.rho)
    threshold_p = config.threshold_fraction()
    threshold_fid = threshold_fidelity(threshold_p, d)
    summary = {"d": d, "chi_squared": report.chi_squared, "flux": report.flux,
               "converged": report.converged, "fidelity_vs_target": fid,
               "linear_entropy": entropy, "threshold_p": threshold_p,
               "threshold_fidelity": threshold_fid, "above_threshold": fid > threshold_fid}
    if d == 2:
        summary["concurrence"] = concurrence(report.rho)
    ctx.write_table("tomo_summary.csv", summary)
    ctx.mark("write")


def run_ring(config: ScenarioConfig, ctx: RunContext):
    crystal = config.crystal()
    rs = np.linspace(0.0, config["ring.r_max_mm"] * 1e-3, config["ring.points"])
    profile = sinc_ring_profile(rs, crystal)
    ctx.write_table("ring_profile.csv", {"r_mm": rs * 1e3, "intensity": profile})
    ctx.mark("write")


def run_modes(config: ScenarioConfig, ctx: RunContext):
    wavelength = 2.0 * config["source.pump_wavelength_nm"] * 1e-9
    count = transverse_mode_count(config["modes.area_mm2"] * 1e-6,
                                  config["modes.solid_angle_sr"], wavelength)
    ctx.write_table("modes_summary.csv", {"area_mm2": config["modes.area_mm2"],
                                          "solid_angle_sr": config["modes.solid_angle_sr"],
                                          "wavelength_nm": wavelength * 1e9, "mode_count": count})
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
            cmd.add_argument("--out", help="output directory (overrides output_dir)")
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
    out_dir = Path(args.out) if args.out else Path(config.output_dir)
    try:
        ctx = RunContext(config, out_dir, args.command)
        RUNNERS[args.command](config, ctx)
        ctx.write_manifest()
    except Exception as exc:  # runtime failure after a valid config
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
