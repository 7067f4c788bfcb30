"""Correctness checks on the tables one op wrote.

``check_op`` returns the list of problems (empty when the op is correct) and
the accuracy figures the op yields.  Ideal rates are exact functions of the
config, so they are compared with their analytic values at round-off
tolerance; sampled counts are checked only for form.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from oamsim.experiments import BellSettings, bell_parameter
from oamsim.tomography import load_density_matrix

HEADER = re.compile(r"# config_hash=([0-9a-f]{64}) seed=(-?\d+)$")
NOT_TABLES = {"tomo_rho.csv"}
SPIRAL_RATIO_RTOL = 1e-9
BELL_ATOL = 1e-12


def read_manifest(out_dir: Path) -> dict:
    entries = {}
    for line in (out_dir / "manifest.txt").read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith("#"):
            entries.setdefault(key, value)
    return entries


def read_table(path: Path, config_hash: str, seed: int) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of one table; raises ValueError on a malformed table."""
    lines = path.read_text().splitlines()
    match = HEADER.match(lines[0]) if lines else None
    if not match:
        raise ValueError(f"{path.name}: first line is not '# config_hash=... seed=...'")
    if match.group(1) != config_hash or int(match.group(2)) != seed:
        raise ValueError(f"{path.name}: header {lines[0]!r} does not match the run")
    if len(lines) < 2:
        raise ValueError(f"{path.name}: no column header")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    for number, row in enumerate(rows, start=3):
        if len(row) != len(columns):
            raise ValueError(f"{path.name}:{number}: {len(row)} fields, header has {len(columns)}")
    return columns, rows


def column(table, name: str) -> list[float]:
    columns, rows = table
    k = columns.index(name)
    return [float(row[k]) for row in rows]


def spiral_q(gamma: float) -> float:
    """Geometric ratio of aligned amplitudes, q = sqrt(g(g+2))/(g+1), g = 2 gamma^2."""
    g = 2.0 * gamma * gamma
    return math.sqrt(g * (g + 2.0)) / (g + 1.0)


def analytic_fwhm(gamma: float) -> float:
    return math.log(2.0) / math.log(1.0 / spiral_q(gamma))


def _check_spiral(config, tables, out_dir):
    if float(config["source.signal_offset_waists"]) != 0.0:
        return [], {}
    gamma = float(config["source.gamma"])
    spectrum = tables["spiral_spectrum.csv"]
    rates = [rate for ell, rate in sorted(zip(column(spectrum, "ell"),
                                              column(spectrum, "ideal_rate"))) if ell >= 0]
    q2 = spiral_q(gamma) ** 2
    worst = max((abs(b / a / q2 - 1.0) for a, b in zip(rates, rates[1:])), default=0.0)
    problems = []
    if worst > SPIRAL_RATIO_RTOL:
        problems.append(f"spiral ideal_rate ratio off q^2 by {worst:.3e} relative")
    fwhm = column(tables["spiral_summary.csv"], "fwhm")[0]
    reference = analytic_fwhm(gamma)
    return problems, {"fwhm_rel_error": abs(fwhm - reference) / reference}


def _check_bell(config, tables, out_dir):
    table = tables["bell_counts.csv"]
    rates = [[0.0] * 4 for _ in range(4)]
    for pair, offset, rate in zip(column(table, "pair"), column(table, "offset"),
                                  column(table, "ideal_rate")):
        rates[int(pair)][int(offset)] = rate
    s_value, _ = bell_parameter(rates, BellSettings.canonical(int(config["bell.ell"])))
    if abs(s_value - 2.0 * math.sqrt(2.0)) > BELL_ATOL:
        return [f"ideal Bell S = {s_value!r}, expected 2*sqrt(2)"], {}
    return [], {}


def _check_tomo(config, tables, out_dir):
    load_density_matrix(out_dir / "tomo_rho.csv")
    summary = tables["tomo_summary.csv"]
    fid = column(summary, "fidelity_vs_target")[0]
    problems = []
    if not 0.0 <= fid <= 1.0:
        problems.append(f"fidelity_vs_target {fid!r} outside [0, 1]")
    settings = len(tables["tomo_counts.csv"][1])
    dof = settings - int(config["tomo.d"]) ** 4
    return problems, {"tomo_fidelity": fid,
                      "tomo_chi2_dof": column(summary, "chi_squared")[0] / dof}


CHECKS = {"spiral": _check_spiral, "bell": _check_bell, "tomo": _check_tomo}


def check_op(out_dir: Path) -> tuple[list[str], dict]:
    """Problems found in one op's outputs, and the accuracy facts it yields.

    The config the op ran with is read back from the manifest's config echo.
    """
    try:
        config = read_manifest(out_dir)
        seed = int(config["seed"])
        tables = {name: read_table(out_dir / name, config["config_hash"], seed)
                  for name in config["outputs"].split(",") if name not in NOT_TABLES}
        if config["command"] in CHECKS:
            return CHECKS[config["command"]](config, tables, out_dir)
        return [], {}
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"{type(exc).__name__}: {exc}"], {}


def same_tables(first: Path, second: Path) -> list[str]:
    """Differences between two output directories, ignoring the manifest."""
    names = {p.name for p in first.iterdir()} - {"manifest.txt"}
    other = {p.name for p in second.iterdir()} - {"manifest.txt"}
    if names != other:
        return [f"output files differ: {sorted(names ^ other)}"]
    return [f"{name} is not byte-identical on rerun" for name in sorted(names)
            if (first / name).read_bytes() != (second / name).read_bytes()]
