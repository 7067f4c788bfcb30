"""Golden tests for the command-line runner.

Every subcommand runs twice at the default config through ``oamsim.cli.main``,
and so do four runs with a misaligned signal arm, which fill the pairs that
OAM conservation forbids.  The two runs must write byte-identical tables (the
manifest records timings and is the one file exempt), every table must have
its expected number of rows, and every summary value must match the
expectation checked in below.
"""

import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsim import cli, experiments, tomography
from oamsim.cli import RUNNERS, RunContext, main
from oamsim.config import INTERVALS, load_config, validate

SRC = Path(cli.__file__).resolve().parents[1]

# Relative tolerances.  Closed forms, seeded Poisson counts and arithmetic on
# them reproduce to round-off; 1e-9 leaves room for another BLAS or libm.
# Values the tomography solver optimises also depend on its iteration
# path, so they get 1e-6.  The linear entropy moves most along that path; its
# two goldens are the optimum, reached by running the solver with no stopping
# tolerance until chi^2 no longer falls, not any one solver's stopping point.
EXACT = 1e-9
SOLVER = 1e-6

# run -> table -> number of data rows; a run is a subcommand at the default
# config or one of the misaligned runs below
ROWS = {
    "spiral": {"spiral_matrix.csv": 41 * 41, "spiral_spectrum.csv": 41, "spiral_summary.csv": 1},
    "angular": {"angular_map.csv": 64 * 64, "angular_conditional.csv": 64},
    "epr-reid": {"epr_profiles.csv": 21 + 64, "epr_summary.csv": 1},
    "bell": {"bell_curve.csv": 64, "bell_counts.csv": 16, "bell_summary.csv": 1},
    "tomo": {"tomo_counts.csv": 36, "tomo_rho.csv": 16, "tomo_summary.csv": 1},
    "ring": {"ring_profile.csv": 400},
    "modes": {"modes_summary.csv": 1},
    "spiral-offset": {"spiral_matrix.csv": 21 * 21, "spiral_spectrum.csv": 21, "spiral_summary.csv": 1},
    "epr-reid-offset": {"epr_profiles.csv": 21 + 64, "epr_summary.csv": 1},
    "bell-offset": {"bell_curve.csv": 64, "bell_counts.csv": 16, "bell_summary.csv": 1},
    "tomo-offset": {"tomo_counts.csv": 36, "tomo_rho.csv": 16, "tomo_summary.csv": 1},
}

# summary table -> column -> (expected value, relative tolerance)
SUMMARIES = {
    "spiral_summary.csv": {
        "fwhm": (108.08516801612394, EXACT),
        "peak_count": (320, 0.0),
        "window_limited": ("true", None),
    },
    # the moments of the accidental-subtracted counts; each lies within its
    # sigma of the model value, and delta_ell_sq is negative by noise alone
    "epr_summary.csv": {
        "delta_ell_sq": (-0.22697445367805488, EXACT),
        "sigma_ell_sq": (0.8503519104002206, EXACT),
        "model_ell_sq": (0.0, EXACT),
        "delta_phi_sq": (0.05867740182270166, EXACT),
        "sigma_phi_sq": (0.04108461643079447, EXACT),
        "model_phi_sq": (0.0245939137194698, EXACT),
        "product": (-0.013318271221955412, EXACT),
        "sigma_product": (0.05076035241064142, EXACT),
        "model_product": (0.0, EXACT),
        "n_sigma_below_quarter": (5.1874791784690855, EXACT),
        "violated": ("true", None),
    },
    "bell_summary.csv": {
        "ell": (2, 0.0),
        "s_value": (2.822875328640121, EXACT),
        "sigma_s": (0.013626206405192503, EXACT),
        "n_sigma_above_2": (60.38917246450561, EXACT),
        "violated": ("true", None),
    },
    "tomo_summary.csv": {
        "d": (2, 0.0),
        "chi_squared": (18.56940667728503, SOLVER),
        "flux": (10783.398315604822, SOLVER),
        "converged": ("true", None),
        "fidelity_vs_target": (0.9990512323180293, SOLVER),
        "fidelity_vs_phi": (0.9990512322557217, SOLVER),
        "linear_entropy": (0.002449006669552685, SOLVER),
        "threshold_p": (0.7071067811865476, EXACT),
        "threshold_fidelity": (0.7803300858899107, EXACT),
        "above_threshold": ("true", None),
        "schmidt_number_bound": (2, 0.0),
        "concurrence": (0.9982996936365166, SOLVER),
    },
    "modes_summary.csv": {
        "area_mm2": (1.0, EXACT),
        "solid_angle_sr": (1e-06, EXACT),
        "wavelength_nm": (710.0, EXACT),
        "mode_count": (1.9837333862328896, EXACT),
    },
}


# misaligned runs: name -> (subcommand, overrides)
OFFSET_RUNS = {
    "spiral-offset": ("spiral", ["source.ell_max=10", "source.signal_offset_waists=0.1"]),
    "epr-reid-offset": ("epr-reid", ["source.signal_offset_waists=0.1"]),
    "bell-offset": ("bell", ["source.signal_offset_waists=0.5"]),
    "tomo-offset": ("tomo", ["source.signal_offset_waists=0.5"]),
}

OFFSET_SUMMARIES = {
    "spiral-offset": {
        "fwhm": (59.550025906140135, EXACT),
        "peak_count": (562, 0.0),
        "window_limited": ("true", None),
    },
    "epr-reid-offset": {
        "delta_ell_sq": (-0.21607650945216042, EXACT),
        "sigma_ell_sq": (0.84135960472132, EXACT),
        "model_ell_sq": (0.013796317758555608, EXACT),
        "delta_phi_sq": (0.06013738471152832, EXACT),
        "sigma_phi_sq": (0.04210287068309959, EXACT),
        "model_phi_sq": (0.028622934428879716, EXACT),
        "product": (-0.012994276176048756, EXACT),
        "sigma_product": (0.051408527204526884, EXACT),
        "model_product": (0.00039489109856312595, EXACT),
        "n_sigma_below_quarter": (5.11577145810336, EXACT),
        "violated": ("true", None),
    },
    # at 0.5 waists the target puts 0.0127 on each of the pairs (1, 1) and (-1, -1),
    # and the ideal Bell S drops to 2.8279359738643732
    "bell-offset": {
        "ell": (2, 0.0),
        "s_value": (2.8221861385468214, EXACT),
        "sigma_s": (0.01363023343686884, EXACT),
        "n_sigma_above_2": (60.32076723813583, EXACT),
        "violated": ("true", None),
    },
    "tomo-offset": {
        "d": (2, 0.0),
        "chi_squared": (22.329279923154754, SOLVER),
        "flux": (10779.98831778931, SOLVER),
        "converged": ("true", None),
        "fidelity_vs_target": (0.9993210432227265, SOLVER),
        "fidelity_vs_phi": (0.9743035346310633, SOLVER),
        "linear_entropy": (0.0017285303715969627, SOLVER),
        "threshold_p": (0.7071067811865476, EXACT),
        "threshold_fidelity": (0.7803300858899107, EXACT),
        "above_threshold": ("true", None),
        "schmidt_number_bound": (2, 0.0),
        "concurrence": (0.9487178402493697, SOLVER),
    },
}


# (run, table) -> sha256 of the table's count column, one cell per line.  Every
# count is a seeded Poisson draw, so a change to any sampled count shows here.
COUNT_DIGESTS = {
    ("spiral", "spiral_matrix.csv"): "609a5fa8ba7f2b9175a7bb0a8ad5f18805c842e9db2174a721c16c85764d082b",
    ("spiral", "spiral_spectrum.csv"): "7c6cff79e6b3a9711dbeed78000a9c933028f17c2dd8b74165851d84a618d75c",
    ("angular", "angular_map.csv"): "c80b38d93d9f573d80042bc38e5e82475e176e1756f55e44ab1a4bb8b3d3a831",
    ("bell", "bell_curve.csv"): "ab4683a91212287011be1ab3a6089cb4078685cd65b8763d0f6555358fcbbdb3",
    ("bell", "bell_counts.csv"): "a137c762eaaf4bc7600b3894e702d0699998bee26aeca593e5722864a5c36a03",
    ("tomo", "tomo_counts.csv"): "7564b57fa28fcd03e76574ac8db906fd1d0af76ef85eed12f6cf41400fd8d05d",
    ("spiral-offset", "spiral_matrix.csv"): "d75043b24e4b006b666d53d7f0a0ef38b83231129868c19fed1f05e36793165b",
    ("spiral-offset", "spiral_spectrum.csv"): "4a851065b1e2ff9ef7c8ec8ce435c15a2b8627e8f2d50967b6c1f115b53ee290",
    ("bell-offset", "bell_curve.csv"): "2396d41f7c11137a1d45a3b39ab7fb553c6c32d294c0d369d1327a3c4500edfa",
    ("bell-offset", "bell_counts.csv"): "f66db773b705863576f71e64550bc0288e16101ed0531d95cb16096840aa6d0a",
    ("tomo-offset", "tomo_counts.csv"): "dfa3cea155871f54a94af660394b4cbd63c3be16491c82840f355c3b444cd616",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """run -> (first output directory, second output directory)."""
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name in ROWS:
        command, overrides = OFFSET_RUNS.get(name, (name, []))
        sets = [arg for item in overrides for arg in ("--set", item)]
        dirs = (root / f"{name}-1", root / f"{name}-2")
        for d in dirs:
            assert main([command, *sets, "--out", str(d)]) == 0
        out[name] = dirs
    return out


def tables(out_dir):
    return sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.txt")


def data_rows(path):
    # line 1 is the config-hash header, line 2 the column header
    return path.read_text().splitlines()[2:]


def test_every_runner_is_covered():
    assert set(RUNNERS) == set(ROWS) - set(OFFSET_RUNS)


@pytest.mark.parametrize("command", sorted(ROWS))
def test_rerun_is_byte_identical(runs, command):
    first, second = runs[command]
    assert tables(first) == tables(second) == sorted(ROWS[command])
    for name in tables(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command", sorted(ROWS))
def test_row_counts(runs, command):
    first, _ = runs[command]
    for name, n in ROWS[command].items():
        assert len(data_rows(first / name)) == n, name


def check_summary(path, expected):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert set(row) == set(expected)
    for column, (want, rel) in expected.items():
        if rel is None:
            assert row[column] == want, column
        else:
            assert math.isclose(float(row[column]), want, rel_tol=rel, abs_tol=0.0), column


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_summary_values(runs, name):
    command = next(c for c, names in ROWS.items() if name in names)
    check_summary(runs[command][0] / name, SUMMARIES[name])


@pytest.mark.parametrize("name", sorted(OFFSET_SUMMARIES))
def test_offset_summary_values(runs, name):
    summary = next(t for t in ROWS[name] if t.endswith("_summary.csv"))
    check_summary(runs[name][0] / summary, OFFSET_SUMMARIES[name])


def test_tomo_manifest_records_solver_diagnostics(runs):
    out = runs["tomo"][0]
    diag = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
                if line.startswith("diag."))
    assert set(diag) == {"diag.reconstruct.iterations", "diag.reconstruct.converged",
                         "diag.reconstruct.chi2_dof"}
    lines = (out / "tomo_summary.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert 0 < int(diag["diag.reconstruct.iterations"]) < tomography.MAX_ITERATIONS
    assert diag["diag.reconstruct.converged"] == row["converged"] == "true"
    # chi^2 per degree of freedom: 6^2 settings less the 2^4 parameters of sigma
    assert float(diag["diag.reconstruct.chi2_dof"]) == float(row["chi_squared"]) / (36 - 16)


def count_columns(runs):
    """(run, table) -> the cells of its count column, for every table that has one."""
    cells = {}
    for command, names in ROWS.items():
        for name in names:
            lines = (runs[command][0] / name).read_text().splitlines()
            columns = lines[1].split(",")
            if "count" in columns:
                k = columns.index("count")
                cells[command, name] = [line.split(",")[k] for line in lines[2:]]
    return cells


def test_count_column_forms(runs):
    # spiral_spectrum.csv has always written its counts as floats ("232.0"),
    # every other table as integers ("232")
    columns = count_columns(runs)
    for (_, name), cells in columns.items():
        form = r"\d+\.0" if name == "spiral_spectrum.csv" else r"\d+"
        assert all(re.fullmatch(form, cell) for cell in cells), name
    assert len(columns) == 11


def test_count_columns_are_pinned(runs):
    digests = {key: hashlib.sha256("\n".join(cells).encode()).hexdigest()
               for key, cells in count_columns(runs).items()}
    assert digests == COUNT_DIGESTS


def test_validate_accepts_defaults(capsys):
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("ell_max, code", [(-1, 1), (0, 0), (2, 0), (20, 0), (21, 1)])
def test_validate_epr_ell_max_bound(capsys, ell_max, code):
    # a single OAM bin still has a second moment, zero
    assert main(["validate", "--set", f"experiment.epr_ell_max={ell_max}"]) == code
    out = capsys.readouterr().out
    assert ("experiment.epr_ell_max" in out) == bool(code)


# each window key bounds the window of the runner that reads it, and no other key:
# source.ell_max is the spiral window only
@pytest.mark.parametrize("overrides, code", [
    (["source.ell_max=0"], 0),
    (["bell.ell=0"], 1),
    (["bell.ell=1", "source.ell_max=0"], 0),
    (["bell.ell=20", "source.ell_max=5"], 0),
    (["bell.ell=21"], 1),
])
def test_validate_bell_ell_bound(capsys, overrides, code):
    assert main(["validate", *(arg for item in overrides for arg in ("--set", item))]) == code
    out = capsys.readouterr().out
    assert ("bell.ell" in out) == bool(code)


@pytest.mark.parametrize("ells, code", [("20,-20", 0), ("21,-21", 1), ("-21,21", 1),
                                        ("20,0,-20", 0), ("21,0,-21", 1)])
def test_validate_tomo_ell_values_bound(capsys, ells, code):
    d = len(ells.split(","))
    assert main(["validate", "--set", f"tomo.d={d}", "--set", f"tomo.ell_values={ells}",
                 "--set", "source.ell_max=0"]) == code
    out = capsys.readouterr().out
    assert ("tomo.ell_values" in out) == bool(code)


@pytest.mark.parametrize("command, window", [("bell", "bell.ell=20"), ("tomo", "tomo.ell_values=20,-20")])
def test_windows_beyond_source_ell_max_run(tmp_path, command, window):
    assert main([command, "--set", window, "--set", "source.ell_max=0", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("key, value, code", [
    ("experiment.angular_points", 7, 1), ("experiment.angular_points", 8, 0),
    ("experiment.angular_points", 1024, 0), ("experiment.angular_points", 1025, 1),
    ("experiment.angular_points", 100000, 1),
    ("bell.curve_points", 3, 1), ("bell.curve_points", 2**20, 0),
    ("bell.curve_points", 2**20 + 1, 1), ("bell.curve_points", 10**9, 1),
    ("ring.points", 1, 1), ("ring.points", 2**20, 0), ("ring.points", 2**20 + 1, 1),
    ("ring.points", 10**9, 1),
])
def test_validate_grid_bounds(capsys, key, value, code):
    # no accepted grid writes a table of more than 2^20 rows, the size of a
    # 1024 x 1024 angular map, so every accepted run finishes in bounded time
    assert main(["validate", "--set", f"{key}={value}"]) == code
    assert (key in capsys.readouterr().out) == bool(code)


@pytest.mark.parametrize("seconds, code", [("0", 1), ("1e-3", 0)])
def test_validate_integration_time_bound(capsys, seconds, code):
    # a run that counts for no time measures nothing, so the interval is open at 0
    assert main(["validate", "--set", f"detector.integration_s={seconds}"]) == code
    assert ("detector.integration_s" in capsys.readouterr().out) == bool(code)


@pytest.mark.parametrize("width, code", [("0", 1), (repr(2.0 * math.pi), 0),
                                         (repr(math.nextafter(2.0 * math.pi, 7.0)), 1)])
def test_validate_sector_width_bound(capsys, width, code):
    # the SCHEMA interval (0, 2*pi] is the range modes.sector_shape accepts, the full disc included
    assert main(["validate", "--set", f"experiment.sector_width_rad={width}"]) == code
    assert ("experiment.sector_width_rad" in capsys.readouterr().out) == bool(code)


def test_angular_runs_at_full_sector_width(tmp_path):
    # a 2*pi sector passes ell = 0 alone, so no orientation pair differs from another
    assert main(["angular", "--set", f"experiment.sector_width_rad={2.0 * math.pi!r}",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "angular_map.csv").read_text().splitlines()
    column = lines[1].split(",").index("ideal_rate")
    assert len(lines) == 2 + 64 * 64
    assert len({line.split(",")[column] for line in lines[2:]}) == 1


@pytest.mark.parametrize("key", ["source.grid_points_radial", "source.grid_points_azimuthal",
                                 "source.pump_waist_mm"])
def test_validate_rejects_removed_grid_keys(capsys, key):
    # the offset state needs no quadrature grid, so its two size keys are
    # unknown, and it is built in measurement waists, so the pump waist is too
    assert main(["validate", "--set", f"{key}=256"]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_validate_accepts_offset_at_largest_windows(capsys):
    # the closed form has no aliasing bound to enforce at any ell window validate accepts
    assert main(["validate", "--set", "source.signal_offset_waists=0.1", "--set", "source.ell_max=20",
                 "--set", "experiment.epr_ell_max=20"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("overrides, code", [
    (["source.signal_offset_waists=10"], 0),
    (["source.signal_offset_waists=10.5"], 1),
    (["source.signal_offset_waists=0.1", "source.gamma=1e-3"], 0),
    (["source.signal_offset_waists=0.1", "source.gamma=9e-4"], 1),
    (["source.gamma=1e-4"], 0),
])
def test_validate_offset_bounds(capsys, overrides, code):
    # beyond these bounds the offset overlaps underflow and build_state fails;
    # an aligned state has no such limit on gamma
    assert main(["validate", *(arg for item in overrides for arg in ("--set", item))]) == code
    assert bool(capsys.readouterr().out) == bool(code)


@pytest.mark.parametrize("gamma", ["1e-3", "1e6"])
@pytest.mark.parametrize("command, window", [("spiral", "source.ell_max"),
                                             ("angular", "experiment.epr_ell_max"),
                                             ("bell", "bell.ell"), ("tomo", "tomo.ell_values")])
def test_offset_runs_at_validate_corners(tmp_path, gamma, command, window):
    # the largest |ell| each window accepts is 20; tomo pairs it with -20
    value = "20,-20" if command == "tomo" else "20"
    assert main([command, "--set", f"source.gamma={gamma}", "--set", "source.signal_offset_waists=10",
                 "--set", f"{window}={value}", "--out", str(tmp_path)]) == 0


# the runners that sample counts
SAMPLING = ("angular", "bell", "epr-reid", "spiral", "tomo")


@pytest.mark.parametrize("overrides", [[], ["source.gamma=1e-3"], ["source.signal_offset_waists=0.5"]],
                         ids=["default", "narrow", "offset"])
@pytest.mark.parametrize("command", SAMPLING)
def test_ideal_rates_do_not_exceed_pair_rate(tmp_path, monkeypatch, command, overrides):
    # validate bounds every count mean by (efficiency^2 pair_rate + accidentals)
    # * integration time, which needs every ideal rate to be at most pair_rate
    largest = []
    real = experiments.sample_counts

    def spy(rates, model, seed):
        largest.append(np.max(rates))
        return real(rates, model, seed)

    monkeypatch.setattr(experiments, "sample_counts", spy)
    sets = [arg for item in [*overrides, "experiment.pair_rate=1e4"] for arg in ("--set", item)]
    assert main([command, *sets, "--out", str(tmp_path)]) == 0
    assert largest and max(largest) <= 1e4


@pytest.mark.parametrize("overrides, code", [
    (["source.gamma=1e6"], 0),
    (["source.gamma=1.1e6"], 1),
    (["experiment.pair_rate=2.7e15"], 0),
    (["experiment.pair_rate=2.8e15"], 1),
    (["experiment.pair_rate=1e30"], 1),
    (["detector.integration_s=9e10"], 0),
    (["detector.integration_s=1e20"], 1),
    (["detector.singles_1=4e13", "detector.singles_2=4e13"], 1),
])
def test_validate_gamma_and_count_mean_bounds(capsys, overrides, code):
    # at the defaults the largest count mean is (0.36 pair_rate + 5) * integration_s;
    # above 1e15 it is rejected, and so is gamma above 1e6
    assert main(["validate", *(arg for item in overrides for arg in ("--set", item))]) == code
    assert bool(capsys.readouterr().out) == bool(code)


@pytest.mark.parametrize("command, override", [
    ("spiral", "seed=-1"),  # exited 2: the count streams take no negative seed
    ("spiral", "source.signal_offset_waists=nan"),  # exited 2 with an overflow message
    ("ring", "source.phase_mismatch=nan"),  # wrote a table of nan intensities
    ("ring", "source.phase_mismatch=inf"),
    ("ring", "source.focal_length_mm=inf"),
    # exited 2: each underflowed to 0 in a conversion to metres, or divided by 0
    ("ring", "source.focal_length_mm=5e-324"),
    ("modes", "source.pump_wavelength_nm=5e-324"),
    ("ring", "source.refractive_index=5e-324"),
    # wrote nan or inf cells
    ("ring", "ring.r_max_mm=1e308"),
    ("modes", "modes.area_mm2=1e308"),
    ("ring", "source.crystal_length_mm=1e308"),
])
def test_runs_outside_an_interval_exit_one(tmp_path, capsys, command, override):
    out = tmp_path / "out"
    assert main([command, "--set", override, "--out", str(out)]) == 1
    assert f"config error: {override.partition('=')[0]} must lie in" in capsys.readouterr().err
    assert not out.exists()


# the keys ring and modes read, other than ring.points
READS = {"ring": ("source.crystal_length_mm", "source.refractive_index", "source.pump_wavelength_nm",
                  "source.focal_length_mm", "source.phase_mismatch", "ring.r_max_mm"),
         "modes": ("source.pump_wavelength_nm", "modes.area_mm2", "modes.solid_angle_sr")}


def accepted_ends(key):
    """The smallest and largest values validate accepts for a float key: each
    end of its interval, or the float next to an end the interval leaves open."""
    interval = INTERVALS[key]
    return (interval.lo if interval.closed_lo else math.nextafter(interval.lo, math.inf),
            interval.hi if interval.closed_hi else math.nextafter(interval.hi, -math.inf))


def non_finite_cells(out_dir):
    return [cell for path in sorted(out_dir.glob("*.csv")) for row in data_rows(path)
            for cell in row.split(",") if not math.isfinite(float(cell))]


@pytest.mark.parametrize("key, value", [(key, value) for key in sorted({k for keys in READS.values() for k in keys})
                                        for value in accepted_ends(key)])
def test_ring_and_modes_run_at_interval_ends(tmp_path, key, value):
    # an overflow warns, and the warning fails the test
    for command in READS:
        assert main([command, "--set", f"{key}={value!r}", "--out", str(tmp_path / command)]) == 0
        assert non_finite_cells(tmp_path / command) == []


@pytest.mark.parametrize("command", sorted(READS))
def test_ring_and_modes_run_at_every_corner(tmp_path, command):
    # every combination of the ends of every key the command reads
    for corner in itertools.product(*map(accepted_ends, READS[command])):
        sets = [arg for key, value in zip(READS[command], corner) for arg in ("--set", f"{key}={value!r}")]
        assert main([command, *sets, "--out", str(tmp_path)]) == 0, corner
        assert non_finite_cells(tmp_path) == [], corner


DETECTOR_KEYS = sorted(key for key in INTERVALS if key.startswith("detector."))
# each detector key at the accepted extreme of each end of its interval, and the narrowest
# sector; an upper end that makes the largest count mean overflow is rejected, and skipped
EXTREMES = [*((key, value) for key in DETECTOR_KEYS for value in accepted_ends(key)
              if not validate(load_config(overrides=[f"{key}={value!r}"]))),
            ("experiment.sector_width_rad", 5e-324)]
# the extremes with no accidental coincidences
NO_ACCIDENTALS = {("detector.gate_ns", 5e-324), ("detector.singles_1", 0.0), ("detector.singles_2", 0.0)}


@pytest.mark.parametrize("key, value", EXTREMES)
def test_sampling_runs_at_detector_and_sector_extremes(tmp_path, key, value):
    # a 5e-324 ns gate is 0 s, an accidental rate of 0; the sector coefficients of a width
    # of 1e-300 or less underflow to 0, but not the analyzer rows normalised without their
    # width factor.  Every warning fails the test
    for command in SAMPLING:
        out = tmp_path / command
        assert main([command, "--set", f"{key}={value!r}", "--out", str(out)]) == 0, command
        if (key, value) in NO_ACCIDENTALS:
            for path in sorted(out.glob("*.csv")):
                header = path.read_text().splitlines()[1].split(",")
                if "accidental" in header:
                    column = header.index("accidental")
                    assert {row.split(",")[column] for row in data_rows(path)} == {"0.0"}, path.name


def test_ring_and_modes_write_config_units_as_they_are(runs):
    # 2 x 355 nm, not 710.0000000000001 from a round trip through metres
    lines = (runs["modes"][0] / "modes_summary.csv").read_text().splitlines()
    assert dict(zip(lines[1].split(","), lines[2].split(",")))["wavelength_nm"] == "710.0"
    radii = [row.split(",")[0] for row in data_rows(runs["ring"][0] / "ring_profile.csv")]
    assert radii == [repr(r) for r in np.linspace(0.0, 30.0, 400).tolist()]


@pytest.mark.parametrize("override", ["source.gamma=1e6", "experiment.pair_rate=2.7e15"])
@pytest.mark.parametrize("command", SAMPLING)
def test_runs_at_gamma_and_count_mean_bounds(tmp_path, command, override):
    assert main([command, "--set", override, "--out", str(tmp_path)]) == 0


def per_cell(value) -> str:
    """The text of one table cell, formatted value by value."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def test_write_table_matches_per_cell_format(tmp_path):
    # one column per dtype write_table formats, plus a scalar that repeats down
    # the rows; the text must equal per_cell applied cell by cell
    columns = {
        "bool": np.array([True, False, True]),
        "int64": np.array([3, -2**62, 0]),
        "int32": np.array([-7, 5, 0], dtype=np.int32),
        "uint8": np.array([0, 255, 7], dtype=np.uint8),
        "float64": np.array([0.1, float("inf"), -0.0]),
        "float64_edges": np.array([1e-300, float("nan"), 1e16]),
        "float32": np.array([0.5, 0.1, -0.0], dtype=np.float32),
        "text": np.array(["x", "y,", ""]),
        "scalar": 2.5,
    }
    ctx = RunContext(load_config(), tmp_path, "test")
    ctx.write_table("t.csv", columns)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    cells = [values if np.ndim(values) else [values] * 3 for values in columns.values()]
    assert lines[1:] == [",".join(columns)] + [",".join(map(per_cell, row)) for row in zip(*cells)]


# float64 cells that a value-keyed dedup would get wrong: signed zeros, NaNs
# with other payloads and signs, infinities, subnormals and the smallest one
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072e-308,
                  *np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                             0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(float)]


def test_write_table_rows_run_on_across_blocks(tmp_path):
    # a table two blocks and three rows long reads as one text, row for row,
    # with the special floats repeating down a long column
    n = 2 * cli._BLOCK_ROWS + 3
    special = np.resize(SPECIAL_FLOATS, n)
    columns = {"i": np.arange(n), "x": np.arange(n) / 7.0, "flag": np.arange(n) % 3 == 0, "c": 1.5,
               "special": special}
    ctx = RunContext(load_config(), tmp_path, "test")
    ctx.write_table("t.csv", columns)
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines[1:] == ["i,x,flag,c,special"] + [
        f"{i},{i / 7.0!r},{str(i % 3 == 0).lower()},1.5,{per_cell(special[i])}" for i in range(n)] + [""]


def pooled(pool, size, seed, dtype):
    """A column of ``size`` cells drawn from ``pool``, so that values repeat."""
    return np.array(pool, dtype=dtype)[np.random.default_rng(seed).integers(len(pool), size=size)]


# a block size for the property test below, so that its tables span several
# blocks cheaply; the blocks hold both short and long columns, and the tail
# block of a table can fall below _DISTINCT_MIN_ROWS
SHORT_BLOCK_ROWS = 2 * cli._DISTINCT_MIN_ROWS + 5


@st.composite
def repeating_tables(draw):
    n = draw(st.integers(0, 2 * SHORT_BLOCK_ROWS + 40))

    def column(elements, dtype):
        pool = draw(st.lists(elements, min_size=1, max_size=12))
        return pooled(pool, n, draw(st.integers(0, 2**32 - 1)), dtype)

    return {
        "f64": column(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), np.float64),
        "f32": column(st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, 1e-45]),
                                st.floats(width=32)), np.float32),
        "i64": column(st.one_of(st.sampled_from([-2**63, 2**63 - 1, 0, -1]),
                                st.integers(-2**63, 2**63 - 1)), np.int64),
        "u64": column(st.one_of(st.sampled_from([2**63, 2**64 - 1, 0]), st.integers(0, 2**64 - 1)),
                      np.uint64),
        "flag": column(st.booleans(), bool),
        "text": column(st.sampled_from(["a", "b", ""]), str),
        "scalar": draw(st.sampled_from([-0.0, 0.1, math.nan])),
    }


@settings(max_examples=60, deadline=None)
@given(columns=repeating_tables())
def test_write_table_formats_repeating_cells_as_per_cell(tmp_path_factory, columns):
    # a long column is formatted once per distinct value in each block and
    # spread to its rows; the text must still equal per_cell cell by cell
    out = tmp_path_factory.getbasetemp() / "repeating"  # one directory, rewritten by each example
    out.mkdir(exist_ok=True)
    with mock.patch.object(cli, "_BLOCK_ROWS", SHORT_BLOCK_ROWS):
        RunContext(load_config(), out, "test").write_table("t.csv", columns)
    n = len(columns["f64"])
    cells = [values if np.ndim(values) else [values] * n for values in columns.values()]
    rows = "".join(",".join(map(per_cell, row)) + "\n" for row in zip(*cells))
    assert (out / "t.csv").read_text().split("\n", 2)[2] == rows


@pytest.mark.parametrize("values", [
    np.array([1, 2.0, True], dtype=object),
    np.array([1.0 + 2.0j, 3.0]),
    np.zeros((2, 2)),
], ids=["mixed", "complex", "2-D"])
def test_write_table_rejects_columns_it_cannot_format(tmp_path, values):
    ctx = RunContext(load_config(), tmp_path, "test")
    with pytest.raises(TypeError):
        ctx.write_table("t.csv", {"ok": np.arange(len(values)), "bad": values})
    assert not (tmp_path / "t.csv").exists()


def test_smallest_accepted_epr_ell_max_runs(tmp_path):
    for command in ("epr-reid", "angular"):
        assert main([command, "--set", "experiment.epr_ell_max=0", "--out", str(tmp_path / command)]) == 0
    # the one ell bin has no spread, in the counts or in the model
    row = summary_row(tmp_path / "epr-reid" / "epr_summary.csv")
    assert (row["delta_ell_sq"], row["sigma_ell_sq"], row["model_ell_sq"]) == ("0.0", "0.0", "0.0")


def summary_row(path):
    lines = path.read_text().splitlines()
    return dict(zip(lines[1].split(","), lines[2].split(",")))


@pytest.mark.parametrize("ell_max", [1, 2, 3])
def test_spiral_runs_at_smallest_windows(tmp_path, ell_max):
    # three bins of the anti-diagonal already give the fitted slope two |ell| values
    assert main(["spiral", "--set", f"source.ell_max={ell_max}", "--out", str(tmp_path)]) == 0
    assert float(summary_row(tmp_path / "spiral_summary.csv")["fwhm"]) > 0.0


def test_spiral_runs_at_one_bin_window(tmp_path):
    # one |ell| value leaves no slope to fit: the width is nan and flagged
    assert main(["spiral", "--set", "source.ell_max=0", "--out", str(tmp_path)]) == 0
    row = summary_row(tmp_path / "spiral_summary.csv")
    assert (row["fwhm"], row["window_limited"]) == ("nan", "true")


@pytest.mark.parametrize("gamma, limited", [("1e6", "true"), ("2", "true"), ("1", "false"),
                                            ("0.5", "false")])
def test_spiral_flags_widths_beyond_the_window(tmp_path, gamma, limited):
    # at gamma = 1e6 q rounds to 1 and the spectrum is flat across the window
    assert main(["spiral", "--set", f"source.gamma={gamma}", "--out", str(tmp_path)]) == 0
    assert summary_row(tmp_path / "spiral_summary.csv")["window_limited"] == limited


def test_epr_reid_moments_match_model_within_two_sigma(tmp_path):
    # a narrow pump and an offset signal arm spread both conditional profiles;
    # each moment of the accidental-subtracted counts must lie within 2 sigma
    # of the same moment of the ideal rates
    assert main(["epr-reid", "--set", "source.gamma=0.1", "--set", "source.signal_offset_waists=0.1",
                 "--out", str(tmp_path)]) == 0
    row = {key: float(value) for key, value in summary_row(tmp_path / "epr_summary.csv").items()
           if key != "violated"}
    for name in ("ell", "phi"):
        sigma = row[f"sigma_{name}_sq"]
        assert 0.0 < sigma < 0.1
        assert abs(row[f"delta_{name}_sq"] - row[f"model_{name}_sq"]) < 2.0 * sigma, name
    assert row["model_ell_sq"] == pytest.approx(0.236, abs=1e-3)
    assert row["model_phi_sq"] == pytest.approx(4.84, abs=1e-2)
    rows = [line.split(",") for line in data_rows(tmp_path / "epr_profiles.csv")]
    for profile in ("ell", "phi"):
        model = [float(cell) for name, _, _, cell in rows if name == profile]
        assert sum(model) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("command, table, estimates", [
    ("angular", "angular_conditional.csv", ["probability"]),
    ("epr-reid", "epr_summary.csv", ["delta_ell_sq", "sigma_ell_sq", "delta_phi_sq", "sigma_phi_sq",
                                     "product", "sigma_product", "n_sigma_below_quarter"]),
    ("bell", "bell_summary.csv", ["s_value", "sigma_s", "n_sigma_above_2"]),
    ("tomo", "tomo_summary.csv", ["fidelity_vs_target", "fidelity_vs_phi", "linear_entropy", "concurrence"]),
])
def test_runs_without_coincidences_write_nan(tmp_path, command, table, estimates):
    # validate accepts this config, but with no accidentals and a pair rate
    # of 1e-12 per second no count is drawn: every estimate is nan, and no
    # violation, threshold or Schmidt number is claimed
    assert main(["validate", "--set", "detector.singles_1=0", "--set", "experiment.pair_rate=1e-12"]) == 0
    assert main([command, "--set", "detector.singles_1=0", "--set", "experiment.pair_rate=1e-12",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / table).read_text().splitlines()
    columns = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(columns, line.split(",")))
        assert {row[key] for key in estimates} == {"nan"}
        assert row.get("violated", "false") == row.get("above_threshold", "false") == "false"
        assert row.get("schmidt_number_bound", "0") == "0"
    if command == "tomo":  # rho stays the maximally mixed matrix reconstruct gives for no counts
        assert np.array_equal(tomography.load_density_matrix(tmp_path / "tomo_rho.csv"), np.eye(4) / 4)


def test_import_loads_no_scipy():
    # the runtime needs numpy alone; scipy is a test dependency only
    code = "import sys, oamsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def test_config_loads_neither_solver_nor_modes():
    # SCHEMA's intervals are the config's only bounds; it needs no runtime module for them
    code = "import sys, oamsim.config; print(sorted(m for m in sys.modules if m in ('oamsim.tomography', 'oamsim.modes')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
