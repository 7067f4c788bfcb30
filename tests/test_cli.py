"""Golden tests for the command-line runner.

Every subcommand runs twice at the default config through ``oamsim.cli.main``.
The two runs must write byte-identical tables (the manifest records timings
and is the one file exempt), every table must have its expected number of
rows, and every summary value must match the expectation checked in below.
"""

import math
import re

import pytest

from oamsim.cli import RUNNERS, main

# Relative tolerances.  Closed forms, seeded Poisson counts and arithmetic on
# them reproduce to round-off; 1e-9 leaves room for another BLAS or libm.
# Fitted and optimised values also depend on the iteration path of the
# least-squares solvers, so they get 1e-6.
EXACT = 1e-9
SOLVER = 1e-6

# table -> number of data rows at the default config
ROWS = {
    "spiral": {"spiral_matrix.csv": 41 * 41, "spiral_spectrum.csv": 41, "spiral_summary.csv": 1},
    "angular": {"angular_map.csv": 64 * 64, "angular_conditional.csv": 64},
    "epr-reid": {"epr_profiles.csv": 21 + 64, "epr_summary.csv": 1},
    "bell": {"bell_curve.csv": 64, "bell_counts.csv": 16, "bell_summary.csv": 1},
    "tomo": {"tomo_counts.csv": 36, "tomo_rho.csv": 16, "tomo_summary.csv": 1},
    "ring": {"ring_profile.csv": 400},
    "modes": {"modes_summary.csv": 1},
}

# summary table -> column -> (expected value, relative tolerance)
SUMMARIES = {
    "spiral_summary.csv": {
        "fwhm": (68.78473976319461, SOLVER),
        "peak_count": (320, 0.0),
    },
    "epr_summary.csv": {
        "delta_ell_sq": (0.12411348018622494, SOLVER),
        "delta_phi_sq": (0.01994094317294283, SOLVER),
        "product": (0.0024749398553896773, SOLVER),
        "violated": ("true", None),
        "discrete_ell_var": (5.512353360768175, EXACT),
        "discrete_phi_var": (0.511043097208882, EXACT),
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
        "linear_entropy": (0.0024490075745453588, SOLVER),
        "threshold_p": (0.7071067811865476, EXACT),
        "threshold_fidelity": (0.7803300858899107, EXACT),
        "above_threshold": ("true", None),
        "concurrence": (0.9982996936365166, SOLVER),
    },
    "modes_summary.csv": {
        "area_mm2": (1.0, EXACT),
        "solid_angle_sr": (1e-06, EXACT),
        "wavelength_nm": (710.0, EXACT),
        "mode_count": (1.9837333862328896, EXACT),
    },
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """command -> (first output directory, second output directory)."""
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for command in RUNNERS:
        dirs = (root / f"{command}-1", root / f"{command}-2")
        for d in dirs:
            assert main([command, "--out", str(d)]) == 0
        out[command] = dirs
    return out


def tables(out_dir):
    return sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.txt")


def data_rows(path):
    # line 1 is the config-hash header; tomo_rho.csv has a dimension line instead
    # of a column header
    return path.read_text().splitlines()[2 if path.name != "tomo_rho.csv" else 1:]


def test_every_runner_is_covered():
    assert set(RUNNERS) == set(ROWS)


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


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_summary_values(runs, name):
    command = next(c for c, names in ROWS.items() if name in names)
    lines = (runs[command][0] / name).read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert set(row) == set(SUMMARIES[name])
    for column, (want, rel) in SUMMARIES[name].items():
        if rel is None:
            assert row[column] == want, column
        else:
            assert math.isclose(float(row[column]), want, rel_tol=rel, abs_tol=0.0), column


def test_count_column_forms(runs):
    # spiral_spectrum.csv has always written its counts as floats ("232.0"),
    # every other table as integers ("232")
    checked = 0
    for command, names in ROWS.items():
        for name in names:
            lines = (runs[command][0] / name).read_text().splitlines()
            columns = lines[1].split(",")
            if "count" not in columns:
                continue
            k = columns.index("count")
            form = r"\d+\.0" if name == "spiral_spectrum.csv" else r"\d+"
            assert all(re.fullmatch(form, line.split(",")[k]) for line in lines[2:]), name
            checked += 1
    assert checked == 6


def test_validate_accepts_defaults(capsys):
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("ell_max, code", [(1, 1), (2, 0), (20, 0), (21, 1)])
def test_validate_epr_ell_max_bound(capsys, ell_max, code):
    # 2 ell_max + 1 bins must leave at least four points for the Gaussian fit
    assert main(["validate", "--set", f"experiment.epr_ell_max={ell_max}"]) == code
    out = capsys.readouterr().out
    assert ("experiment.epr_ell_max" in out) == bool(code)


@pytest.mark.parametrize("n_phi, offset, code", [(16, 0.001, 1), (80, 0.001, 1), (81, 0.001, 0), (16, 0.0, 0)])
def test_validate_offset_azimuthal_grid_bound(capsys, n_phi, offset, code):
    # the offset joint integrand reaches azimuthal order 2 * ell_max = 40 at the
    # default config, which n_phi <= 80 aliases onto allowed pairs
    assert main(["validate", "--set", f"source.grid_points_azimuthal={n_phi}",
                 "--set", f"source.signal_offset_waists={offset}"]) == code
    out = capsys.readouterr().out
    assert ("source.grid_points_azimuthal" in out) == bool(code)


def test_smallest_accepted_epr_ell_max_runs(tmp_path):
    assert main(["epr-reid", "--set", "experiment.epr_ell_max=2", "--out", str(tmp_path)]) == 0
