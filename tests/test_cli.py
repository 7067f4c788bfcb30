"""Golden tests for the command-line runner.

Every subcommand runs twice at the default config through ``oamsim.cli.main``,
and so do two runs with a misaligned signal arm, which take the quadrature
path of the state build.  The two runs must write byte-identical tables (the
manifest records timings and is the one file exempt), every table must have
its expected number of rows, and every summary value must match the
expectation checked in below.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from oamsim.cli import RUNNERS, RunContext, main
from oamsim.config import build_config

# Relative tolerances.  Closed forms, seeded Poisson counts and arithmetic on
# them reproduce to round-off; 1e-9 leaves room for another BLAS or libm.
# Fitted and optimised values also depend on the iteration path of the
# least-squares solvers, so they get 1e-6.
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


# misaligned runs: name -> (subcommand, overrides)
OFFSET_RUNS = {
    "spiral-offset": ("spiral", ["source.ell_max=10", "source.signal_offset_waists=0.1"]),
    "epr-reid-offset": ("epr-reid", ["source.signal_offset_waists=0.1"]),
}

OFFSET_SUMMARIES = {
    "spiral-offset": {
        "fwhm": (36.63455168869707, SOLVER),
        "peak_count": (562, 0.0),
    },
    "epr-reid-offset": {
        "delta_ell_sq": (0.13147582942779673, SOLVER),
        "delta_phi_sq": (0.02163619814393092, SOLVER),
        "product": (0.002844637096637474, SOLVER),
        "violated": ("true", None),
        "discrete_ell_var": (5.471020633472845, EXACT),
        "discrete_phi_var": (0.5220012571086738, EXACT),
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
    # line 1 is the config-hash header; tomo_rho.csv has a dimension line instead
    # of a column header
    return path.read_text().splitlines()[2 if path.name != "tomo_rho.csv" else 1:]


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
    assert len(columns) == 8


def test_count_columns_are_pinned(runs):
    digests = {key: hashlib.sha256("\n".join(cells).encode()).hexdigest()
               for key, cells in count_columns(runs).items()}
    assert digests == COUNT_DIGESTS


def test_validate_accepts_defaults(capsys):
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("ell_max, code", [(1, 1), (2, 0), (20, 0), (21, 1)])
def test_validate_epr_ell_max_bound(capsys, ell_max, code):
    # 2 ell_max + 1 bins must leave at least four points for the Gaussian fit
    assert main(["validate", "--set", f"experiment.epr_ell_max={ell_max}"]) == code
    out = capsys.readouterr().out
    assert ("experiment.epr_ell_max" in out) == bool(code)


@pytest.mark.parametrize("seconds, code", [("0", 1), ("1e-3", 0)])
def test_validate_integration_time_bound(capsys, seconds, code):
    # with no integration time every scan has zero counts, and four of five scans fail
    assert main(["validate", "--set", f"detector.integration_s={seconds}"]) == code
    assert ("detector.integration_s" in capsys.readouterr().out) == bool(code)


@pytest.mark.parametrize("key", ["source.grid_points_radial", "source.grid_points_azimuthal"])
def test_validate_rejects_removed_grid_keys(capsys, key):
    # the offset state needs no quadrature grid, so its two size keys are unknown
    assert main(["validate", "--set", f"{key}=256"]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_validate_accepts_offset_at_largest_windows(capsys):
    # the exact rule has no aliasing bound to enforce at any ell window validate accepts
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
                                             ("angular", "experiment.epr_ell_max")])
def test_offset_runs_at_validate_corners(tmp_path, gamma, command, window):
    assert main([command, "--set", f"source.gamma={gamma}", "--set", "source.signal_offset_waists=10",
                 "--set", f"{window}=20", "--out", str(tmp_path)]) == 0


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
    ctx = RunContext(build_config(), tmp_path, "test")
    ctx.write_table("t.csv", columns)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    cells = [values if np.ndim(values) else [values] * 3 for values in columns.values()]
    assert lines[1:] == [",".join(columns)] + [",".join(map(per_cell, row)) for row in zip(*cells)]


@pytest.mark.parametrize("values", [
    np.array([1, 2.0, True], dtype=object),
    np.array([1.0 + 2.0j, 3.0]),
    np.zeros((2, 2)),
], ids=["mixed", "complex", "2-D"])
def test_write_table_rejects_columns_it_cannot_format(tmp_path, values):
    ctx = RunContext(build_config(), tmp_path, "test")
    with pytest.raises(TypeError):
        ctx.write_table("t.csv", {"ok": np.arange(len(values)), "bad": values})
    assert not (tmp_path / "t.csv").exists()


def test_smallest_accepted_epr_ell_max_runs(tmp_path):
    assert main(["epr-reid", "--set", "experiment.epr_ell_max=2", "--out", str(tmp_path)]) == 0
