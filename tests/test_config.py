import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsim.cli import main
from oamsim.config import INTERVALS, SCHEMA, ConfigError, _as_text, canonical_lines, config_hash, load_config, validate

finite = st.floats(allow_nan=False, allow_infinity=False)
# '#' starts a comment and line breaks end the entry, so the format cannot
# carry them; surrounding blanks are stripped on parse.
plain_text = st.text(alphabet=string.ascii_letters + string.digits + "_-./= ",
                     min_size=1).map(str.strip).filter(bool)


def value_for(key):
    parser, default, _ = SCHEMA[key]
    if isinstance(default, tuple):
        return st.lists(st.integers(-50, 50), max_size=6).map(tuple)
    if parser is int:
        return st.integers(-10**6, 10**6)
    if parser is float:
        return finite
    return plain_text


any_values = st.fixed_dictionaries({key: value_for(key) for key in SCHEMA})


def sets(values: dict) -> list[str]:
    """``--set`` pairs of typed values, each written as canonical_lines writes it."""
    return [f"{key}={_as_text(value)}" for key, value in values.items()]


def write(tmp_path_factory, text: str) -> str:
    path = tmp_path_factory.mktemp("config") / "scenario.cfg"
    path.write_text(text)
    return str(path)


@settings(max_examples=60, deadline=None)
@given(any_values)
def test_canonical_lines_round_trip(tmp_path_factory, values):
    # --set pairs in, canonical lines out, and the file of those lines reads back the same config
    config = load_config(overrides=sets(values))
    assert config == values
    again = load_config(write(tmp_path_factory, "\n".join(canonical_lines(config))))
    assert again == config
    assert config_hash(again) == config_hash(config)


@settings(max_examples=60, deadline=None)
@given(plain_text.filter(lambda k: k not in SCHEMA and "=" not in k), plain_text)
def test_rejects_keys_outside_schema(tmp_path_factory, key, value):
    with pytest.raises(ConfigError, match=r"^line 1: unknown key"):
        load_config(write(tmp_path_factory, f"{key} = {value}"))
    with pytest.raises(ConfigError, match=r"^--set: unknown key"):
        load_config(overrides=[f"{key}={value}"])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SCHEMA)), st.data())
def test_rejects_duplicate_keys(tmp_path_factory, key, data):
    first, second = (str(data.draw(value_for(key))) for _ in range(2))
    others = data.draw(st.lists(st.sampled_from(sorted(set(SCHEMA) - {key})), unique=True))
    lines = [f"{other} = {SCHEMA[other][1]}" for other in others]
    lines.insert(data.draw(st.integers(0, len(lines))), f"{key} = {first}")
    lines.append(f"{key} = {second}")
    with pytest.raises(ConfigError, match=f"^line {len(lines)}: duplicate"):
        load_config(write(tmp_path_factory, "\n".join(lines)))


def test_default_config_hash():
    assert config_hash(load_config()) == "655e9c5b304da688c8585a6aa6efbe78e04f36f7c927cbce5004545eefda14df"


# a file with comments, blank lines and unspaced or indented entries, and
# --set pairs that replace a file value, and each other
MIXED_FILE = """# a scenario with comments, blank lines and spaced values

seed = 7   # a trailing comment
source.gamma=1.5
  source.ell_max = 12
tomo.d = 3
tomo.ell_values = 1, 0, -1
experiment.angular_points = 32
bell.ell = 3
"""
MIXED_SETS = ["source.gamma=0.8", "seed=9", "seed=11", "experiment.pair_rate=5e4", "tomo.ell_values=1,-1,0"]


def test_file_and_set_pairs_config_hash(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(MIXED_FILE)
    config = load_config(str(path), MIXED_SETS)
    assert (config["seed"], config["source.gamma"], config["source.ell_max"]) == (11, 0.8, 12)
    assert config["tomo.ell_values"] == (1, -1, 0)
    want = "9901721918bda2b574d7a55034a3c3aeb7d3b51349e6f71a2a325ff7ee38818a"
    assert config_hash(config) == want
    # the command line reads the same config, and writes its hash on each table
    args = ["--config", str(path), *(arg for pair in MIXED_SETS for arg in ("--set", pair))]
    assert main(["modes", *args, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "modes_summary.csv").read_text().startswith(f"# config_hash={want} seed=11\n")


def test_later_set_wins(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("seed = 1\n")
    assert load_config(str(path))["seed"] == 1
    assert load_config(str(path), ["seed=2"])["seed"] == 2
    assert load_config(str(path), ["seed=2", "seed=3"])["seed"] == 3
    assert load_config(overrides=["seed=3", "seed=2"])["seed"] == 2
    # a --set value is taken whole: '#' starts no comment there
    with pytest.raises(ConfigError, match="cannot parse '1 # x'"):
        load_config(str(path), ["seed=1 # x"])


@pytest.mark.parametrize("text, pairs, message", [
    (None, ["seed"], "--set: expected 'key = value', got 'seed'"),
    ("# header\nseed = 1\nseed = 2\n", [], "line 3: duplicate key 'seed'"),
    ("seed = 1\nseed\n", [], "line 2: expected 'key = value', got 'seed'"),
])
def test_malformed_entries_exit_one(tmp_path, capsys, text, pairs, message):
    # an unknown key from either source exits 1 in test_rejects_removed_keys
    args = [arg for pair in pairs for arg in ("--set", pair)]
    if text is not None:
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        args += ["--config", str(path)]
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("key, value", [("tomo.threshold_p", "0.5"), ("output_dir", "x")])
def test_rejects_removed_keys(tmp_path, capsys, key, value):
    # the Bell threshold comes from tomo.d alone, and --out alone names the output directory
    path = tmp_path / "scenario.cfg"
    path.write_text(f"{key} = {value}\n")
    for args in (["--config", str(path)], ["--set", f"{key}={value}"]):
        assert main(["validate", *args]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err


def problems_at(key, value):
    """validate's messages with ``key`` at ``value`` and every other key at its default.

    tomo.d comes with ell values closed under negation, 0 for odd d, and a
    tomo.ell_values entry e with -e, so that no cross-key rule is in play."""
    overrides = {key: value}
    if key == "tomo.d":
        overrides["tomo.ell_values"] = tuple(e for k in range(1, value // 2 + 1) for e in (k, -k)) + (0,) * (value % 2)
    if key == "tomo.ell_values":
        overrides[key] = (value, -value)
    return validate(load_config(overrides=sets(overrides)))


def rejected(key, value):
    prefix = f"{key} must lie in {INTERVALS[key].text} (got "
    return any(problem.startswith(prefix) for problem in problems_at(key, value))


@pytest.mark.parametrize("key", SCHEMA)
def test_default_lies_in_its_interval(key):
    default = SCHEMA[key][1]
    assert all(x in INTERVALS[key] for x in (default if isinstance(default, tuple) else [default]))


@pytest.mark.parametrize("key", SCHEMA)
def test_validate_holds_each_key_to_its_interval(key):
    # a closed end is accepted and the nearest value past it rejected; an open
    # end is rejected, and so is NaN
    interval, is_float = INTERVALS[key], SCHEMA[key][0] is float
    for end, closed, outward in ((interval.lo, interval.closed_lo, -1), (interval.hi, interval.closed_hi, 1)):
        if closed:
            end = end if is_float else int(end)
            assert problems_at(key, end) == []
            assert rejected(key, math.nextafter(end, outward * math.inf) if is_float else end + outward)
        elif is_float or math.isfinite(end):  # no integer is infinite
            assert rejected(key, end if is_float else int(end))
    if is_float:
        assert rejected(key, math.nan)
