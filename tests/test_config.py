import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsim.cli import main
from oamsim.config import INTERVALS, SCHEMA, ConfigError, build_config, parse_config_text, validate

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


@settings(max_examples=60, deadline=None)
@given(any_values)
def test_canonical_lines_round_trip(values):
    config = build_config(overrides=values)
    text = "\n".join(config.canonical_lines())
    again = build_config(parse_config_text(text))
    assert again.values == config.values
    assert again.hash() == config.hash()


@settings(max_examples=60, deadline=None)
@given(plain_text.filter(lambda k: k not in SCHEMA and "=" not in k), plain_text)
def test_rejects_keys_outside_schema(key, value):
    with pytest.raises(ConfigError):
        parse_config_text(f"{key} = {value}")
    with pytest.raises(ConfigError):
        build_config(overrides={key: value})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SCHEMA)), st.data())
def test_rejects_duplicate_keys(key, data):
    first, second = (str(data.draw(value_for(key))) for _ in range(2))
    others = data.draw(st.lists(st.sampled_from(sorted(set(SCHEMA) - {key})), unique=True))
    lines = [f"{other} = {SCHEMA[other][1]}" for other in others]
    lines.insert(data.draw(st.integers(0, len(lines))), f"{key} = {first}")
    lines.append(f"{key} = {second}")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("\n".join(lines))


@pytest.mark.parametrize("key, value", [("tomo.threshold_p", "0.5"), ("output_dir", "x")])
def test_rejects_removed_keys(tmp_path, capsys, key, value):
    # the Bell threshold comes from tomo.d alone, and --out alone names the output directory
    path = tmp_path / "scenario.cfg"
    path.write_text(f"{key} = {value}\n")
    for args in (["--config", str(path)], ["--set", f"{key}={value}"]):
        assert main(["validate", *args]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("source.ell_max", 2.5), ("seed", 1.5), ("tomo.d", True),
                                        ("tomo.ell_values", (1.5, -1.5))])
def test_rejects_typed_values_no_file_could_hold(key, value):
    # a typed override is parsed from its text, as a file would give it
    with pytest.raises(ConfigError, match="cannot parse"):
        build_config(overrides={key: value})


def test_typed_values_read_as_their_text():
    config = build_config(overrides={"seed": 7, "source.gamma": 2, "tomo.ell_values": (2, -2)})
    again = build_config(overrides={"seed": "7", "source.gamma": "2", "tomo.ell_values": "2,-2"})
    assert config.values == again.values
    assert config.hash() == again.hash()
    assert isinstance(config["source.gamma"], float)


def problems_at(key, value):
    """validate's messages with ``key`` at ``value`` and every other key at its default.

    tomo.d comes with ell values closed under negation, 0 for odd d, and a
    tomo.ell_values entry e with -e, so that no cross-key rule is in play."""
    overrides = {key: value}
    if key == "tomo.d":
        overrides["tomo.ell_values"] = tuple(e for k in range(1, value // 2 + 1) for e in (k, -k)) + (0,) * (value % 2)
    if key == "tomo.ell_values":
        overrides[key] = (value, -value)
    return validate(build_config(overrides=overrides))


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
