"""Config resolution: schema, defaults, semantic checks, presets."""

import copy
import importlib.util
import json
import math
import re
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, strategies as st

from spindetect import load_preset, preset_names, resolve_config
from spindetect.config import (CONFIG_SCHEMA, SCHEMA_KEYWORDS, _IS_TYPE, _first_schema_error,
                               _schema_errors, config_from_file, get_by_path,
                               set_by_path)
from spindetect.errors import ConfigurationError
from spindetect.runner import run_config

from helpers import (PROPERTY_SETTINGS, rates_config, small_compare_config,
                     small_continuum_config)

_WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# configs that real runs use, the starting points of the property tests:
# the three benchmark workloads and the figure1 preset
BASE_CONFIGS = [workloads.build_config(name, 1) for name in sorted(workloads.BUILDERS)]
BASE_CONFIGS.append(load_preset("figure1"))


def test_figure1_preset_resolves():
    raw = load_preset("figure1")
    cfg = resolve_config(raw)
    assert cfg["kind"] == "compare"
    assert cfg["include_shift"] is True
    assert cfg["packet"]["focus_time_s"] == 0.0
    assert cfg["detector"]["sensitivity"]["kind"] == "half_line"
    assert cfg["numerics"]["continuum"]["write_fields"] is False
    assert cfg["comparison"]["window_recurrence_fraction"] == [0.0, 0.8]


def test_resolution_is_idempotent():
    cfg = resolve_config(small_compare_config())
    assert resolve_config(cfg) == cfg


def _integer_paths(schema, where=()):
    """Dotted paths of every "integer" field of the schema."""
    if schema.get("type") == "integer":
        yield ".".join(where)
    for key, sub in schema.get("properties", {}).items():
        yield from _integer_paths(sub, where + (key,))


def test_integral_floats_run_as_ints(tmp_path):
    """9.0 passes the schema's integer type; the run must then see an int.
    The compare run reads every integer field of the schema, so each is
    given as a float here."""
    cfg = small_compare_config()
    paths = sorted(_integer_paths(CONFIG_SCHEMA))
    assert paths == ["bath.modes", "comparison.n_resample",
                     "numerics.continuum.snapshots", "numerics.discrete.k_nodes"]
    for path in paths:
        cfg = set_by_path(cfg, path, float(get_by_path(cfg, path)))
    manifest = run_config(cfg, tmp_path)
    written = json.loads((tmp_path / "manifest.json").read_text())
    for resolved in (manifest["config"], written["config"]):
        for path in paths:
            value = get_by_path(resolved, path)
            assert type(value) is int and value == get_by_path(cfg, path)


def test_preset_listing_and_unknown_preset():
    assert "figure1" in preset_names()
    with pytest.raises(ConfigurationError, match="figure1"):
        load_preset("no-such-preset")


def test_unknown_keys_fail_with_path():
    cfg = rates_config()
    cfg["bogus"] = 1
    with pytest.raises(ConfigurationError, match="bogus"):
        resolve_config(cfg)
    cfg = rates_config()
    cfg["packet"]["mass"] = 1.0
    with pytest.raises(ConfigurationError, match="packet"):
        resolve_config(cfg)


@pytest.mark.parametrize("path", ["numerics.discrete.chunk_rows",
                                  "numerics.discrete.k_window_sigmas",
                                  "numerics.continuum.kinetic_safety"])
def test_removed_knobs_are_rejected(path):
    # chunk_rows was never read, and the momentum window and the kinetic
    # guard are constants of packets and conditional; configs that still set
    # one (manifests written before its removal) fail with its path
    block, key = path.rsplit(".", 1)
    cfg = set_by_path(small_compare_config(), path, 8.0)
    with pytest.raises(ConfigurationError, match=rf"{re.escape(block)}.*{key}"):
        resolve_config(cfg)
    assert key not in get_by_path(resolve_config(small_compare_config()), block)


def _defaults(schema, where=()):
    """(location, property schema) of every property with a "default"."""
    for key, sub in schema.get("properties", {}).items():
        if "default" in sub:
            yield where + (key,), sub
        yield from _defaults(sub, where + (key,))


def test_every_default_passes_its_own_schema():
    found = list(_defaults(CONFIG_SCHEMA))
    assert len(found) == 15
    for where, sub in found:
        assert list(_schema_errors(sub["default"], sub)) == [], ".".join(where)


def test_defaults_fill_only_written_blocks():
    """numerics, comparison and the sensitivity are filled in whole; the
    numerics blocks and the sweep have no default, so their defaults apply
    only to a block the config writes."""
    cfg = resolve_config(rates_config())
    assert cfg["numerics"] == {}
    assert cfg["comparison"] == {"window_recurrence_fraction": [0.0, 0.8],
                                 "n_resample": 2048}
    assert cfg["detector"]["sensitivity"] == {"kind": "half_line", "start_l0": 0.0}
    assert "sweep" not in cfg
    raw = small_compare_config()
    for block, keys in (("discrete", ("k_nodes", "right_spacing_l0")),
                        ("continuum", ("grid_spacing_l0", "snapshots"))):
        for key in keys:
            del raw["numerics"][block][key]
    num = resolve_config(raw)["numerics"]
    assert (num["discrete"]["k_nodes"], num["discrete"]["right_spacing_l0"]) == (2001, 0.02)
    assert ({k: num["continuum"][k] for k in ("grid_spacing_l0", "snapshots", "write_fields")}
            == {"grid_spacing_l0": 0.0075, "snapshots": 512, "write_fields": False})


def test_nonpositive_width_is_named():
    cfg = rates_config()
    cfg["packet"]["momentum_width_hbar_per_m"] = 0.0
    with pytest.raises(ConfigurationError, match="momentum_width_hbar_per_m"):
        resolve_config(cfg)


def test_kind_subcommand_mismatch():
    cfg = small_compare_config()
    with pytest.raises(ConfigurationError, match="compare"):
        resolve_config(cfg, kind="rates")
    # matching explicit kind is fine
    assert resolve_config(cfg, kind="compare")["kind"] == "compare"


def test_kind_requirements():
    cfg = small_compare_config()
    del cfg["numerics"]["discrete"]
    with pytest.raises(ConfigurationError, match="numerics.discrete"):
        resolve_config(cfg)
    cfg = small_compare_config()
    del cfg["bath"]["modes"]
    with pytest.raises(ConfigurationError, match="bath.modes"):
        resolve_config(cfg)
    cfg = rates_config()
    del cfg["bath"]
    with pytest.raises(ConfigurationError, match="bath"):
        resolve_config(cfg)


def test_missing_kind_policy():
    cfg = rates_config()
    del cfg["kind"]
    with pytest.raises(ConfigurationError, match="no run kind"):
        resolve_config(cfg)
    resolved = resolve_config(cfg, require_kind=False)
    assert "kind" not in resolved


def test_continuum_needs_a_rate_source():
    cfg = small_continuum_config()
    del cfg["bath"]
    with pytest.raises(ConfigurationError, match="rates_override"):
        resolve_config(cfg)
    cfg["rates_override"] = {"decay_per_s": 1.0e7, "shift_per_s": -2.0e7}
    assert resolve_config(cfg)["kind"] == "continuum"


def test_bath_cutoff_exclusivity():
    cfg = rates_config()
    cfg["bath"]["cutoff_per_s"] = 1.1e9
    with pytest.raises(ConfigurationError, match="exactly one"):
        resolve_config(cfg)
    del cfg["bath"]["cutoff_ratio"]
    assert resolve_config(cfg)["kind"] == "rates"
    del cfg["bath"]["cutoff_per_s"]
    with pytest.raises(ConfigurationError, match="exactly one"):
        resolve_config(cfg)


def test_sensitivity_variants():
    cfg = rates_config()
    cfg["detector"]["sensitivity"] = {"kind": "interval", "start_l0": 0.0}
    with pytest.raises(ConfigurationError, match="width_l0"):
        resolve_config(cfg)
    cfg["detector"]["sensitivity"] = {"kind": "tabulated", "x_l0": [0.0, 1.0]}
    with pytest.raises(ConfigurationError, match="values"):
        resolve_config(cfg)
    cfg["detector"]["sensitivity"] = {"kind": "tabulated", "x_l0": [0.0, 1.0, 2.0],
                                      "values": [0.0, 1.0]}
    with pytest.raises(ConfigurationError, match="equal length"):
        resolve_config(cfg)
    cfg["detector"]["sensitivity"] = {"kind": "tabulated", "x_l0": [0.0, 1.0],
                                      "values": [0.0, 1.0]}
    assert resolve_config(cfg)["detector"]["sensitivity"]["kind"] == "tabulated"


@pytest.mark.parametrize("kind, key, value", [
    ("half_line", "width_l0", 2.0), ("tabulated", "width_l0", 2.0),
    ("half_line", "x_l0", [0.0, 1.0]), ("interval", "x_l0", [0.0, 1.0]),
    ("half_line", "values", [0.0, 1.0]), ("interval", "values", [0.0, 1.0])])
def test_sensitivity_rejects_keys_its_kind_ignores(kind, key, value):
    sens = {"half_line": {"kind": "half_line"},
            "interval": {"kind": "interval", "width_l0": 3.0},
            "tabulated": {"kind": "tabulated", "x_l0": [0.0, 1.0],
                          "values": [0.0, 1.0]}}[kind]
    cfg = rates_config()
    cfg["detector"]["sensitivity"] = {**sens, key: value}
    with pytest.raises(ConfigurationError, match=rf"at detector\.sensitivity\.{key}: only"):
        resolve_config(cfg)


def test_window_orientation_checks():
    cfg = small_compare_config()
    cfg["numerics"]["continuum"]["time_stop_t0"] = -20.0
    with pytest.raises(ConfigurationError, match="time_start_t0"):
        resolve_config(cfg)
    cfg = small_compare_config()
    cfg["numerics"]["continuum"]["x_max_l0"] = -300.0
    with pytest.raises(ConfigurationError, match="x_min_l0"):
        resolve_config(cfg)
    cfg = small_compare_config()
    cfg["comparison"]["window_recurrence_fraction"] = [0.5, 0.2]
    with pytest.raises(ConfigurationError, match="increasing"):
        resolve_config(cfg)


def test_sweep_axis_validation():
    base = small_continuum_config()
    base["kind"] = "sweep"
    base["sweep"] = {"parameter": "bath.coupling_sqrt_per_s",
                     "factors": [0.5, 2.0], "run": "continuum"}
    cfg = resolve_config(base)
    assert cfg["sweep"]["run"] == "continuum"

    both = json.loads(json.dumps(base))
    both["sweep"]["values"] = [1.0, 2.0]
    with pytest.raises(ConfigurationError, match="exactly one"):
        resolve_config(both)

    # a missing key, and a path running on through a number
    for path in ("bath.nope", "bath.coupling_sqrt_per_s.nope"):
        missing = json.loads(json.dumps(base))
        missing["sweep"]["parameter"] = path
        with pytest.raises(ConfigurationError, match="not found"):
            resolve_config(missing)

    nonnum = json.loads(json.dumps(base))
    nonnum["sweep"]["parameter"] = "detector.sensitivity.kind"
    with pytest.raises(ConfigurationError, match="numeric"):
        resolve_config(nonnum)


def test_path_helpers():
    cfg = resolve_config(rates_config())
    assert get_by_path(cfg, "bath.coupling_sqrt_per_s") == 2782.0
    bumped = set_by_path(cfg, "bath.coupling_sqrt_per_s", 5000.0)
    assert get_by_path(bumped, "bath.coupling_sqrt_per_s") == 5000.0
    # the original is untouched
    assert get_by_path(cfg, "bath.coupling_sqrt_per_s") == 2782.0


def test_config_from_file_and_manifest_unwrap(tmp_path):
    cfg = rates_config()
    plain = tmp_path / "run.json"
    plain.write_text(json.dumps(cfg))
    assert config_from_file(plain) == cfg

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tool": "x", "config": cfg}))
    assert config_from_file(manifest) == cfg

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        config_from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="JSON object"):
        config_from_file(arr)


# ---------------------------------------------------------------------------
# the schema checker


@pytest.mark.parametrize("path", [
    "numerics.continuum.time_step_t0", "numerics.continuum.x_max_l0",
    "numerics.continuum.grid_spacing_l0", "detector.resonance_per_s",
    "packet.mean_velocity_m_per_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_rejected_with_path(path, value):
    cfg = set_by_path(small_continuum_config(), path, value)
    with pytest.raises(ConfigurationError, match=rf"at {path}: .*finite"):
        resolve_config(cfg)


def test_non_finite_integer_and_array_entries_are_rejected():
    cfg = small_compare_config()
    cfg["numerics"]["discrete"]["k_nodes"] = math.inf
    with pytest.raises(ConfigurationError, match=r"numerics\.discrete\.k_nodes"):
        resolve_config(cfg)
    cfg = small_compare_config()
    cfg["comparison"]["window_recurrence_fraction"] = [0.0, math.nan]
    with pytest.raises(ConfigurationError,
                       match=r"comparison\.window_recurrence_fraction\.1: .*finite"):
        resolve_config(cfg)


def _schema_nodes(schema, where=()):
    """(location, schema) of every schema object reachable in CONFIG_SCHEMA."""
    yield where, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_nodes(sub, where + (key,))
    if "items" in schema:
        yield from _schema_nodes(schema["items"], where + ("[]",))


def _unchecked_keywords(schema) -> list[str]:
    problems = []
    for where, node in _schema_nodes(schema):
        name = ".".join(where) or "<root>"
        problems += [f"{name}: {key}" for key in sorted(set(node) - SCHEMA_KEYWORDS)]
        if "type" in node and node["type"] not in _IS_TYPE:
            problems.append(f"{name}: type {node['type']!r}")
        if node.get("additionalProperties", False) is not False:
            problems.append(f"{name}: additionalProperties other than false")
    return problems


def test_guard_sees_an_unchecked_keyword():
    schema = {"type": "object", "properties": {
        "a": {"type": "string", "pattern": "^x"},
        "b": {"type": "array", "items": {"type": "null"}},
        "c": {"type": "object", "additionalProperties": {"type": "number"}}}}
    assert _unchecked_keywords(schema) == [
        "a: pattern", "b.[]: type 'null'", "c: additionalProperties other than false"]


def test_schema_uses_only_checked_keywords():
    # a keyword the checker does not implement would be ignored silently
    assert _unchecked_keywords(CONFIG_SCHEMA) == []


def _first_error_path(instance):
    error = _first_schema_error(instance)
    return error[0] if error else None


def _oracle_first_error_path(instance):
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    return tuple(errors[0].absolute_path) if errors else None


def _schema_at(path):
    node = CONFIG_SCHEMA
    for part in path:
        node = node["items"] if isinstance(part, int) else node["properties"][part]
    return node


def _locations(node, path=()):
    """(path, value) of every node below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _locations(child, path + (key,))


def _bad_values(schema, value):
    """Replacement values that probe each keyword of the schema at a leaf."""
    out = ["text", None, {}, [], True, False, 0, -1.5]
    out += [schema[key] for key in ("minimum", "maximum", "exclusiveMinimum",
                                    "exclusiveMaximum") if key in schema]
    if schema.get("type") == "integer" and isinstance(value, int):
        out.append(float(value))
    if isinstance(value, str):
        out += ["", "not-a-kind"]
    return out


# raw and resolved: the resolved ones carry every defaulted block
_MUTATION_BASES = BASE_CONFIGS + [resolve_config(c) for c in BASE_CONFIGS]


def _node(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def _mutate(data, cfg):
    places = list(_locations(cfg))
    mutation = data.draw(st.sampled_from(["drop", "unknown", "leaf", "array", "sweep"]))
    if mutation == "drop":
        path = data.draw(st.sampled_from([p for p, _ in places if isinstance(p[-1], str)]))
        del _node(cfg, path[:-1])[path[-1]]
    elif mutation == "unknown":
        path = data.draw(st.sampled_from(
            [()] + [p for p, v in places if isinstance(v, dict)]))
        _node(cfg, path)["unexpected_key"] = 1.0
    elif mutation == "leaf":
        path, value = data.draw(st.sampled_from(places))
        bad = data.draw(st.sampled_from(_bad_values(_schema_at(path), value)))
        _node(cfg, path[:-1])[path[-1]] = bad
    elif mutation == "array":
        arrays = [(p, v) for p, v in places if isinstance(v, list)]
        assume(arrays)
        path, value = data.draw(st.sampled_from(arrays))
        _node(cfg, path[:-1])[path[-1]] = data.draw(st.sampled_from(
            [[], value[:1], value + value[-1:], ["text"] * len(value)]))
    else:
        cfg["sweep"] = {"parameter": ""}


@PROPERTY_SETTINGS
@given(data=st.data())
def test_checker_agrees_with_jsonschema(data):
    # same verdict and same first error path as the reference validator on
    # reference configs with one to three mutations (non-finite numbers, the
    # one intended difference, are not drawn)
    cfg = copy.deepcopy(data.draw(st.sampled_from(_MUTATION_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, cfg)
    assert _first_error_path(cfg) == _oracle_first_error_path(cfg)


_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_positive = st.floats(min_value=1e-3, max_value=1e3)
_OPTIONAL_BLOCKS = {
    "label": st.text(max_size=8),
    "include_shift": st.booleans(),
    "rates_override": st.fixed_dictionaries(
        {"decay_per_s": _positive}, optional={"shift_per_s": _finite}),
    "comparison": st.fixed_dictionaries({}, optional={
        "window_recurrence_fraction": st.sampled_from([[0.0, 0.5], [0.1, 0.9]]),
        "n_resample": st.integers(2, 4096)}),
    "sweep": st.fixed_dictionaries(
        {"parameter": st.just("detector.resonance_per_s"),
         "factors": st.lists(_positive, min_size=1, max_size=3)},
        optional={"run": st.sampled_from(["discrete", "continuum", "compare"])}),
}
_SENSITIVITIES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("half_line")}, optional={"start_l0": _finite}),
    st.fixed_dictionaries({"kind": st.just("interval"), "width_l0": _positive},
                          optional={"start_l0": _finite}),
    st.just({"kind": "tabulated", "x_l0": [0.0, 4.0], "values": [0.0, 1.0]}))


@st.composite
def _configs_with_optional_blocks(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    for key, block in _OPTIONAL_BLOCKS.items():
        if draw(st.booleans()):
            cfg[key] = draw(block)
    if draw(st.booleans()):
        cfg["detector"]["sensitivity"] = draw(_SENSITIVITIES)
    for key in ("focus_time_s", "focus_position_m"):
        if draw(st.booleans()):
            cfg["packet"][key] = draw(_finite)
    return cfg


@PROPERTY_SETTINGS
@given(raw=_configs_with_optional_blocks())
def test_resolution_is_idempotent_and_survives_the_manifest(raw):
    cfg = resolve_config(raw)
    assert resolve_config(cfg) == cfg
    # a run's manifest, read back as a config, re-resolves to the run's config
    rates = dict(raw, kind="rates", bath=workloads.build_config("tabulated-fields", 1)["bath"])
    with tempfile.TemporaryDirectory() as out:
        manifest = run_config(rates, Path(out))
        again = resolve_config(config_from_file(Path(out) / "manifest.json"))
    assert again == manifest["config"] == resolve_config(rates)
