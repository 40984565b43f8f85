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
from spindetect.config import (CONFIG_SCHEMA, KIND_READS, SCHEMA_KEYWORDS, _IS_TYPE,
                               _covers, _first_schema_error, _schema_errors,
                               config_from_file, get_by_path, set_by_path)
from spindetect.errors import ConfigurationError
from spindetect.runner import run_config

from helpers import (PROPERTY_SETTINGS, fluorescence_config, rates_config,
                     small_compare_config, small_continuum_config, sweep_tradeoff_config)

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
    assert len(found) == 16
    for where, sub in found:
        assert list(_schema_errors(sub["default"], sub)) == [], ".".join(where)


def test_defaults_fill_only_written_blocks():
    """Defaults go only where the run kind reads: a rates run gets no
    numerics, comparison, sensitivity or include_shift, a fluorescence run
    only the comparison's n_resample, a continuum run no comparison.  The
    numerics blocks and the sweep have no default, so their defaults apply
    only to a block the config writes."""
    cfg = resolve_config(rates_config())
    assert list(cfg) == ["kind", "packet", "detector", "bath"]
    assert cfg["detector"] == {"resonance_per_s": rates_config()["detector"]["resonance_per_s"]}
    cfg = resolve_config(fluorescence_config())
    assert cfg["comparison"] == {"n_resample": 2048}
    assert list(cfg["numerics"]) == ["continuum"]
    assert "include_shift" not in cfg and "sensitivity" not in cfg["detector"]
    cfg = resolve_config(small_continuum_config())
    assert (cfg["include_shift"], cfg["detector"]["sensitivity"]) == (
        True, {"kind": "half_line", "start_l0": 0.0})
    assert "comparison" not in cfg and "sweep" not in cfg
    raw = small_compare_config()
    del raw["comparison"]
    assert resolve_config(raw)["comparison"] == {"window_recurrence_fraction": [0.0, 0.8],
                                                 "n_resample": 2048}
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
    # an explicit kind is checked like a written one
    del cfg["kind"]
    with pytest.raises(ConfigurationError, match=r"at kind: 'bogus' is not one of"):
        resolve_config(cfg, kind="bogus")


def test_override_shift_defaults_to_zero():
    # the one default build_scene used to hold outside the schema
    cfg = small_continuum_config()
    del cfg["bath"]
    cfg["rates_override"] = {"decay_per_s": 1.0e7}
    assert resolve_config(cfg)["rates_override"] == {"decay_per_s": 1.0e7,
                                                     "shift_per_s": 0.0}


def _discrete_config():
    cfg = small_compare_config()
    cfg["kind"] = "discrete"
    del cfg["numerics"]["continuum"], cfg["comparison"]
    return cfg


def _sweep_of(cfg, run="continuum"):
    return dict(cfg, kind="sweep", sweep={"parameter": "packet.mean_velocity_m_per_s",
                                          "values": [1.7, 1.8], "run": run})


# each block or key that a run kind used to accept and then ignore; the
# error names the outermost path the kind reads nothing of
_DISCRETE_BLOCK = small_compare_config()["numerics"]["discrete"]
_UNREAD = [
    (fluorescence_config, "bath", rates_config()["bath"], "bath"),
    (fluorescence_config, "include_shift", True, "include_shift"),
    (fluorescence_config, "rates_override", {"decay_per_s": 1.0e9}, "rates_override"),
    (fluorescence_config, "detector.sensitivity", {"kind": "half_line"},
     "detector.sensitivity"),
    (fluorescence_config, "numerics.discrete", _DISCRETE_BLOCK, "numerics.discrete"),
    (fluorescence_config, "comparison", {"window_recurrence_fraction": [0.0, 0.5]},
     "comparison.window_recurrence_fraction"),
    (small_continuum_config, "numerics.discrete", _DISCRETE_BLOCK, "numerics.discrete"),
    (small_continuum_config, "comparison", {}, "comparison"),
    (small_continuum_config, "fluorescence", fluorescence_config()["fluorescence"],
     "fluorescence"),
    (small_continuum_config, "sweep", {"parameter": "bath.modes", "values": [8.0]}, "sweep"),
    (rates_config, "numerics", {"continuum": small_continuum_config()["numerics"]["continuum"]},
     "numerics"),
    (rates_config, "include_shift", False, "include_shift"),
    (rates_config, "detector.sensitivity", {"kind": "half_line"}, "detector.sensitivity"),
    (_discrete_config, "rates_override", {"decay_per_s": 1.0e7}, "rates_override"),
    (_discrete_config, "include_shift", True, "include_shift"),
]


@pytest.mark.parametrize("build, path, value, named", _UNREAD,
                         ids=[f"{b.__name__}-{p}" for b, p, _, _ in _UNREAD])
def test_blocks_a_kind_does_not_read_are_rejected(build, path, value, named):
    cfg = set_by_path(build(), path, value)
    kind = cfg["kind"]
    with pytest.raises(ConfigurationError,
                       match=rf"at {re.escape(named)}: not read by {kind} runs$"):
        resolve_config(cfg)
    # as written without it, the config resolves
    resolve_config(build())


def test_sweeps_check_their_sub_run_kind():
    cfg = _sweep_of(small_continuum_config())
    assert resolve_config(cfg)["sweep"]["run"] == "continuum"
    del cfg["sweep"]["run"]
    assert resolve_config(cfg)["sweep"]["run"] == "continuum"
    cfg["comparison"] = {}
    with pytest.raises(ConfigurationError, match=r"at comparison: not read by continuum sweeps"):
        resolve_config(cfg)
    cfg["sweep"]["run"] = "compare"
    with pytest.raises(ConfigurationError,
                       match=r"at numerics\.discrete: required for compare sweeps"):
        resolve_config(cfg)
    assert resolve_config(_sweep_of(small_compare_config(), "compare"))["kind"] == "sweep"
    with pytest.raises(ConfigurationError, match=r"at sweep: required for continuum sweeps"):
        resolve_config(dict(small_continuum_config(), kind="sweep"))
    # what the sub-runs read is filled in, and each sub-run re-resolves as it
    resolved = resolve_config(sweep_tradeoff_config())
    assert resolved["include_shift"] is True and "comparison" not in resolved
    sub = dict(resolved, kind="continuum")
    del sub["sweep"]
    assert resolve_config(sub) == sub


@pytest.mark.parametrize("sensitivity", [
    {"kind": "interval", "width_l0": 3.0}, {"kind": "half_line", "start_l0": 3.0},
    {"kind": "tabulated", "x_l0": [0.0, 1.0], "values": [1.0, 1.0]}])
@pytest.mark.parametrize("build", [small_compare_config, _discrete_config,
                                   lambda: _sweep_of(_discrete_config(), "discrete")],
                         ids=["compare", "discrete", "discrete-sweep"])
def test_discrete_route_needs_a_half_line_at_the_origin(build, sensitivity, tmp_path,
                                                         monkeypatch):
    """The mode ladder is matched at a half-line edge at 0; any other
    sensitivity fails at resolve time, before a rate is computed."""
    from spindetect import runner

    def no_rates(*args):
        raise AssertionError("rates computed before the sensitivity was checked")

    monkeypatch.setattr(runner, "decay_rate_and_shift", no_rates)
    cfg = build()
    cfg["detector"]["sensitivity"] = sensitivity
    with pytest.raises(ConfigurationError, match=r"at detector\.sensitivity: the discrete"):
        run_config(cfg, tmp_path)
    cfg["detector"]["sensitivity"] = {"kind": "half_line", "start_l0": 0.0}
    assert resolve_config(cfg)["detector"]["sensitivity"]["start_l0"] == 0.0


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


@pytest.mark.parametrize("build, error", [
    (small_continuum_config, "at bath and rates_override: continuum runs take exactly one"),
    (small_compare_config, "at bath and rates_override: compare runs take exactly one"),
    (lambda: _sweep_of(small_continuum_config()),
     "at bath and rates_override: continuum sweeps take exactly one"),
    (rates_config, "at rates_override: not read by rates runs"),
], ids=["continuum", "compare", "continuum-sweep", "rates"])
def test_bath_and_override_are_exclusive(build, error):
    """Next to an override, a bath's coupling and cutoff are never read, and
    a rates run would only echo the override: a config with both fails."""
    cfg = build()
    cfg["rates_override"] = {"decay_per_s": 1.0e7}
    with pytest.raises(ConfigurationError, match=re.escape(error) + "$"):
        resolve_config(cfg)


def test_bath_cutoff_is_a_ratio_above_one():
    """The cutoff is given only as cutoff_ratio, cutoff / resonance: the
    closed-form rates need a resonance below the cutoff, so a ratio <= 1
    fails on validation, and an absolute cutoff_per_s is an unknown key."""
    cfg = rates_config()
    cfg["bath"]["cutoff_per_s"] = 1.0e8
    with pytest.raises(ConfigurationError,
                       match=r"at bath: .*'cutoff_per_s' was unexpected"):
        resolve_config(cfg)
    del cfg["bath"]["cutoff_per_s"]
    cfg["bath"]["cutoff_ratio"] = 1.0
    with pytest.raises(ConfigurationError, match=r"at bath\.cutoff_ratio: 1\.0 is less"):
        resolve_config(cfg)
    del cfg["bath"]["cutoff_ratio"]
    with pytest.raises(ConfigurationError,
                       match="at bath: 'cutoff_ratio' is a required property"):
        resolve_config(cfg)


def test_sensitivity_variants():
    cfg = small_continuum_config()
    cfg["detector"]["sensitivity"] = {"kind": "interval", "start_l0": 0.0}
    with pytest.raises(ConfigurationError,
                       match=r"at detector\.sensitivity\.width_l0: required for interval"):
        resolve_config(cfg)
    cfg["detector"]["sensitivity"] = {"kind": "tabulated", "x_l0": [0.0, 1.0]}
    with pytest.raises(ConfigurationError,
                       match=r"at detector\.sensitivity\.values: required for tabulated"):
        resolve_config(cfg)
    cfg["detector"]["sensitivity"] = {"kind": "tabulated", "x_l0": [0.0, 1.0, 2.0],
                                      "values": [0.0, 1.0]}
    with pytest.raises(ConfigurationError, match="equal length"):
        resolve_config(cfg)
    cfg["detector"]["sensitivity"] = {"kind": "tabulated", "x_l0": [0.0, 4.0, 2.0],
                                      "values": [0.0, 1.0, 0.5]}
    with pytest.raises(ConfigurationError, match=r"at detector\.sensitivity\.x_l0: must be "
                                                 "strictly increasing"):
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
    cfg = small_continuum_config()
    cfg["detector"]["sensitivity"] = {**sens, key: value}
    with pytest.raises(ConfigurationError,
                       match=rf"at detector\.sensitivity\.{key}: not read by {kind} sensitivity"):
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
}
_SENSITIVITIES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("half_line")}, optional={"start_l0": _finite}),
    st.fixed_dictionaries({"kind": st.just("interval"), "width_l0": _positive},
                          optional={"start_l0": _finite}),
    st.just({"kind": "tabulated", "x_l0": [0.0, 4.0], "values": [0.0, 1.0]}))
# the only sensitivity the discrete route takes
_HALF_LINES_AT_0 = st.fixed_dictionaries({"kind": st.just("half_line")},
                                         optional={"start_l0": st.just(0.0)})


def _pruned(node: dict, reads, where=""):
    """node without the paths that reads, a KIND_READS entry, does not cover."""
    return {k: _pruned(v, reads, f"{where}{k}.") if isinstance(v, dict) else v
            for k, v in node.items() if _covers(reads, where + k)}


@st.composite
def _configs_with_optional_blocks(draw):
    """A base config plus optional blocks and keys, kept where its kind reads
    them, and perhaps turned into a sweep of its kind."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    kind = cfg["kind"]
    for key, block in _OPTIONAL_BLOCKS.items():
        if draw(st.booleans()):
            cfg[key] = draw(block)
    if draw(st.booleans()):
        ladder = _covers(KIND_READS[kind], "numerics.discrete")
        cfg["detector"]["sensitivity"] = draw(_HALF_LINES_AT_0 if ladder else _SENSITIVITIES)
    for key in ("focus_time_s", "focus_position_m"):
        if draw(st.booleans()):
            cfg["packet"][key] = draw(_finite)
    cfg = _pruned(cfg, KIND_READS[kind])
    # a run takes one rate source, and the mode ladder's is the bath
    if "rates_override" in cfg:
        del cfg["bath" if kind == "continuum" else "rates_override"]
    if kind != "fluorescence" and draw(st.booleans()):
        sweep = {"parameter": "detector.resonance_per_s",
                 "factors": draw(st.lists(_positive, min_size=1, max_size=3))}
        if kind != "continuum" or draw(st.booleans()):
            sweep["run"] = kind
        cfg = dict(cfg, kind="sweep", sweep=sweep)
    return cfg


@PROPERTY_SETTINGS
@given(raw=_configs_with_optional_blocks())
def test_resolution_is_idempotent_and_survives_the_manifest(raw):
    cfg = resolve_config(raw)
    assert resolve_config(cfg) == cfg
    # a run's manifest, read back as a config, re-resolves to the run's config
    rates = _pruned(dict(raw, kind="rates",
                         bath=workloads.build_config("tabulated-fields", 1)["bath"]),
                    KIND_READS["rates"])
    with tempfile.TemporaryDirectory() as out:
        manifest = run_config(rates, Path(out))
        again = resolve_config(config_from_file(Path(out) / "manifest.json"))
    assert again == manifest["config"] == resolve_config(rates)
