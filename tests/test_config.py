"""Config resolution: schema, defaults, semantic checks, presets."""

import json

import pytest

from spindetect import load_preset, preset_names, resolve_config
from spindetect.config import config_from_file, get_by_path, set_by_path
from spindetect.errors import ConfigurationError

from helpers import rates_config, small_compare_config, small_continuum_config


def test_figure1_preset_resolves():
    raw = load_preset("figure1")
    cfg = resolve_config(raw)
    assert cfg["kind"] == "compare"
    assert cfg["include_shift"] is True
    assert cfg["packet"]["focus_time_s"] == 0.0
    assert cfg["detector"]["sensitivity"]["kind"] == "half_line"
    assert cfg["numerics"]["discrete"]["k_window_sigmas"] == 8.0
    assert cfg["numerics"]["continuum"]["write_fields"] is False
    assert cfg["comparison"]["window_recurrence_fraction"] == [0.0, 0.8]


def test_resolution_is_idempotent():
    cfg = resolve_config(small_compare_config())
    assert resolve_config(cfg) == cfg


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


def test_removed_chunk_rows_knob_is_rejected():
    # numerics.discrete.chunk_rows was never read; configs that still set it
    # (manifests written before its removal) fail with its path
    cfg = small_compare_config()
    cfg["numerics"]["discrete"]["chunk_rows"] = 4096
    with pytest.raises(ConfigurationError, match=r"numerics\.discrete.*chunk_rows"):
        resolve_config(cfg)
    assert "chunk_rows" not in resolve_config(small_compare_config())["numerics"]["discrete"]


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

    missing = json.loads(json.dumps(base))
    missing["sweep"]["parameter"] = "bath.nope"
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
