"""Run configuration: JSON schema, defaults, semantic validation, presets.

Conventions.  Physical inputs carry SI unit suffixes in their key names
(`_kg`, `_per_s`, `_m_per_s`).  Numerical windows are dimensionless in
detector units: `_t0` marks times in units of 1/resonance and `_l0` marks
lengths in units of sqrt(hbar / (mass * resonance)).  The packet momentum
width is given as a wavenumber (`momentum_width_hbar_per_m`), i.e. the
spread in units of hbar per meter.

Unknown keys are rejected at every level so typos fail loudly before any
computation starts.
"""

from __future__ import annotations

import copy
import json
from importlib import resources

import jsonschema

from .errors import ConfigurationError

__all__ = ["RUN_KINDS", "CONFIG_SCHEMA", "resolve_config", "load_preset",
           "preset_names", "config_from_file"]

RUN_KINDS = ("discrete", "continuum", "compare", "rates", "fluorescence", "sweep")

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0.0}
_NONNEG = {"type": "number", "minimum": 0.0}

_SENSITIVITY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["half_line", "interval", "tabulated"]},
        "start_l0": _NUM,
        "width_l0": _POS,
        "x_l0": {"type": "array", "items": _NUM, "minItems": 2},
        "values": {"type": "array", "items": {"type": "number",
                                              "minimum": 0.0, "maximum": 1.0},
                   "minItems": 2},
    },
    "required": ["kind"],
}

_DISCRETE_NUMERICS = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "k_nodes": {"type": "integer", "minimum": 51},
        "k_window_sigmas": {"type": "number", "exclusiveMinimum": 1.0},
        "time_start_t0": _NUM,
        "time_stop_t0": _NUM,
        "time_step_t0": _POS,
        "x_min_l0": {"type": "number", "exclusiveMaximum": 0.0},
        "x_max_l0": _POS,
        "right_spacing_l0": _POS,
    },
    "required": ["time_start_t0", "time_stop_t0", "time_step_t0",
                 "x_min_l0", "x_max_l0"],
}

_CONTINUUM_NUMERICS = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "x_min_l0": _NUM,
        "x_max_l0": _NUM,
        "grid_spacing_l0": _POS,
        "time_start_t0": _NUM,
        "time_stop_t0": _NUM,
        "time_step_t0": _POS,
        "snapshots": {"type": "integer", "minimum": 2},
        "kinetic_safety": _POS,
        "write_fields": {"type": "boolean"},
    },
    "required": ["x_min_l0", "x_max_l0", "time_start_t0", "time_stop_t0",
                 "time_step_t0"],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(RUN_KINDS)},
        "label": {"type": "string"},
        "include_shift": {"type": "boolean"},
        "packet": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mass_kg": _POS,
                "mean_velocity_m_per_s": _POS,
                "momentum_width_hbar_per_m": _POS,
                "focus_time_s": _NUM,
                "focus_position_m": _NUM,
            },
            "required": ["mass_kg", "mean_velocity_m_per_s",
                         "momentum_width_hbar_per_m"],
        },
        "detector": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "resonance_per_s": _POS,
                "sensitivity": _SENSITIVITY_SCHEMA,
            },
            "required": ["resonance_per_s"],
        },
        "bath": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "coupling_sqrt_per_s": _NONNEG,
                "cutoff_per_s": _POS,
                "cutoff_ratio": {"type": "number", "exclusiveMinimum": 1.0},
                "modes": {"type": "integer", "minimum": 1},
            },
            "required": ["coupling_sqrt_per_s"],
        },
        "rates_override": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "decay_per_s": _NONNEG,
                "shift_per_s": _NUM,
            },
            "required": ["decay_per_s"],
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "discrete": _DISCRETE_NUMERICS,
                "continuum": _CONTINUUM_NUMERICS,
            },
        },
        "comparison": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "window_recurrence_fraction": {
                    "type": "array", "items": _NONNEG,
                    "minItems": 2, "maxItems": 2,
                },
                "n_resample": {"type": "integer", "minimum": 2},
            },
        },
        "fluorescence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rabi_per_s": _POS,
                "detuning_per_s": _NUM,
                "linewidth_per_s": _NONNEG,
                "region": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"start_l0": _NUM, "width_l0": _POS},
                    "required": ["start_l0", "width_l0"],
                },
            },
            "required": ["rabi_per_s", "detuning_per_s", "linewidth_per_s",
                         "region"],
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "parameter": {"type": "string", "minLength": 1},
                "values": {"type": "array", "items": _NUM, "minItems": 1},
                "factors": {"type": "array", "items": _POS, "minItems": 1},
                "run": {"enum": ["discrete", "continuum", "compare"]},
            },
            "required": ["parameter"],
        },
    },
    "required": ["packet", "detector"],
}

# defaults merged into every config
_TOP_DEFAULTS = {
    "include_shift": True,
    "packet": {"focus_time_s": 0.0, "focus_position_m": 0.0},
    "detector": {"sensitivity": {"kind": "half_line", "start_l0": 0.0}},
    "comparison": {"window_recurrence_fraction": [0.0, 0.8], "n_resample": 2048},
}
# defaults merged only into blocks the user actually wrote, so a resolved
# config still passes schema validation (required keys stay required)
_DISCRETE_DEFAULTS = {"k_nodes": 2001, "k_window_sigmas": 8.0,
                      "right_spacing_l0": 0.02}
_CONTINUUM_DEFAULTS = {"grid_spacing_l0": 0.0075, "snapshots": 512,
                       "kinetic_safety": 64.0, "write_fields": False}
_SWEEP_DEFAULTS = {"run": "continuum"}


def _merge_defaults(defaults: dict, user: dict) -> dict:
    out = copy.deepcopy(user)
    for key, dval in defaults.items():
        if key not in out:
            out[key] = copy.deepcopy(dval)
        elif isinstance(dval, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(dval, out[key])
    return out


def _fail(path: str, message: str):
    raise ConfigurationError(f"config error at {path}: {message}" if path
                             else f"config error: {message}")


def _schema_validate(raw: dict):
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path)
        _fail(path, err.message)


def _require(cfg: dict, path: str, why: str):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            _fail(path, f"required for {why}")
        node = node[part]
    return node


def resolve_config(raw: dict, kind: str | None = None, *,
                   require_kind: bool = True) -> dict:
    """Validate raw config against the schema, fill defaults, and run the
    kind-specific semantic checks.  Returns the fully resolved config with
    its `kind` field set; the result re-validates and re-resolves to itself.
    With require_kind=False a config without a run kind passes the generic
    checks only (used by `validate`, where the kind may come later from the
    subcommand).
    """
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    _schema_validate(raw)
    cfg = _merge_defaults(_TOP_DEFAULTS, raw)
    num = cfg.setdefault("numerics", {})
    if "discrete" in num:
        num["discrete"] = _merge_defaults(_DISCRETE_DEFAULTS, num["discrete"])
    if "continuum" in num:
        num["continuum"] = _merge_defaults(_CONTINUUM_DEFAULTS, num["continuum"])
    if "sweep" in cfg:
        cfg["sweep"] = _merge_defaults(_SWEEP_DEFAULTS, cfg["sweep"])

    cfg_kind = cfg.get("kind")
    if kind is not None and cfg_kind is not None and kind != cfg_kind:
        _fail("kind", f"config says {cfg_kind!r} but the {kind!r} command was invoked")
    kind = kind or cfg_kind
    if kind is None:
        if require_kind:
            _fail("kind", "no run kind given (set it in the config or pick a subcommand)")
    else:
        cfg["kind"] = kind

    sens = cfg["detector"]["sensitivity"]
    skind = sens["kind"]
    if skind == "interval" and "width_l0" not in sens:
        _fail("detector.sensitivity.width_l0", "required for interval sensitivity")
    if skind == "tabulated":
        if "x_l0" not in sens or "values" not in sens:
            _fail("detector.sensitivity", "tabulated sensitivity needs x_l0 and values")
        if len(sens["x_l0"]) != len(sens["values"]):
            _fail("detector.sensitivity", "x_l0 and values must have equal length")

    if "bath" in cfg:
        bath = cfg["bath"]
        if ("cutoff_per_s" in bath) == ("cutoff_ratio" in bath):
            _fail("bath", "give exactly one of cutoff_per_s and cutoff_ratio")

    if kind == "sweep":
        sw = _require(cfg, "sweep", "sweep runs")
        if ("values" in sw) == ("factors" in sw):
            _fail("sweep", "give exactly one of values and factors")
        _check_kind_needs(cfg, sw["run"], what="sub-runs")
        _resolve_sweep_axis(cfg)
    elif kind is not None:
        _check_kind_needs(cfg, kind, what="runs")

    for block in ("discrete", "continuum"):
        num = cfg["numerics"].get(block)
        if num and "time_stop_t0" in num:
            if num["time_stop_t0"] <= num["time_start_t0"]:
                _fail(f"numerics.{block}.time_stop_t0", "must exceed time_start_t0")
            if block == "continuum" and num["x_max_l0"] <= num["x_min_l0"]:
                _fail("numerics.continuum.x_max_l0", "must exceed x_min_l0")

    cw = cfg["comparison"]["window_recurrence_fraction"]
    if cw[1] <= cw[0]:
        _fail("comparison.window_recurrence_fraction", "must be increasing")
    return cfg


def _check_kind_needs(cfg: dict, kind: str, what: str):
    """Kind-specific presence checks shared by direct runs and sweep sub-runs."""
    if kind in ("discrete", "rates", "compare"):
        _require(cfg, "bath", f"{kind} {what}")
    if kind in ("discrete", "compare"):
        _require(cfg, "bath.modes", f"{kind} {what}")
        _require(cfg, "numerics.discrete", f"{kind} {what}")
    if kind in ("continuum", "compare", "fluorescence"):
        _require(cfg, "numerics.continuum", f"{kind} {what}")
    if kind == "continuum" and "bath" not in cfg and "rates_override" not in cfg:
        _fail("bath", f"continuum {what} need a bath or a rates_override")
    if kind == "fluorescence":
        _require(cfg, "fluorescence", f"fluorescence {what}")


def _resolve_sweep_axis(cfg: dict):
    """Check the sweep parameter path points at a number in the config."""
    path = cfg["sweep"]["parameter"]
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            _fail("sweep.parameter", f"path {path!r} not found in the config")
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail("sweep.parameter", f"path {path!r} does not target a numeric field")


def set_by_path(cfg: dict, path: str, value: float) -> dict:
    out = copy.deepcopy(cfg)
    node = out
    parts = path.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value
    return out


def get_by_path(cfg: dict, path: str):
    node = cfg
    for part in path.split("."):
        node = node[part]
    return node


def preset_names() -> list[str]:
    root = resources.files("spindetect") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    ref = resources.files("spindetect") / "presets" / f"{name}.json"
    if not ref.is_file():
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def config_from_file(path) -> dict:
    """Read a config from disk.  A run manifest is accepted too: its embedded
    resolved config is extracted, so a manifest re-runs the original job."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    if "config" in data and "tool" in data:
        data = data["config"]
    return data
