"""Run configuration: JSON schema, defaults, semantic validation, presets.

Conventions.  Physical inputs carry SI unit suffixes in their key names
(`_kg`, `_per_s`, `_m_per_s`).  Numerical windows are dimensionless in
detector units: `_t0` marks times in units of 1/resonance and `_l0` marks
lengths in units of sqrt(hbar / (mass * resonance)).  The packet momentum
width is given as a wavenumber (`momentum_width_hbar_per_m`), i.e. the
spread in units of hbar per meter.

Unknown keys are rejected at every level so typos fail loudly before any
computation starts.

CONFIG_SCHEMA is the one table of options: each defaulted property carries
its JSON Schema "default", which resolve_config fills in wherever the
property's parent is present.  The numerics blocks and the sweep block have
no default of their own, so their defaults apply only to a block the config
writes.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from importlib import resources

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
        "start_l0": {**_NUM, "default": 0.0},
        "width_l0": _POS,
        "x_l0": {"type": "array", "items": _NUM, "minItems": 2},
        "values": {"type": "array", "items": {"type": "number",
                                              "minimum": 0.0, "maximum": 1.0},
                   "minItems": 2},
    },
    "required": ["kind"],
    "default": {"kind": "half_line"},
}

_DISCRETE_NUMERICS = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "k_nodes": {"type": "integer", "minimum": 51, "default": 2001},
        "time_start_t0": _NUM,
        "time_stop_t0": _NUM,
        "time_step_t0": _POS,
        "x_min_l0": {"type": "number", "exclusiveMaximum": 0.0},
        "x_max_l0": _POS,
        "right_spacing_l0": {**_POS, "default": 0.02},
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
        "grid_spacing_l0": {**_POS, "default": 0.0075},
        "time_start_t0": _NUM,
        "time_stop_t0": _NUM,
        "time_step_t0": _POS,
        "snapshots": {"type": "integer", "minimum": 2, "default": 512},
        "write_fields": {"type": "boolean", "default": False},
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
        "include_shift": {"type": "boolean", "default": True},
        "packet": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mass_kg": _POS,
                "mean_velocity_m_per_s": _POS,
                "momentum_width_hbar_per_m": _POS,
                "focus_time_s": {**_NUM, "default": 0.0},
                "focus_position_m": {**_NUM, "default": 0.0},
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
        # before numerics: missing defaulted blocks are appended in this
        # order, which fixes the key order of a resolved config
        "comparison": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "window_recurrence_fraction": {
                    "type": "array", "items": _NONNEG,
                    "minItems": 2, "maxItems": 2, "default": [0.0, 0.8],
                },
                "n_resample": {"type": "integer", "minimum": 2, "default": 2048},
            },
            "default": {},
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "discrete": _DISCRETE_NUMERICS,
                "continuum": _CONTINUUM_NUMERICS,
            },
            "default": {},
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
                "run": {"enum": ["discrete", "continuum", "compare"],
                        "default": "continuum"},
            },
            "required": ["parameter"],
        },
    },
    "required": ["packet", "detector"],
}

def _fail(path: str, message: str):
    raise ConfigurationError(f"config error at {path}: {message}" if path
                             else f"config error: {message}")


# CONFIG_SCHEMA is checked by _schema_errors, which implements exactly these
# JSON Schema (draft 2020-12) keywords; "$schema" only names the dialect and
# "default", an annotation, is filled in by _resolved
SCHEMA_KEYWORDS = frozenset({
    "$schema", "default", "type", "enum", "properties", "required",
    "additionalProperties", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "items", "minItems", "maxItems", "minLength"})

_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _schema_errors(node, schema: dict, path: tuple = ()):
    """Yield (path, message) for every violation of schema by node.

    A node of the wrong type gets one error and no further checks, as every
    other keyword applies only to its own type.  Unlike JSON Schema, a
    number must be finite: json.load accepts NaN and Infinity.
    """
    kind = schema.get("type")
    if kind is not None and not _IS_TYPE[kind](node):
        yield path, f"{node!r} is not of type {kind!r}"
        return
    if kind == "number" and not math.isfinite(node):
        yield path, f"{node!r} is not a finite number"
        return
    if "enum" in schema and node not in schema["enum"]:
        yield path, f"{node!r} is not one of {schema['enum']!r}"
    if _IS_TYPE["number"](node):
        for key, (breaks, words) in _BOUNDS.items():
            if key in schema and breaks(node, schema[key]):
                yield path, f"{node!r} is {words} of {schema[key]!r}"
    if isinstance(node, str) and len(node) < schema.get("minLength", 0):
        yield path, f"{node!r} is too short"
    if isinstance(node, list):
        if len(node) < schema.get("minItems", 0):
            yield path, f"{node!r} is too short"
        if len(node) > schema.get("maxItems", math.inf):
            yield path, f"{node!r} is too long"
        if "items" in schema:
            for i, item in enumerate(node):
                yield from _schema_errors(item, schema["items"], path + (i,))
    if isinstance(node, dict):
        for key in schema.get("required", ()):
            if key not in node:
                yield path, f"{key!r} is a required property"
        props = schema.get("properties", {})
        extra = sorted(set(node) - set(props))
        if schema.get("additionalProperties", True) is False and extra:
            verb = "was" if len(extra) == 1 else "were"
            yield path, ("Additional properties are not allowed ("
                         f"{', '.join(map(repr, extra))} {verb} unexpected)")
        for key, sub in props.items():
            if key in node:
                yield from _schema_errors(node[key], sub, path + (key,))


def _resolved(node, schema: dict):
    """A copy of node, which passes schema, with every absent property that
    has a "default" filled in (itself resolved), and every value that schema
    types "integer" an int: the checker accepts integral floats such as 9.0
    there, and the numerics need ints.  Filled keys follow the given ones,
    in schema order."""
    if schema.get("type") == "integer":
        return int(node)
    if isinstance(node, dict):
        props = schema.get("properties", {})
        out = {key: _resolved(value, props[key]) for key, value in node.items()}
        for key, sub in props.items():
            if key not in out and "default" in sub:
                out[key] = _resolved(sub["default"], sub)
        return out
    if isinstance(node, list):
        return [_resolved(item, schema["items"]) for item in node]
    return node


def _first_schema_error(raw: dict):
    """The (path, message) that sorts first by path, or None."""
    return min(_schema_errors(raw, CONFIG_SCHEMA), key=lambda e: e[0], default=None)


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
    its `kind` field set and every integer field an int (9.0 passes the
    schema and becomes 9); the result re-validates and re-resolves to itself.
    With require_kind=False a config without a run kind passes the generic
    checks only (used by `validate`, where the kind may come later from the
    subcommand).
    """
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    error = _first_schema_error(raw)
    if error:
        _fail(".".join(map(str, error[0])), error[1])
    cfg = _resolved(raw, CONFIG_SCHEMA)

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
    for key, owner in (("width_l0", "interval"), ("x_l0", "tabulated"),
                       ("values", "tabulated")):
        if key in sens and skind != owner:
            _fail(f"detector.sensitivity.{key}", f"only {owner} sensitivity takes it")
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
    try:
        node = get_by_path(cfg, path)
    except (KeyError, TypeError):
        _fail("sweep.parameter", f"path {path!r} not found in the config")
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
