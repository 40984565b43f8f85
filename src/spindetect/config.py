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
its JSON Schema "default".  KIND_READS is the one table of what each run
kind reads: resolve_config fills a default in only where the kind reads it,
and rejects every path the kind does not read.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from importlib import resources

from .errors import ConfigurationError

__all__ = ["RUN_KINDS", "KIND_READS", "CONFIG_SCHEMA", "resolve_config", "load_preset",
           "preset_names", "config_from_file"]

# The dotted paths each run kind reads; a path covers the block below it.
# "!" marks a required path, and "!a|b" requires exactly one of a and b.
# A sweep reads its own block plus what its sub-run kind reads.
_BASE = ("kind", "label", "packet", "detector.resonance_per_s")
_LADDER = ("detector.sensitivity", "!bath", "!bath.modes", "!numerics.discrete")
_CN = ("include_shift", "detector.sensitivity", "!bath|rates_override", "!numerics.continuum")
KIND_READS = {
    "discrete": _BASE + _LADDER,
    "continuum": _BASE + _CN,
    "compare": _BASE + _LADDER + _CN + ("comparison",),
    "rates": _BASE + ("!bath",),
    "fluorescence": _BASE + ("!fluorescence", "!numerics.continuum", "comparison.n_resample"),
    "sweep": ("!sweep",),
}
# the keys of detector.sensitivity that each sensitivity kind reads
SENSITIVITY_READS = {
    "half_line": ("kind", "start_l0"),
    "interval": ("kind", "start_l0", "!width_l0"),
    "tabulated": ("kind", "start_l0", "!x_l0", "!values"),
}
RUN_KINDS = tuple(KIND_READS)

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0.0}
_NONNEG = {"type": "number", "minimum": 0.0}

_SENSITIVITY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(SENSITIVITY_READS)},
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
                "cutoff_ratio": {"type": "number", "exclusiveMinimum": 1.0},
                "modes": {"type": "integer", "minimum": 1},
            },
            "required": ["coupling_sqrt_per_s", "cutoff_ratio"],
        },
        "rates_override": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "decay_per_s": _NONNEG,
                "shift_per_s": {**_NUM, "default": 0.0},
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

def grid_steps(lo: float, hi: float, step: float, *, even: bool = False) -> int:
    """Steps of a uniform grid over [lo, hi] at about step, made even for
    Simpson's rule if asked."""
    n = int(round((hi - lo) / step))
    return n + n % 2 if even else n


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


def _resolved(node, schema: dict, reads=None, where: str = ""):
    """A copy of node, which passes schema, with every absent property that
    has a "default" filled in (itself resolved) where reads covers it, and
    every value that schema types "integer" an int: the checker accepts 9.0
    there, and the numerics need ints.  Filled keys follow, in schema order."""
    if schema.get("type") == "integer":
        return int(node)
    if isinstance(node, dict):
        props = schema.get("properties", {})
        out = {k: _resolved(v, props[k], reads, f"{where}{k}.") for k, v in node.items()}
        for key, sub in props.items():
            if key not in out and "default" in sub and _covers(reads, where + key):
                out[key] = _resolved(sub["default"], sub, reads, f"{where}{key}.")
        return out
    if isinstance(node, list):
        return [_resolved(item, schema["items"]) for item in node]
    return node


def _first_schema_error(raw: dict):
    """The (path, message) that sorts first by path, or None."""
    return min(_schema_errors(raw, CONFIG_SCHEMA), key=lambda e: e[0], default=None)


def _covers(reads, path: str) -> bool:
    """Whether reads (None: all) names path, a block above it or one below."""
    return reads is None or any(
        path == r or path.startswith(r + ".") or r.startswith(path + ".")
        for entry in reads for r in entry.lstrip("!").split("|"))


def _written(node: dict, where: str = ""):
    """The dotted path of every key in node, each block before its keys."""
    for key, value in node.items():
        yield where + key
        if isinstance(value, dict):
            yield from _written(value, f"{where}{key}.")


def _check_reads(node: dict, reads: tuple, what: str, where: str = ""):
    """Fail on the first required entry of reads that node lacks or writes
    twice over, then on the first path written that reads does not cover."""
    written = list(_written(node))
    for entry in reads:
        options = entry[1:].split("|")
        given = [p for p in options if p in written]
        if entry[0] == "!" and not given:
            _fail(where + " or ".join(options), f"required for {what}")
        if entry[0] == "!" and len(given) > 1:
            _fail(where + " and ".join(given), f"{what} take exactly one")
    for path in written:
        if not _covers(reads, path):
            _fail(where + path, f"not read by {what}")


def resolve_config(raw: dict, kind: str | None = None, *,
                   require_kind: bool = True) -> dict:
    """Validate raw config against the schema and KIND_READS, fill the
    defaults its kind reads, and run the semantic checks.  Returns the fully
    resolved config with its `kind` field set and every integer field an int
    (9.0 passes the schema and becomes 9); the result re-validates and
    re-resolves to itself.  With require_kind=False a config without a run
    kind passes the generic checks only, with every default filled (used by
    `validate`, where the kind may come later from the subcommand).
    """
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    # a kind given as an argument is checked as if the config wrote it
    error = _first_schema_error({**raw, "kind": kind} if kind else raw)
    if error:
        _fail(".".join(map(str, error[0])), error[1])

    cfg_kind = raw.get("kind")
    if kind is not None and cfg_kind is not None and kind != cfg_kind:
        _fail("kind", f"config says {cfg_kind!r} but the {kind!r} command was invoked")
    kind = kind or cfg_kind
    if kind is None and require_kind:
        _fail("kind", "no run kind given (set it in the config or pick a subcommand)")
    reads, what = KIND_READS.get(kind), f"{kind} runs"
    if kind == "sweep":
        run = _resolved(raw.get("sweep", {}), CONFIG_SCHEMA["properties"]["sweep"])["run"]
        reads, what = reads + KIND_READS[run], f"{run} sweeps"
    cfg = _resolved(raw, CONFIG_SCHEMA, reads)
    if kind is not None:
        cfg["kind"] = kind
        _check_reads(cfg, reads, what)

    sens = cfg["detector"].get("sensitivity")
    if sens is not None:
        skind = sens["kind"]
        _check_reads(sens, SENSITIVITY_READS[skind], f"{skind} sensitivity",
                     "detector.sensitivity.")
        if skind == "tabulated" and len(sens["x_l0"]) != len(sens["values"]):
            _fail("detector.sensitivity", "x_l0 and values must have equal length")
        if skind == "tabulated" and any(b <= a for a, b in zip(sens["x_l0"], sens["x_l0"][1:])):
            _fail("detector.sensitivity.x_l0", "must be strictly increasing")
    # the mode-ladder route matches its modes at a half-line edge at 0
    if ("discrete" in cfg.get("numerics", {})
            and sens != {"kind": "half_line", "start_l0": 0.0}):
        _fail("detector.sensitivity", "the discrete route needs a half_line at start_l0 0")

    # the one-channel limit divides by 4 detuning^2 + linewidth^2
    fl = cfg.get("fluorescence")
    if fl and fl["detuning_per_s"] == 0.0 and fl["linewidth_per_s"] == 0.0:
        _fail("fluorescence", "detuning_per_s and linewidth_per_s cannot both vanish")

    if "sweep" in cfg:
        sw = cfg["sweep"]
        if ("values" in sw) == ("factors" in sw):
            _fail("sweep", "give exactly one of values and factors")
        path = sw["parameter"]
        try:
            node = get_by_path(cfg, path)
        except (KeyError, TypeError):
            _fail("sweep.parameter", f"path {path!r} not found in the config")
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            _fail("sweep.parameter", f"path {path!r} does not target a numeric field")

    # each grid holds the least points its run takes: the ladder's centred
    # differences 5 times, a CN run 3, the CN grid 8, the Simpson grid 3
    for block, num in cfg.get("numerics", {}).items():
        if num["time_stop_t0"] <= num["time_start_t0"]:
            _fail(f"numerics.{block}.time_stop_t0", "must exceed time_start_t0")
        least = 5 if block == "discrete" else 3
        if grid_steps(num["time_start_t0"], num["time_stop_t0"], num["time_step_t0"]) + 1 < least:
            _fail(f"numerics.{block}.time_step_t0",
                  f"the time window holds fewer than {least} points")
        if block == "continuum" and num["x_max_l0"] <= num["x_min_l0"]:
            _fail("numerics.continuum.x_max_l0", "must exceed x_min_l0")
        if block == "continuum" and grid_steps(num["x_min_l0"], num["x_max_l0"],
                                               num["grid_spacing_l0"]) + 1 < 8:
            _fail("numerics.continuum.grid_spacing_l0", "the grid holds fewer than 8 points")
        if block == "discrete" and grid_steps(0.0, num["x_max_l0"], num["right_spacing_l0"],
                                              even=True) + 1 < 3:
            _fail("numerics.discrete.right_spacing_l0",
                  "the right grid holds fewer than 3 Simpson points")

    cw = cfg.get("comparison", {}).get("window_recurrence_fraction")
    if cw and cw[1] <= cw[0]:
        _fail("comparison.window_recurrence_fraction", "must be increasing")

    # each leg of a sweep is resolved as the sweep will run it
    if kind == "sweep":
        sw = cfg["sweep"]
        key = "values" if "values" in sw else "factors"
        base = 1.0 if key == "values" else float(get_by_path(cfg, sw["parameter"]))
        for i, v in enumerate(sw[key]):
            leg = set_by_path(cfg, sw["parameter"], base * float(v))
            del leg["sweep"]
            leg["kind"] = sw["run"]
            try:
                resolve_config(leg)
            except ConfigurationError as exc:
                message = str(exc).removeprefix("config error at ").removeprefix("config error: ")
                _fail(f"sweep.{key}[{i}]", message)
    return cfg


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
