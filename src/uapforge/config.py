"""Run configuration: one JSON document, env and flag overrides, validation.

Precedence is flag > environment > config file > default. Environment
variables use the UAPFORGE_ prefix with double underscores between nesting
levels (UAPFORGE_ATTACK__EPSILON=0.05); --set flags use dotted paths
(attack.epsilon=0.05). Values are parsed as JSON where possible. Every
source merges the same way: an object merges into an object key by key, and a
value keeps its default's JSON kind (a number also takes an integer, and never
NaN or an infinity, which Python's JSON parser accepts). A key
whose default is null takes null or the kind NULL_KINDS gives it, and an
array's elements take the kind ELEMENT_KINDS gives them. The config file is
read by tensor.read_json_object, so a file that cannot be read or holds no
JSON object is a ConfigError like any other bad value.
"""

import copy
import json
import math
import os
from dataclasses import asdict

from .attack import AttackConfig, apply_variant
from .errors import ArtifactMissing, ConfigError
from .evaluate import REPORT_FORMATS
from .tensor import TensorFormatError, read_json_object

ENV_PREFIX = "UAPFORGE_"

DEFAULTS = {
    "dataset": {
        "source": "synth",
        "images": None,
        "labels": None,
        "num_classes": 4,
        "n": 2000,
        "shape": [1, 16, 16],
        "spread": 0.12,
        "holdout_fraction": 0.25,
        "subset_size": None,
        "seed": 0,
    },
    "model": {
        "arch": "cnn_small",
        "hidden": 32,
        "checkpoint": None,
        "ensemble": None,  # optional list of checkpoint paths for craft
        "train": {"epochs": 12, "lr": 0.15, "batch": 64, "seed": 0},
    },
    "attack": asdict(AttackConfig()),
    "eval": {"targets": [], "deltas": []},
    "ablate": {"axis": None, "values": []},
    "output": {"directory": "out", "formats": ["json", "csv"]},
}

# the kind every key whose default is null takes when it is not null
NULL_KINDS = {
    "dataset.images": str,
    "dataset.labels": str,
    "dataset.subset_size": int,
    "model.checkpoint": str,
    "model.ensemble": list,
    "ablate.axis": str,
}

# the kind of every element of an array-valued key
ELEMENT_KINDS = {
    "dataset.shape": (int, "integers"),
    "model.ensemble": (str, "paths"),
    "eval.targets": (str, "paths"),
    "eval.deltas": (str, "paths"),
    "output.formats": (str, "strings"),
}


def _parse_value(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError):
        return text


# the Python types a value may take, by its default's type: a number also takes
# an integer, and a bool is not an integer
_KINDS = {float: (float, int)}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", list: "an array",
               dict: "an object"}


def _merge(cfg, update, defaults, path=""):
    """Merge the object `update` into `cfg`: objects merge key by key, and a value keeps its default's kind."""
    for key, value in update.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        default = defaults[key]
        kind = type(default) if default is not None else NULL_KINDS[here]
        if (default is not None or value is not None) and type(value) not in _KINDS.get(kind, (kind,)):
            null = "" if default is not None else "null or "
            raise ConfigError(f"config key {here} takes {null}{_KIND_NAMES[kind]}, got {json.dumps(value)}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"config key {here} takes a finite number, got {json.dumps(value)}")
        if isinstance(default, dict):
            _merge(cfg[key], value, default, here)
            continue
        if type(value) is list and here in ELEMENT_KINDS:
            kind, kinds = ELEMENT_KINDS[here]
            if any(type(item) is not kind for item in value):
                raise ConfigError(f"config key {here} takes an array of {kinds}, got {json.dumps(value)}")
        cfg[key] = value


def _nested(dotted, value):
    """{"a": {"b": value}} for the dotted path "a.b"."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def env_overrides(environ=None):
    """Collect (dotted_path, value) pairs from UAPFORGE_* variables."""
    environ = os.environ if environ is None else environ
    out = []
    for key, raw in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        dotted = key[len(ENV_PREFIX) :].lower().replace("__", ".")
        out.append((dotted, _parse_value(raw)))
    return out


def load_config(path=None, sets=(), environ=None):
    """Assemble the effective config: defaults <- file <- env <- --set flags."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            document = read_json_object(path)
        except (ArtifactMissing, TensorFormatError) as exc:
            raise ConfigError(f"config {exc}") from None
        _merge(cfg, document, DEFAULTS)
    for dotted, value in env_overrides(environ):
        _merge(cfg, _nested(dotted, value), DEFAULTS)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, _, raw = item.partition("=")
        _merge(cfg, _nested(dotted.strip(), _parse_value(raw)), DEFAULTS)
    unknown = [fmt for fmt in cfg["output"]["formats"] if fmt not in REPORT_FORMATS]
    if unknown:
        raise ConfigError(f"output.formats takes entries of {list(REPORT_FORMATS)}, got {json.dumps(unknown)}")
    return cfg


def check_override(dotted, value):
    """Raise ConfigError unless `--set dotted=value` would merge into the defaults."""
    _merge(copy.deepcopy(DEFAULTS), _nested(dotted, value), DEFAULTS)


def attack_config(cfg):
    """Build the validated AttackConfig from the attack section."""
    try:
        return apply_variant(AttackConfig(**cfg["attack"]), cfg["attack"]["variant"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid attack section: {exc}") from exc

