"""Run configuration: one JSON document, env and flag overrides, validation.

Precedence is flag > environment > config file > default. Environment
variables use the UAPFORGE_ prefix with double underscores between nesting
levels (UAPFORGE_ATTACK__EPSILON=0.05); --set flags use dotted paths
(attack.epsilon=0.05). Values are parsed as JSON where possible.
"""

import copy
import json
import os
from dataclasses import asdict

from .attack import AttackConfig, apply_variant
from .errors import ConfigError

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
        "modes": 1,
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


def _parse_value(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError):
        return text


def _deep_merge(base, update, path=""):
    for key, value in update.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _deep_merge(base[key], value, here)
        else:
            base[key] = value


def _set_path(cfg, dotted, value):
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key: {dotted}")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"unknown config key: {dotted}")
    node[parts[-1]] = value


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
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as f:
                document = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ConfigError("config document must be a JSON object")
        _deep_merge(cfg, document)
    for dotted, value in env_overrides(environ):
        _set_path(cfg, dotted, value)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, _, raw = item.partition("=")
        _set_path(cfg, dotted.strip(), _parse_value(raw))
    return cfg


def attack_config(cfg):
    """Build the validated AttackConfig from the attack section."""
    try:
        return apply_variant(AttackConfig(**cfg["attack"]), cfg["attack"]["variant"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid attack section: {exc}") from exc


def validate_dataset_section(cfg):
    ds = cfg["dataset"]
    if ds["source"] == "idx":
        for key in ("images", "labels"):
            if not ds[key]:
                raise ConfigError(f"dataset.source 'idx' requires dataset.{key}")
            if not os.path.exists(ds[key]):
                raise ConfigError(f"dataset.{key} path does not exist: {ds[key]}")
    elif ds["source"] == "synth":
        if ds["num_classes"] < 2 or ds["n"] < ds["num_classes"]:
            raise ConfigError("dataset.synth needs num_classes >= 2 and n >= num_classes")
    else:
        raise ConfigError(f"unknown dataset.source {ds['source']!r}")
    if not 0.0 <= ds["holdout_fraction"] < 1.0:
        raise ConfigError("dataset.holdout_fraction must be in [0, 1)")
    return ds
