"""Run configuration: nested key-value defaults, file loading, --set overrides.

Every field is validated against the default schema before any compute runs;
unknown keys are rejected with the offending dotted path.
"""

from __future__ import annotations

import copy
import json


class ConfigError(ValueError):
    """Bad configuration: unknown key, wrong type, or unreadable file."""


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "languages": ["la", "lb"],
    "data": {
        "vocab_size_per_lang": 50,
        "sentence_min_len": 5,
        "sentence_max_len": 12,
        "n_mono": 5000,
        "n_parallel": 1500,
        "reorder_window": 2,
        "bigram_bias": 0.5,
        "task_train": 400,
        "task_eval": 60,
        "n_probe": 50,
    },
    "model": {
        "enc_layers": 2,
        "dec_layers": 2,
        "d_model": 64,
        "n_heads": 4,
        "d_ffn": 256,
        "max_positions": 96,
        "dtype": "float32",
    },
    "noise": {
        "mask_rate": 0.15,
        "p_mask_token": 0.8,
        "p_random": 0.1,
        "p_keep": 0.1,
        "shuffle_window": 3,
        "p_drop": 0.1,
        "p_pad": 0.1,
    },
    "stage1": {"lr": 1e-4, "warmup_steps": 400, "steps": 2000, "batch_size": 16},
    "stage2": {"lr": 1e-4, "warmup_steps": 400, "steps": 2000, "batch_size": 16,
               "dae_weight": 0.5},
    "finetune": {"lr": 5e-6, "warmup_steps": 0, "steps": 200, "batch_size": 16},
    "decode": {"beam_size": 3, "max_len": 80},
}


def _check_against(defaults, value, path: str):
    if isinstance(defaults, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {path or '<root>'} must be a mapping")
        for key, sub in value.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key: {path + key}")
            _check_against(defaults[key], sub, f"{path}{key}.")
        return
    if isinstance(defaults, bool) != isinstance(value, bool):
        raise ConfigError(f"config key {path[:-1]} has wrong type")
    if isinstance(defaults, (int, float)) and not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path[:-1]} must be a number")
    if isinstance(defaults, int) and not isinstance(value, int):
        raise ConfigError(f"config key {path[:-1]} must be an integer, got {value!r}")
    if isinstance(defaults, str) and not isinstance(value, str):
        raise ConfigError(f"config key {path[:-1]} must be a string")
    if isinstance(defaults, list) and not isinstance(value, list):
        raise ConfigError(f"config key {path[:-1]} must be a list")


def _deep_merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def apply_set(cfg: dict, assignment: str) -> None:
    """Apply one `a.b.c=value` override in place (value parsed as JSON if possible)."""
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError(f"unknown config key: {key}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key: {key}")
    node[parts[-1]] = value


def load_config(path=None, sets: list[str] | None = None) -> dict:
    """Defaults, overlaid with an optional JSON file, then --set overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        _check_against(DEFAULT_CONFIG, overrides, "")
        cfg = _deep_merge(cfg, overrides)
    for assignment in sets or []:
        apply_set(cfg, assignment)
    _check_against(DEFAULT_CONFIG, cfg, "")
    return cfg
