"""Run configuration: an INI-style key/value file validated against a fixed
schema, with the published hyperparameter defaults.

The `[model]` and `[train]` keys are the fields of `DenoiserConfig`,
`OrderingConfig` and `TrainConfig`, and each key's type and default are read
off its field. Only two facts are the config file's own: `epochs` defaults
to 10 here, while `TrainConfig` requires it, and `val_fraction` is no
dataclass field at all.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, dataclass, fields

from .denoiser import DenoiserConfig
from .ordering import OrderingConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


_BOOL = {"on": True, "true": True, "1": True, "yes": True,
         "off": False, "false": False, "0": False, "no": False}

# OrderingConfig / DenoiserConfig / TrainConfig field -> its key in [model] or [train]
_ORDERING_KEYS = {"num_node_types": "node_types", "layers": "ordering_layers",
                  "heads": "ordering_heads", "hidden": "ordering_hidden",
                  "embed_dim": "ordering_embed", "pe_dim": "ordering_pe"}
_DENOISER_KEYS = {"num_node_types": "node_types", "num_edge_types": "edge_types",
                  **{k: k for k in ("aggregator", "layers", "hidden", "mlp_hidden",
                                    "mixtures", "edge_in_attention")}}
_TRAIN_KEYS = {f.name: f.name for f in fields(TrainConfig) if f.name != "seed"}


def _keys_schema(cls, keys) -> dict:
    """key -> (type tag, default) of the fields of `cls` that `keys` picks,
    read off their annotations and defaults; None marks a required key."""
    spec = {f.name: (f.type, None if f.default is MISSING else f.default)
            for f in fields(cls)}
    return {key: spec[name] for name, key in keys.items()}


# section -> key -> (type tag, default); None default means required
_SCHEMA = {
    "run": {"seed": ("int", None)},
    "model": {**_keys_schema(DenoiserConfig, _DENOISER_KEYS),
              **_keys_schema(OrderingConfig, _ORDERING_KEYS)},
    "train": {**_keys_schema(TrainConfig, _TRAIN_KEYS),
              "epochs": ("int", 10), "val_fraction": ("float", 0.2)},
    "paths": {
        "corpus": ("in_path", ""),
        "val_corpus": ("in_path", ""),
        "checkpoint_dir": ("out_dir", ""),
        "log": ("out_path", ""),
        "report": ("out_path", ""),
    },
}


@dataclass
class RunConfig:
    seed: int
    model: dict
    train: dict
    paths: dict

    @classmethod
    def load(cls, path) -> "RunConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        # values are literal: no %-interpolation
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(path)
        except configparser.Error as exc:
            message = " ".join(line.strip() for line in str(exc).splitlines())
            raise ConfigError(f"malformed config: {message}") from None
        values: dict[str, dict] = {}
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
        for section, keys in _SCHEMA.items():
            got = dict(parser[section]) if parser.has_section(section) else {}
            for key in got:
                if key not in keys:
                    raise ConfigError(f"unknown key '{key}' in [{section}]")
            out = {}
            for key, (kind, default) in keys.items():
                if key in got:
                    out[key] = _parse(section, key, kind, got[key])
                elif default is None:
                    raise ConfigError(f"missing required key '{key}' in [{section}]")
                else:
                    out[key] = default
            values[section] = out
        paths = values["paths"]
        for key, (kind, _) in _SCHEMA["paths"].items():
            if kind == "in_path" and paths[key] and not os.path.exists(paths[key]):
                raise ConfigError(f"path for '{key}' does not exist: {paths[key]}")
            if kind == "out_path" and not os.path.isdir(os.path.dirname(paths[key]) or "."):
                raise ConfigError(f"directory of '{key}' does not exist: {paths[key]}")
        cfg = cls(seed=values["run"]["seed"], model=values["model"],
                  train=values["train"], paths=paths)
        # reject bad values before any work
        cfg.ordering_config()
        cfg.denoiser_config()
        cfg.train_config()
        val_fraction = cfg.train["val_fraction"]
        if not 0.0 < val_fraction < 1.0:
            raise ConfigError("bad value for 'val_fraction' in [train]: "
                              f"val_fraction must be in (0, 1), got {val_fraction}")
        return cfg

    def ordering_config(self) -> OrderingConfig:
        return _build(OrderingConfig, "model", _ORDERING_KEYS, self.model)

    def denoiser_config(self) -> DenoiserConfig:
        return _build(DenoiserConfig, "model", _DENOISER_KEYS, self.model)

    def train_config(self) -> TrainConfig:
        return _build(TrainConfig, "train", _TRAIN_KEYS, self.train, seed=self.seed)


def _build(cls, section, keys, values, **extra):
    """cls from the values of `keys` (field -> config key); a rejected value
    becomes a ConfigError naming its key, read off the message's first word."""
    try:
        return cls(**{field: values[key] for field, key in keys.items()}, **extra)
    except ValueError as exc:
        key = keys[str(exc).split()[0]]
        raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from None


def _parse(section, key, kind, raw):
    raw = raw.strip()
    try:
        if "\n" in raw:
            raise ValueError(f"value spans more than one line: {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() not in _BOOL:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL[raw.lower()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from None
