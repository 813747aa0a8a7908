"""Experiment configuration files: key = value pairs inside named sections.

Sections: [model], [feature_generation], [classifier], [training], [data],
[synthetic], [complexity]. Every knob has a desk-scale default, so a config
file only states what it changes; an unknown section or key is an error.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, is_dataclass, replace
from typing import Optional, get_origin

from .classifier import ClassifierConfig
from .data import not_utf8
from .featuregen import FeatureGenConfig
from .model import ModelConfig, field_types
from .training import TrainConfig


class ConfigFileError(ValueError):
    """Unreadable or inconsistent configuration file."""


@dataclass
class DataConfig:
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    schema_path: Optional[str] = None
    min_count: int = 1
    max_vals: Optional[int] = None


@dataclass
class SyntheticConfig:
    n_fields: int = 8
    cardinality: int = 10
    pair: tuple[int, int] = (1, 5)
    strength: float = 2.0
    bias: float = 0.0
    seed: int = 0
    n_train: int = 20000
    n_test: int = 5000


@dataclass
class ExperimentConfig:
    model: ModelConfig
    train: TrainConfig
    data: DataConfig
    synthetic: Optional[SyntheticConfig] = None
    schema_dims: Optional[tuple[int, int]] = None      # (n_f, t_f) for complexity-only runs

    def digest(self) -> str:
        payload = {
            "model": self.model.to_dict(),
            "train": vars(self.train),
            "data": vars(self.data),
            "synthetic": vars(self.synthetic) if self.synthetic else None,
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_config() -> ExperimentConfig:
    """Desk-scale defaults: small synthetic task, minutes-scale training."""
    model = ModelConfig(
        k=8,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(64, 32),
                                    use_bn=False, dropout_keep=1.0),
        featgen=FeatureGenConfig(kernel_heights=(2, 2), feature_maps=(3, 3),
                                 new_maps=(3, 3), pool_height=2),
        include_raw=True,
    )
    train = TrainConfig(batch_size=256, learning_rate=1e-3, epochs=5, seed=0)
    return ExperimentConfig(model=model, train=train, data=DataConfig(),
                            synthetic=SyntheticConfig())


def _ints(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


def _bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("1", "true", "t", "yes", "on"):
        return True
    if v in ("0", "false", "f", "no", "off"):
        return False
    raise ConfigFileError(f"not a boolean: {raw!r}")


def _parse(tp, raw: str):
    if tp is bool:
        return _bool(raw)
    if get_origin(tp) is tuple:
        return _ints(raw)
    if tp is str:
        return raw.strip()
    return tp(raw)


def _apply(obj, section: str, items: dict[str, str], rename: Optional[dict] = None):
    """replace(obj, ...) with each key of a config section parsed by the type
    of the field it names. Fields holding nested configs are not keys;
    rename maps a file key to a field, which is then known only by that key."""
    rename = rename or {}
    types = field_types(type(obj))
    keys = {name: name for name, tp in types.items()
            if not is_dataclass(tp) and name not in rename.values()}
    keys.update(rename)
    for key in items:
        if key not in keys:
            raise ConfigFileError(f"unknown key {key!r} in section [{section}]")
    return replace(obj, **{keys[key]: _parse(types[keys[key]], raw)
                           for key, raw in items.items()})


def load_config(path) -> ExperimentConfig:
    """Read an INI config over default_config(). A key sets the config field
    of the same name, parsed by that field's type; [data] train, test and
    schema set train_path, test_path and schema_path. [feature_generation]
    enabled = false drops feature generation. An unknown section or key is
    a ConfigFileError."""
    # No default section: [DEFAULT] is then an unknown section, not keys
    # configparser would copy into every other section.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigFileError(not_utf8(path)) from None
    if not read:
        raise ConfigFileError(f"cannot read config file {path}")
    cfg = default_config()
    try:
        for name in parser.sections():
            items = dict(parser[name])
            if name == "model":
                cfg.model = _apply(cfg.model, name, items)
            elif name == "feature_generation":
                enabled = _bool(items.pop("enabled", "true"))
                featgen = _apply(cfg.model.featgen, name, items)
                cfg.model.featgen = featgen if enabled else None
            elif name == "classifier":
                cfg.model.classifier = _apply(cfg.model.classifier, name, items)
            elif name == "training":
                cfg.train = _apply(cfg.train, name, items)
            elif name == "data":
                cfg.data = _apply(cfg.data, name, items, {
                    "train": "train_path", "test": "test_path", "schema": "schema_path"})
            elif name == "synthetic":
                cfg.synthetic = _apply(cfg.synthetic, name, items)
                if len(cfg.synthetic.pair) != 2:
                    raise ConfigFileError(
                        f"[synthetic] pair needs two field indices, got {items['pair']!r}")
                for key, least in (("n_train", 1), ("n_test", 0), ("strength", 0)):
                    if getattr(cfg.synthetic, key) < least:
                        raise ConfigFileError(f"[synthetic] {key} must be >= {least}, "
                                              f"got {getattr(cfg.synthetic, key)}")
            elif name == "complexity":
                unknown = sorted(items.keys() - {"n_fields", "total_features"})
                if unknown:
                    raise ConfigFileError(f"unknown key {unknown[0]!r} in section [complexity]")
                if len(items) != 2:
                    raise ConfigFileError(
                        "section [complexity] needs both n_fields and total_features")
                n_f, t_f = int(items["n_fields"]), int(items["total_features"])
                if n_f < 1 or t_f < n_f:
                    raise ConfigFileError(
                        f"[complexity] needs n_fields >= 1 and total_features >= n_fields "
                        f"(one dummy row per field), got {n_f} and {t_f}")
                cfg.schema_dims = (n_f, t_f)
            else:
                raise ConfigFileError(f"unknown section [{name}]")
    except ValueError as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc
    return cfg
