"""Experiment protocols: structural ablation variants, classifier
compatibility runs, hyper-parameter sweeps, and the field-shuffle robustness
study.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import DatasetSchema, Split, permute_fields
from .featuregen import ConfigError
from .model import FgcnnModel, ModelConfig, bn_sites, param_shapes
from .training import TrainConfig, evaluate, train

VARIANT_NAMES = ("full", "remove_raw", "remove_new", "mlp_featgen", "no_recombination")


def variant_model_config(name: str, base: ModelConfig) -> ModelConfig:
    """Derive a variant's model configuration from the full model's.

    remove_raw feeds only generated features to the classifier; remove_new
    drops generation entirely; mlp_featgen swaps the conv stack for a dense
    stack emitting the same number of features per round; no_recombination
    uses pooled conv maps as features directly, with the conv map counts set
    to the new-feature map counts so the generated counts stay equal.
    """
    if name not in VARIANT_NAMES:
        raise ValueError(f"unknown variant {name!r}, expected one of {VARIANT_NAMES}")
    if name == "full":
        return base
    if name == "remove_raw":
        if base.featgen is None:
            raise ConfigError("remove_raw needs feature generation enabled")
        return replace(base, include_raw=False)
    if name == "remove_new":
        return replace(base, featgen=None)
    if base.featgen is None:
        raise ConfigError(f"variant {name!r} needs feature generation enabled")
    if name == "mlp_featgen":
        return replace(base, featgen=replace(base.featgen, style="mlp"))
    # no_recombination
    fg = replace(base.featgen, use_recombination=False, style="cnn",
                 feature_maps=base.featgen.new_maps)
    return replace(base, featgen=fg)


def build_variant(name: str, base: ModelConfig, schema: DatasetSchema, seed: int,
                  precision: str = "f32") -> FgcnnModel:
    return FgcnnModel.build(schema, variant_model_config(name, base), seed, precision)


def _check_arms(configs, schema: DatasetSchema, train_cfg: TrainConfig,
                train_set: Split) -> None:
    """ConfigError if one of a protocol's arm configs, or train_cfg for that
    arm, fails its check; protocols call this before they train any arm."""
    for cfg in configs:
        shapes = param_shapes(cfg, schema.n_f, schema.t_f)
        train_cfg.validate(uses_bn=bool(bn_sites(shapes)), n_rows=len(train_set))


def run_ablation(train_set: Split, test_set: Split,
                 schema: DatasetSchema, base: ModelConfig, train_cfg: TrainConfig,
                 variants: Sequence[str] = VARIANT_NAMES) -> list[dict]:
    """Train every variant under the same seed and report test metrics; every
    variant's config is checked before the first is trained."""
    _check_arms([variant_model_config(name, base) for name in variants], schema, train_cfg,
                train_set)
    rows = []
    for name in variants:
        model = build_variant(name, base, schema, train_cfg.seed, train_cfg.precision)
        train(model, train_set, train_cfg)
        m = evaluate(model, test_set)
        rows.append({"variant": name, "auc": m.auc, "logloss": m.logloss,
                     "seed": train_cfg.seed, "n_params": model.n_params()})
    return rows


def run_compatibility(kinds: Sequence[str], train_set: Split,
                      test_set: Split, schema: DatasetSchema,
                      base: ModelConfig, train_cfg: TrainConfig,
                      seeds: Sequence[int] = (0,)) -> list[dict]:
    """For each classifier kind, train with and without feature generation
    under identical seeds; two rows per kind per seed. Every arm's config
    is checked before the first arm is trained."""
    if base.featgen is None:
        raise ConfigError("compatibility runs need feature generation enabled")
    arms = {(kind, with_fg): replace(base, classifier=replace(base.classifier, kind=kind),
                                     featgen=base.featgen if with_fg else None)
            for kind in kinds for with_fg in (False, True)}
    _check_arms(arms.values(), schema, train_cfg, train_set)
    rows = []
    for kind in kinds:
        for seed in seeds:
            for with_fg in (False, True):
                model = FgcnnModel.build(schema, arms[kind, with_fg], seed, train_cfg.precision)
                tc = replace(train_cfg, seed=seed)
                train(model, train_set, tc)
                m = evaluate(model, test_set)
                rows.append({
                    "kind": kind, "with_feature_generation": with_fg, "seed": seed,
                    "auc": m.auc, "logloss": m.logloss,
                })
    return rows


@dataclass
class ShuffleStudyResult:
    permutations: list[list[int]]
    auc_with_recombination: list[float]
    auc_without_recombination: list[float]
    seed: int

    @property
    def mean_with(self) -> float:
        return float(np.mean(self.auc_with_recombination))

    @property
    def mean_without(self) -> float:
        return float(np.mean(self.auc_without_recombination))

    @property
    def std_with(self) -> float:
        return float(np.std(self.auc_with_recombination))

    @property
    def std_without(self) -> float:
        return float(np.std(self.auc_without_recombination))

    def to_dict(self) -> dict:
        return {
            "permutations": self.permutations,
            "auc_with_recombination": self.auc_with_recombination,
            "auc_without_recombination": self.auc_without_recombination,
            "mean_with": self.mean_with, "std_with": self.std_with,
            "mean_without": self.mean_without, "std_without": self.std_without,
            "seed": self.seed,
        }


def shuffle_permutations(n_f: int, n_permutations: int, seed: int) -> list[list[int]]:
    """Permutation 0 is the identity; the rest are drawn from the seed."""
    rng = np.random.default_rng(seed)
    perms = [list(range(n_f))]
    for _ in range(n_permutations - 1):
        perms.append([int(x) for x in rng.permutation(n_f)])
    return perms


def run_shuffle_study(train_set: Split, test_set: Split,
                      schema: DatasetSchema, base: ModelConfig, train_cfg: TrainConfig,
                      n_permutations: int, seed: int = 0) -> ShuffleStudyResult:
    """Train the full model and its recombination-free twin on identical field
    permutations and collect both arms' test AUC; both arms' configs are
    checked before the first is trained."""
    if n_permutations < 2:
        raise ValueError(f"need at least 2 permutations, got {n_permutations}")
    _check_arms([variant_model_config(arm, base) for arm in ("full", "no_recombination")],
                schema, train_cfg, train_set)
    perms = shuffle_permutations(schema.n_f, n_permutations, seed)
    with_arm: list[float] = []
    without_arm: list[float] = []
    for perm in perms:
        p_train, p_schema = permute_fields(train_set, perm, schema)
        p_test, _ = permute_fields(test_set, perm, schema)
        for arm, sink in (("full", with_arm), ("no_recombination", without_arm)):
            model = build_variant(arm, base, p_schema, train_cfg.seed, train_cfg.precision)
            train(model, p_train, train_cfg)
            m = evaluate(model, p_test)
            sink.append(m.auc)
    return ShuffleStudyResult(permutations=perms, auc_with_recombination=with_arm,
                              auc_without_recombination=without_arm, seed=seed)


SWEEP_KNOBS = ("kernel_height", "n_layers", "new_maps")


def sweep(knob: str, values: Sequence[int], train_set: Split,
          test_set: Split, schema: DatasetSchema, base: ModelConfig,
          train_cfg: TrainConfig) -> list[dict]:
    """Train once per knob value with everything else fixed; structurally
    invalid values are skipped with a note."""
    if knob not in SWEEP_KNOBS:
        raise ValueError(f"unknown sweep knob {knob!r}, expected one of {SWEEP_KNOBS}")
    if base.featgen is None:
        raise ConfigError("sweeps need feature generation enabled")
    points = []
    for value in values:
        fg = base.featgen
        if knob == "kernel_height":
            fg = replace(fg, kernel_heights=(value,) * fg.n_c)
        elif knob == "n_layers":
            fg = replace(fg,
                         kernel_heights=(fg.kernel_heights[0],) * value,
                         feature_maps=(fg.feature_maps[0],) * value,
                         new_maps=(fg.new_maps[0],) * value)
        else:
            fg = replace(fg, new_maps=(value,) * fg.n_c)
        cfg = replace(base, featgen=fg)
        try:
            cfg.validate(schema.n_f)
        except ConfigError as exc:
            points.append({"knob": knob, "value": value, "skipped": str(exc)})
            continue
        model = FgcnnModel.build(schema, cfg, train_cfg.seed, train_cfg.precision)
        train(model, train_set, train_cfg)
        m = evaluate(model, test_set)
        points.append({"knob": knob, "value": value, "auc": m.auc,
                       "logloss": m.logloss})
    return points


# ---------------------------------------------------------------------------
# output rendering

def render_table(rows: Sequence[dict]) -> str:
    """Fixed-width text table over the union of row keys."""
    if not rows:
        return "(no rows)"
    cols = list(dict.fromkeys(k for row in rows for k in row))
    rendered = [[_fmt(row.get(c)) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def write_records(path, rows: Sequence[dict], seed: int, config_digest: str) -> None:
    """Line-delimited JSON; every record carries the seed and config digest."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            rec = {"seed": seed, "config_digest": config_digest, **row}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
