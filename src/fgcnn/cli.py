"""Command-line harness.

Subcommands: train, eval, synth, ablate, compat, shuffle, sweep, complexity,
gradcheck. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import checks, experiments
from .config import ConfigFileError, ExperimentConfig, load_config
from .data import (DataError, DatasetSchema, fit_dataset, generate_synthetic,
                   load_dataset, planted_spec, synthetic_schema,
                   write_dataset_file, write_probs_file)
from .experiments import render_table, write_records
from .model import FgcnnModel
from .nn import ConfigError, NumericError
from .training import (CheckpointError, complexity_report, evaluate,
                       load_checkpoint, save_checkpoint, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_list(text: str) -> list[int]:
    """'2,3,4' -> [2, 3, 4]; empty items are skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def _at_least_two(text: str) -> int:
    if not (text.strip().isdigit() and int(text) >= 2):
        raise argparse.ArgumentTypeError(f"need an integer of at least 2, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fgcnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's training seed")
        p.add_argument("--out", default=".", help="output directory")
        return p

    add("train", "train a model and write metrics plus a checkpoint")
    p_eval = add("eval", "evaluate a checkpoint on the configured test set")
    p_eval.add_argument("--checkpoint", required=True)
    add("synth", "write the configured synthetic dataset to files")
    add("ablate", "train every structural variant and compare")
    p_compat = add("compat", "train each classifier kind with and without generation")
    p_compat.add_argument("--kinds", default="fm,dnn,deepfm,ipnn")
    p_shuffle = add("shuffle", "field-order robustness study")
    p_shuffle.add_argument("--permutations", type=_at_least_two, default=10)
    p_sweep = add("sweep", "metric curve over one structural knob")
    p_sweep.add_argument("--knob", required=True, choices=experiments.SWEEP_KNOBS)
    p_sweep.add_argument("--values", required=True, type=_int_list,
                         help="comma-separated integers, e.g. 2,3,4")
    add("complexity", "parameter and multiply counts for the configured model")
    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--out", default=None)
    return parser


# ---------------------------------------------------------------------------
# data plumbing

def _resolve_data(cfg: ExperimentConfig):
    """Returns (schema, train_split, test_split_or_None, ingest), where
    ingest maps each split read from a dataset file to its IngestStats."""
    ingest = {}
    if cfg.data.train_path:
        if cfg.data.schema_path:
            schema = DatasetSchema.load(cfg.data.schema_path)
            train_set, ingest["train"] = load_dataset(cfg.data.train_path, schema,
                                                      max_vals=cfg.data.max_vals)
        else:
            schema, train_set, ingest["train"] = fit_dataset(cfg.data.train_path,
                                                             cfg.data.min_count,
                                                             max_vals=cfg.data.max_vals)
        test_set = None
        if cfg.data.test_path:
            test_set, ingest["test"] = load_dataset(cfg.data.test_path, schema,
                                                    max_vals=cfg.data.max_vals)
        return schema, train_set, test_set, ingest
    if cfg.synthetic is None:
        raise DataError("config names neither dataset files nor a synthetic spec")
    return (*_synthetic_split(cfg)[:3], ingest)


def _scored(train_set, test_set):
    """The split a subcommand scores: the test split when one is configured,
    else the train split. An empty one is a data error, raised before any
    training."""
    name, split = ("train", train_set) if test_set is None else ("test", test_set)
    if len(split) == 0:
        raise DataError(f"cannot score an empty {name} split")
    return split


def _ingest_lines(ingest) -> list[str]:
    return [f"ingest {split} rows {s.rows} unknown_tokens {s.unknown_tokens} "
            f"truncated_values {s.truncated_values}" for split, s in ingest.items()]


def _synthetic_spec(cfg: ExperimentConfig):
    s = cfg.synthetic
    return planted_spec(n_f=s.n_fields, cardinality=s.cardinality, pair=s.pair,
                        strength=s.strength, bias=s.bias, seed=s.seed)


def _synthetic_split(cfg: ExperimentConfig):
    s = cfg.synthetic
    spec = _synthetic_spec(cfg)
    schema = synthetic_schema(spec)
    split, probs = generate_synthetic(spec, s.n_train + s.n_test)
    train_set = split[:s.n_train]
    test_set = split[s.n_train:]
    return schema, train_set, test_set, probs[:s.n_train], probs[s.n_train:]


def _apply_seed(cfg: ExperimentConfig, seed) -> ExperimentConfig:
    if seed is not None:
        cfg.train = replace(cfg.train, seed=seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_train(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    out = _out_dir(args)
    schema, train_set, test_set, ingest = _resolve_data(cfg)
    scored = _scored(train_set, test_set)
    model = FgcnnModel.build(schema, cfg.model, cfg.train.seed, cfg.train.precision)
    history = train(model, train_set, cfg.train, eval_split=test_set)
    digest = cfg.digest()
    write_records(out / "metrics.jsonl", history, cfg.train.seed, digest)
    final = evaluate(model, scored)
    final_auc = "-" if final.auc is None else f"{final.auc:.6f}"
    lines = [f"seed {cfg.train.seed}", f"config_digest {digest}", *_ingest_lines(ingest),
             experiments.render_table(history), "",
             f"final auc {final_auc}  logloss {final.logloss:.6f}  "
             f"(n_pos {final.n_pos}, n_neg {final.n_neg})"]
    (out / "metrics.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    save_checkpoint(model, out / "model.ckpt")
    schema.save(out / "schema.txt")
    print((out / "metrics.txt").read_text(encoding="utf-8"))
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    out = _out_dir(args)
    schema, train_set, test_set, ingest = _resolve_data(cfg)
    model, _ = load_checkpoint(args.checkpoint, schema)
    dataset = _scored(train_set, test_set)
    m = evaluate(model, dataset)
    row = {**m.to_dict(), "dataset_size": len(dataset)}
    write_records(out / "eval.jsonl", [row], cfg.train.seed, cfg.digest())
    print("\n".join([*_ingest_lines(ingest), render_table([row])]))
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    if cfg.synthetic is None:
        raise DataError("synth needs a [synthetic] section")
    out = _out_dir(args)
    schema, train_set, test_set, train_probs, test_probs = _synthetic_split(cfg)
    write_dataset_file(out / "train.csv", schema, train_set)
    write_dataset_file(out / "test.csv", schema, test_set)
    write_probs_file(out / "train.probs", train_probs)
    write_probs_file(out / "test.probs", test_probs)
    schema.save(out / "schema.txt")
    print(f"wrote {len(train_set)} train / {len(test_set)} test rows to {out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    out = _out_dir(args)
    schema, train_set, test_set, _ = _resolve_data(cfg)
    rows = experiments.run_ablation(train_set, _scored(train_set, test_set), schema,
                                    cfg.model, cfg.train)
    write_records(out / "ablation.jsonl", rows, cfg.train.seed, cfg.digest())
    print(render_table(rows))
    return EXIT_OK


def _cmd_compat(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    out = _out_dir(args)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    schema, train_set, test_set, _ = _resolve_data(cfg)
    rows = experiments.run_compatibility(kinds, train_set, _scored(train_set, test_set),
                                         schema, cfg.model, cfg.train,
                                         seeds=(cfg.train.seed,))
    write_records(out / "compatibility.jsonl", rows, cfg.train.seed, cfg.digest())
    print(render_table(rows))
    return EXIT_OK


def _cmd_shuffle(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    out = _out_dir(args)
    schema, train_set, test_set, _ = _resolve_data(cfg)
    result = experiments.run_shuffle_study(train_set, _scored(train_set, test_set), schema,
                                           cfg.model, cfg.train,
                                           n_permutations=args.permutations,
                                           seed=cfg.train.seed)
    (out / "shuffle.json").write_text(
        json.dumps({"seed": cfg.train.seed, "config_digest": cfg.digest(),
                    **result.to_dict()}, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    rows = [
        {"arm": "with_recombination", "mean_auc": result.mean_with,
         "std_auc": result.std_with},
        {"arm": "without_recombination", "mean_auc": result.mean_without,
         "std_auc": result.std_without},
    ]
    print(render_table(rows))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    out = _out_dir(args)
    schema, train_set, test_set, _ = _resolve_data(cfg)
    points = experiments.sweep(args.knob, args.values, train_set, _scored(train_set, test_set),
                               schema, cfg.model, cfg.train)
    write_records(out / f"sweep_{args.knob}.jsonl", points, cfg.train.seed, cfg.digest())
    print(render_table(points))
    return EXIT_OK


def _cmd_complexity(args) -> int:
    cfg = _apply_seed(load_config(args.config), args.seed)
    if cfg.schema_dims is not None:
        n_f, t_f = cfg.schema_dims
    elif cfg.data.schema_path:
        schema = DatasetSchema.load(cfg.data.schema_path)
        n_f, t_f = schema.n_f, schema.t_f
    elif cfg.synthetic is not None:
        schema = synthetic_schema(_synthetic_spec(cfg))
        n_f, t_f = schema.n_f, schema.t_f
    else:
        raise DataError("complexity needs a schema, synthetic spec, or [complexity] dims")
    report = complexity_report(cfg.model, n_f, t_f)
    print(report.to_text())
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    seeds = (args.seed, args.seed + 1, args.seed + 2)
    results = checks.run_suite(seeds=seeds)
    worst = max(results.values())
    for name, err in sorted(results.items()):
        status = "ok" if err < checks.THRESHOLD else "FAIL"
        print(f"{status:4} {name:<30} max relative error {err:.3e}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "gradcheck.json").write_text(
            json.dumps({"seeds": list(seeds), **results}, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    if worst >= checks.THRESHOLD:
        print(f"worst error {worst:.3e} exceeds {checks.THRESHOLD}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "ablate": _cmd_ablate,
    "compat": _cmd_compat,
    "shuffle": _cmd_shuffle,
    "sweep": _cmd_sweep,
    "complexity": _cmd_complexity,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, ConfigFileError, ConfigError, CheckpointError,
            FileNotFoundError) as exc:
        print(f"fgcnn: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"fgcnn: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
