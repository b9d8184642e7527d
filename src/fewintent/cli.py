"""Single-binary command line for the full pipeline.

Subcommands: ingest, train, pretrain-ood, pretrain-para, eval, zeroshot,
sweep-k, diagnose-topk, synth. Options can come from ``--config`` files of
flat ``key = value`` lines, with flags taking precedence; unknown keys are
errors. Every run writes JSONL metrics (first record: the fully resolved
config) and all randomness hangs off a single ``--seed``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .corpus import Dataset, build_ood, load_dataset, split_dev
from .encoder import build_vocab
from .errors import DataError, NumericError
from .evaluator import (
    evaluate_runs,
    generate_synthetic,
    label_filter_rankings,
    predict_dataset,
    sweep_k,
    sweep_table,
    top1_accuracy,
    topk_miss,
)
from .pretrain import (
    build_paraphrase_instances,
    filter_pairs,
    pair_sentences,
    pairs_from_tsv,
    write_plans_jsonl,
)
from .trainer import (
    TrainConfig,
    dataset_items,
    fit_items,
    load_checkpoint,
    save_checkpoint,
    train,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


@dataclass(frozen=True)
class Opt:
    name: str  # config key and argparse dest
    kind: str  # int | float | str | bool | intlist | strlist
    default: object = None
    help: str = ""
    required: bool = False
    low: int | None = None  # least accepted value, of each entry for a list

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_HYPERPARAMS = [
    Opt("k", "int", None, "group size; default minimizes placeholder padding"),
    Opt("k_min", "int", 20, "lower bound for automatic group-size choice"),
    Opt("k_max", "int", 35, "upper bound for automatic group-size choice"),
    Opt("tau", "float", 0.1, "softmax temperature"),
    Opt("batch_size", "int", 8, "sequences per optimizer step"),
    Opt("learning_rate", "float", 1e-2, "step size"),
    Opt("epochs", "int", 10, "training epochs"),
    Opt("shuffles", "int", None, "times each plan is repeated per epoch (default: k)"),
    Opt("optimizer", "str", "adam", "sgd or adam"),
    Opt("selection", "str", "dev_accuracy", "model selection: dev_accuracy or train_loss"),
    Opt("d_emb", "int", 64, "embedding dimension"),
    Opt("d_hidden", "int", 64, "projector hidden dimension"),
    Opt("d_out", "int", 64, "projector output dimension"),
    Opt("projector_depth", "int", 2, "projector layers"),
    Opt("attention", "bool", False, "enable the single self-attention layer"),
    Opt("include_placeholders", "bool", False, "keep placeholder slots in the loss denominator"),
    Opt("min_count", "int", 1, "vocabulary frequency cutoff"),
]

_GROUP_SIZE = [o for o in _HYPERPARAMS if o.name in ("k", "k_min", "k_max")]
_FORMAT = Opt("format", "str", None, "csv or jsonl; inferred from the extension when omitted")
_INVENTORY = Opt("inventory", "str", None, "label-inventory sidecar, one raw label per line")
_OUT = Opt("out", "str", None, "metrics JSONL path (default: stdout)")
_SEED = Opt("seed", "int", 0, "seed governing all randomness in this run")


def _pretrain_hyperparams():
    return [Opt("epochs", "int", 3, "pretraining epochs") if o.name == "epochs" else o for o in _HYPERPARAMS]


def _coerce(opt: Opt, raw: str):
    try:
        if opt.kind == "int":
            return int(raw)
        if opt.kind == "float":
            return float(raw)
        if opt.kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if opt.kind == "intlist":
            return [int(x) for x in raw.split(",") if x.strip()]
        if opt.kind == "strlist":
            return [x.strip() for x in raw.split(",") if x.strip()]
        return raw
    except ValueError:
        raise UsageError(f"bad value {raw!r} for {opt.name}") from None


def _read_config_file(path: str, schema: dict[str, Opt]) -> dict:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in schema:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(schema[key], raw.strip())
    return values


def _add_command(subparsers, name: str, opts: list[Opt], func: Callable):
    sub = subparsers.add_parser(name, help=f"run {name}")
    sub.add_argument("--config", default=None, help="flat key = value config file")
    for opt in opts:
        if opt.kind == "bool":
            sub.add_argument(opt.flag, dest=opt.name, action="store_const", const=True,
                             default=None, help=opt.help)
        else:
            sub.add_argument(opt.flag, dest=opt.name, default=None, help=opt.help)
    sub.set_defaults(_func=func, _opts=opts, _command=name)


def _resolve(args) -> tuple[dict, set[str]]:
    """Merge flags over config-file values over defaults.

    Returns the resolved config plus the set of keys the user set explicitly
    (by flag or file) rather than inheriting a default. A value below its
    option's `low` is a `DataError`.
    """
    schema = {o.name: o for o in args._opts}
    from_file = _read_config_file(args.config, schema) if args.config else {}
    resolved = {}
    explicit: set[str] = set()
    for opt in args._opts:
        flag_val = getattr(args, opt.name)
        if flag_val is not None:
            resolved[opt.name] = flag_val if opt.kind == "bool" else _coerce(opt, flag_val)
            explicit.add(opt.name)
        elif opt.name in from_file:
            resolved[opt.name] = from_file[opt.name]
            explicit.add(opt.name)
        else:
            resolved[opt.name] = opt.default
        value = resolved[opt.name]
        if opt.required and value is None:
            raise UsageError(f"missing required option {opt.flag}")
        if opt.low is not None and value is not None:
            for v in value if isinstance(value, list) else [value]:
                if v < opt.low:
                    raise DataError(f"{opt.name} must be >= {opt.low}, got {v}")
    return resolved, explicit


class _Writer:
    """JSONL metrics stream with deterministic bytes (sorted keys, no timestamps)."""

    def __init__(self, path: str | None):
        self._fh = Path(path).open("w", encoding="utf-8", newline="\n") if path else sys.stdout
        self._own = path is not None

    def write(self, record: dict):
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def epoch(self, record: dict):
        self.write({"record": "epoch", **record})

    def close(self):
        if self._own:
            self._fh.close()


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        if explicit not in ("csv", "jsonl"):
            raise UsageError(f"unknown format {explicit!r}")
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".json"):
        return "jsonl"
    raise UsageError(f"cannot infer format of {path}; pass --format csv|jsonl")


def _load(path: str, cfg: dict) -> Dataset:
    return load_dataset(path, _infer_format(path, cfg.get("format")), cfg.get("inventory"))


def _train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig that a command's resolved `_HYPERPARAMS` entries describe."""
    kwargs = {o.name: cfg[o.name] for o in _HYPERPARAMS if o.name in cfg}
    kwargs["shuffles_per_sequence"] = kwargs.pop("shuffles", None)
    # eval has no --seed: evaluate_runs seeds each run from --seeds.
    return TrainConfig(seed=cfg.get("seed", 0), **kwargs)


def _load_init(cfg: dict, tc: TrainConfig, explicit: set[str]):
    """The --init warm start, or None; explicitly configured dimensions must
    agree with the checkpoint."""
    if not cfg["init"]:
        return None
    params, vocab = load_checkpoint(cfg["init"])
    checks = [
        ("d_emb", params.d_emb, tc.d_emb),
        ("d_out", params.d_out, tc.d_out),
        ("projector_depth", len(params.proj_weights), tc.projector_depth),
        ("attention", params.has_attention, tc.attention),
    ]
    for name, have, want in checks:
        if name in explicit and have != want:
            raise DataError(f"checkpoint {name} is {have}, configured {want}")
    return params, vocab


def _split(data: Dataset, cfg: dict) -> tuple[Dataset, Dataset | None]:
    """(train, dev): the --dev file when given, else a --dev-fraction split of
    `data`; a fraction of 0 or less means no dev set."""
    if cfg.get("dev"):
        return data, _load(cfg["dev"], cfg)
    if cfg["dev_fraction"] > 0:
        return split_dev(data, cfg["dev_fraction"], cfg["seed"])
    return data, None


def _predict_checkpoint(cfg: dict):
    """Rank every --test utterance with the --ckpt model; returns (test set, k, predictions)."""
    params, vocab = load_checkpoint(cfg["ckpt"])
    test_data = _load(cfg["test"], cfg)
    k = _train_config(cfg).group_size(test_data.n_intents)
    return test_data, k, predict_dataset(params, vocab, test_data, k)


def _write_dataset_jsonl(data: Dataset, path: Path):
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for ex in data.examples:
            rec = {"text": ex.text, "label": data.labels[ex.intent_id].raw_name}
            if ex.domain is not None:
                rec["domain"] = ex.domain
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_predictions(path: str, data: Dataset, runs, top: int = 5):
    """One record per run and test utterance; `runs` pairs each run's seed
    (None for a single unseeded run) with its predictions."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for seed, preds in runs:
            for pred, ex in zip(preds, data.examples):
                rec = {
                    "utterance": ex.text,
                    "gold": data.labels[ex.intent_id].raw_name,
                    "top": [
                        {"intent": data.labels[iid].raw_name, "score": score}
                        for iid, score in pred.ranking[:top]
                    ],
                }
                if seed is not None:
                    rec["seed"] = seed
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --- commands -----------------------------------------------------------------


def _cmd_synth(cfg: dict, explicit: set[str], writer: _Writer):
    train_data, test_data = generate_synthetic(
        cfg["intents"], cfg["shots"], cfg["noise_tokens"], cfg["seed"], cfg["test_per_intent"]
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_dataset_jsonl(train_data, out_dir / "train.jsonl")
    _write_dataset_jsonl(test_data, out_dir / "test.jsonl")
    writer.write({
        "record": "synth",
        "train_path": str(out_dir / "train.jsonl"),
        "test_path": str(out_dir / "test.jsonl"),
        "n_intents": train_data.n_intents,
        "n_train": len(train_data.examples),
        "n_test": len(test_data.examples),
    })


def _cmd_ingest(cfg: dict, explicit: set[str], writer: _Writer):
    data = _load(cfg["input"], cfg)
    domains: dict[str, int] = {}
    for ex in data.examples:
        key = ex.domain if ex.domain is not None else ""
        domains[key] = domains.get(key, 0) + 1
    writer.write({
        "record": "dataset",
        "name": data.name,
        "n_intents": data.n_intents,
        "n_examples": len(data.examples),
        "domains": dict(sorted(domains.items())),
    })


def _cmd_train(cfg: dict, explicit: set[str], writer: _Writer):
    train_data, dev_data = _split(_load(cfg["train"], cfg), cfg)
    tc = _train_config(cfg)
    params, report, vocab = train(
        train_data, dev_data, tc, init=_load_init(cfg, tc, explicit), log=writer.epoch
    )
    if cfg["ckpt"]:
        save_checkpoint(params, vocab, cfg["ckpt"])
    writer.write({
        "record": "train_summary",
        "k": tc.group_size(train_data.n_intents),
        "epochs_run": len(report.epoch_losses),
        "best_epoch": report.best_epoch,
        "selection": report.selection,
        "best_metric": report.epoch_metrics[report.best_epoch] if report.best_epoch >= 0 else None,
        "ckpt": cfg["ckpt"],
    })


def _cmd_pretrain_ood(cfg: dict, explicit: set[str], writer: _Writer):
    target = _load(cfg["target"], cfg)
    others = [_load(p, cfg) for p in cfg["others"]]
    ood = build_ood(target, others, cfg["exclude_domains"])
    tc = _train_config(cfg)
    tc = replace(tc, k=tc.group_size(target.n_intents))  # the target task fixes the group size
    ood_train, ood_dev = _split(ood, cfg)
    # Vocabulary covers the target task too, so fine-tuning keeps stable token ids.
    vocab = build_vocab([ood, target], tc.min_count)
    if cfg["plans_out"]:
        write_plans_jsonl(dataset_items(ood_train, tc.k), cfg["plans_out"])
    params, report, _ = train(
        ood_train, ood_dev, tc, init=(tc.new_params(vocab), vocab), log=writer.epoch
    )
    if cfg["ckpt"]:
        save_checkpoint(params, vocab, cfg["ckpt"])
    writer.write({
        "record": "pretrain_ood_summary",
        "k": tc.k,
        "n_intents_union": ood.n_intents,
        "n_examples": len(ood.examples),
        "best_epoch": report.best_epoch,
        "selection": report.selection,
        "ckpt": cfg["ckpt"],
    })


def _cmd_pretrain_para(cfg: dict, explicit: set[str], writer: _Writer):
    raw_pairs = pairs_from_tsv(cfg["pairs"])
    kept = filter_pairs(raw_pairs, cfg["max_words"], cfg["max_chars"])
    if not kept:
        raise DataError("no paraphrase pairs survive the length filter")
    if cfg["n_target"] is not None:
        n_target = cfg["n_target"]
    elif cfg["target"]:
        n_target = _load(cfg["target"], cfg).n_intents
    else:
        raise UsageError("pretrain-para needs --n-target or --target")
    if n_target < 2:
        raise DataError(f"need at least 2 candidates, got {n_target}")
    tc = _train_config(cfg)
    k = tc.group_size(n_target)

    tasks = build_paraphrase_instances(kept, n_target, k, seed=tc.seed)
    vocab = build_vocab([pair_sentences(kept)], tc.min_count)
    if cfg["plans_out"]:
        write_plans_jsonl(tasks, cfg["plans_out"])
    params, report = fit_items(tasks, vocab, tc.new_params(vocab), tc, log=writer.epoch)
    if cfg["ckpt"]:
        save_checkpoint(params, vocab, cfg["ckpt"])
    writer.write({
        "record": "pretrain_para_summary",
        "pairs_total": len(raw_pairs),
        "pairs_kept": len(kept),
        "n_target": n_target,
        "t_negatives": n_target - 1,
        "k": k,
        "n_anchors": len(tasks),
        "best_epoch": report.best_epoch,
        "ckpt": cfg["ckpt"],
    })


def _cmd_eval(cfg: dict, explicit: set[str], writer: _Writer):
    train_pool = _load(cfg["train"], cfg)
    test_data = _load(cfg["test"], cfg)
    tc = _train_config(cfg)
    report = evaluate_runs(
        train_pool, test_data, tc, cfg["seeds"], cfg["shots"],
        dev_fraction=cfg["dev_fraction"], init=_load_init(cfg, tc, explicit),
    )
    for seed, acc in zip(report.seeds, report.accuracies):
        writer.write({"record": "run", "seed": seed, "accuracy": acc})
    writer.write({"record": "eval_report", **report.to_record()})
    print(report.to_text(), file=sys.stderr)
    if cfg["predictions_out"]:
        _write_predictions(cfg["predictions_out"], test_data, zip(report.seeds, report.predictions))


def _cmd_zeroshot(cfg: dict, explicit: set[str], writer: _Writer):
    test_data, k, preds = _predict_checkpoint(cfg)
    writer.write({
        "record": "zeroshot",
        "k": k,
        "n_test": len(test_data.examples),
        "accuracy": top1_accuracy(preds, test_data),
    })
    if cfg["predictions_out"]:
        _write_predictions(cfg["predictions_out"], test_data, [(None, preds)])


def _cmd_sweep_k(cfg: dict, explicit: set[str], writer: _Writer):
    data = _load(cfg["train"], cfg)
    train_data, dev_data = _split(data, cfg)
    if dev_data is None or not dev_data.examples:
        raise DataError("sweep-k needs a non-empty dev set: pass --dev or a larger --dev-fraction")
    tc = _train_config(cfg)
    writer.write({
        "record": "choose_k",
        "n": data.n_intents,
        "k_min": tc.k_min,
        "k_max": tc.k_max,
        "chosen": tc.group_size(data.n_intents),
    })
    rows = sweep_k(train_data, dev_data, tc, cfg["k_values"])
    for r in rows:
        writer.write({
            "record": "sweep_row", "k": r.k, "m": r.m,
            "padding": r.padding, "dev_accuracy": r.dev_accuracy,
        })
    print(sweep_table(rows), file=sys.stderr)


def _cmd_diagnose_topk(cfg: dict, explicit: set[str], writer: _Writer):
    test_data, _, preds = _predict_checkpoint(cfg)
    gold = [ex.intent_id for ex in test_data.examples]
    filt = label_filter_rankings([ex.text for ex in test_data.examples], test_data.labels)
    misses, recovered = topk_miss(preds, gold, cfg["k_top"], filt)
    writer.write({
        "record": "topk_miss",
        "k_top": cfg["k_top"],
        "n_test": len(gold),
        "miss_count": misses,
        "recovered_count": recovered,
    })
    if cfg["predictions_out"]:
        _write_predictions(cfg["predictions_out"], test_data, [(None, preds)])


_COMMANDS: dict[str, tuple[Callable, list[Opt]]] = {
    "synth": (_cmd_synth, [
        Opt("intents", "int", required=True, help="number of intents", low=2),
        Opt("shots", "int", 5, "training examples per intent", low=1),
        Opt("noise_tokens", "int", 3, "filler words per utterance", low=0),
        Opt("test_per_intent", "int", 20, "test examples per intent", low=1),
        Opt("out_dir", "str", required=True, help="directory for train.jsonl/test.jsonl"),
        _SEED,
        _OUT,
    ]),
    "ingest": (_cmd_ingest, [
        Opt("input", "str", required=True, help="dataset file"),
        _FORMAT,
        _INVENTORY,
        _OUT,
    ]),
    "train": (_cmd_train, [
        Opt("train", "str", required=True, help="training dataset"),
        _FORMAT,
        _INVENTORY,
        Opt("dev", "str", None, "explicit dev dataset"),
        Opt("dev_fraction", "float", 0.1, "dev split when --dev is absent; 0 disables"),
        *_HYPERPARAMS,
        Opt("init", "str", None, "warm-start checkpoint"),
        Opt("ckpt", "str", None, "where to save the trained checkpoint"),
        _SEED,
        _OUT,
    ]),
    "pretrain-ood": (_cmd_pretrain_ood, [
        Opt("target", "str", required=True, help="target task (fixes group size and vocabulary)"),
        Opt("others", "strlist", required=True, help="comma-separated source datasets"),
        _FORMAT,
        Opt("exclude_domains", "strlist", [], "domains dropped from the sources"),
        Opt("dev_fraction", "float", 0.1, "dev split of the pooled data; 0 disables"),
        *_pretrain_hyperparams(),
        Opt("ckpt", "str", None, "where to save the pretrained checkpoint"),
        Opt("plans_out", "str", None, "audit JSONL of the generated plans"),
        _SEED,
        _OUT,
    ]),
    "pretrain-para": (_cmd_pretrain_para, [
        Opt("pairs", "str", required=True, help="TSV of anchor<TAB>paraphrase"),
        Opt("n_target", "int", None, "candidate count per anchor (or derive via --target)"),
        Opt("target", "str", None, "target task whose intent count sets n_target"),
        Opt("max_words", "int", 10, "per-side word cap", low=1),
        Opt("max_chars", "int", 40, "per-side character cap", low=1),
        _FORMAT,
        *_pretrain_hyperparams(),
        Opt("ckpt", "str", None, "where to save the pretrained checkpoint"),
        Opt("plans_out", "str", None, "audit JSONL of the generated plans"),
        _SEED,
        _OUT,
    ]),
    "eval": (_cmd_eval, [
        Opt("train", "str", required=True, help="training pool"),
        Opt("test", "str", required=True, help="test dataset"),
        _FORMAT,
        _INVENTORY,
        Opt("shots", "int", required=True, help="examples sampled per intent per run", low=1),
        Opt("seeds", "intlist", [0, 1, 2], "one run per seed"),
        Opt("dev_fraction", "float", 0.1, "dev split of each few-shot sample"),
        *_HYPERPARAMS,
        Opt("init", "str", None, "warm-start checkpoint for every run"),
        Opt("predictions_out", "str", None, "per-run predictions JSONL"),
        _OUT,
    ]),
    "zeroshot": (_cmd_zeroshot, [
        Opt("ckpt", "str", required=True, help="pretrained checkpoint"),
        Opt("test", "str", required=True, help="test dataset"),
        _FORMAT,
        _INVENTORY,
        *_GROUP_SIZE,
        Opt("predictions_out", "str", None, "predictions JSONL"),
        _OUT,
    ]),
    "sweep-k": (_cmd_sweep_k, [
        Opt("train", "str", required=True, help="training dataset"),
        _FORMAT,
        _INVENTORY,
        Opt("dev", "str", None, "explicit dev dataset"),
        Opt("dev_fraction", "float", 0.1, "dev split when --dev is absent"),
        Opt("k_values", "intlist", required=True, help="group sizes to sweep, e.g. 2,10,20", low=1),
        *[o for o in _HYPERPARAMS if o.name != "k"],
        _SEED,
        _OUT,
    ]),
    "diagnose-topk": (_cmd_diagnose_topk, [
        Opt("ckpt", "str", required=True, help="trained checkpoint"),
        Opt("test", "str", required=True, help="test dataset"),
        _FORMAT,
        _INVENTORY,
        *_GROUP_SIZE,
        Opt("k_top", "int", 5, "filter depth for the miss count", low=1),
        Opt("predictions_out", "str", None, "predictions JSONL"),
        _OUT,
    ]),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="fewintent", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (func, opts) in _COMMANDS.items():
        _add_command(subparsers, name, opts, func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse --help
            return int(exc.code or 0)
        if not getattr(args, "_func", None):
            parser.print_usage(sys.stderr)
            return 1
        cfg, explicit = _resolve(args)
        if any(o.name in cfg for o in _HYPERPARAMS):
            _train_config(cfg)  # out-of-range hyperparameters end the run before any output
        negative = [s for s in (cfg.get("seed", 0), *cfg.get("seeds", ())) if s < 0]
        if negative:
            raise DataError(f"seeds must be non-negative, got {negative[0]}")
        writer = _Writer(cfg.get("out"))
        try:
            writer.write({"record": "config", "command": args._command, "config": cfg})
            args._func(cfg, explicit, writer)
        finally:
            writer.close()
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
