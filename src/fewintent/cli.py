"""Single-binary command line for the full pipeline.

Subcommands: ingest, train, pretrain-ood, pretrain-para, eval, zeroshot,
predict, sweep-k, diagnose-topk, synth. Options can come from ``--config``
files of flat ``key = value`` lines, with flags taking precedence; unknown
keys are errors. Every run writes JSONL metrics (first record: the fully
resolved config) and all randomness hangs off a single ``--seed``.

`main` checks every option, reads every input file and sets the group size
before the config record: a bad option, an unreadable input file or an
infeasible group-size range ends the run before any output.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import (
    Dataset, build_ood, inventory_labels, json_line, load_dataset, split_dev, write_dataset_jsonl, write_jsonl,
)
from .encoder import build_vocab, utterance_token_ids, word_tokens
from .errors import DataError, NumericError
from .evaluator import (
    evaluate_runs,
    generate_synthetic,
    label_filter_rankings,
    predict,
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
    dev_split,
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
    # int | float | str | bool | intlist | strlist, or the reading kind of an input file
    # (`_READ_KINDS`): dataset, datasets (a comma-separated list), inventory, pairs, model
    kind: str
    default: object = None
    help: str = ""
    required: bool = False
    low: int | None = None  # least accepted value, of each entry for a list
    check: Callable[[object], None] | None = None  # raises on a value the option rejects

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_DEFAULTS = TrainConfig()  # the default of every hyperparameter option
_HYPERPARAMS = [
    Opt("k", "int", _DEFAULTS.k, "group size; default minimizes placeholder padding"),
    Opt("k_min", "int", _DEFAULTS.k_min, "lower bound for automatic group-size choice"),
    Opt("k_max", "int", _DEFAULTS.k_max, "upper bound for automatic group-size choice"),
    Opt("tau", "float", _DEFAULTS.tau, "softmax temperature"),
    Opt("batch_size", "int", _DEFAULTS.batch_size, "sequences per optimizer step"),
    Opt("learning_rate", "float", _DEFAULTS.learning_rate, "step size"),
    Opt("epochs", "int", _DEFAULTS.epochs, "training epochs"),
    Opt("shuffles", "int", _DEFAULTS.shuffles_per_sequence,
        "times each plan is repeated per epoch (default: k)"),
    Opt("d_emb", "int", _DEFAULTS.d_emb, "embedding dimension"),
    Opt("d_hidden", "int", _DEFAULTS.d_hidden, "projector hidden dimension"),
    Opt("d_out", "int", _DEFAULTS.d_out, "projector output dimension"),
    Opt("projector_depth", "int", _DEFAULTS.projector_depth, "projector layers"),
    Opt("attention", "bool", _DEFAULTS.attention, "enable the single self-attention layer"),
    Opt("min_count", "int", _DEFAULTS.min_count, "vocabulary frequency cutoff"),
]


def _known_format(value: str) -> None:
    if value not in ("csv", "jsonl"):
        raise UsageError(f"unknown format {value!r}")


def _enough_candidates(value: int) -> None:
    if value < 2:
        raise DataError(f"need at least 2 candidates, got {value}")


def _at_least_one(noun: str) -> Callable[[list], None]:
    """A check that a list option holds at least one entry."""
    def check(values: list) -> None:
        if not values:
            raise DataError(f"need at least one {noun}")
    return check


def _split_fraction(value: float) -> None:
    """A fraction of 0 or less means no dev set; `split_dev` takes one below 1."""
    if not value < 1:  # NaN too
        raise DataError(f"dev fraction must be in (0, 1), got {value}")


_GROUP_SIZE = [o for o in _HYPERPARAMS if o.name in ("k", "k_min", "k_max")]
_FORMAT = Opt("format", "str", None, "csv or jsonl; inferred from the extension when omitted",
              check=_known_format)
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
        if opt.kind in ("strlist", "datasets"):
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
    option's `low` is a `DataError`; a value its option's `check` rejects
    raises what the check raises.
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
        if opt.check is not None and value is not None:
            opt.check(value)
    return resolved, explicit


class _Writer:
    """JSONL metrics stream with deterministic bytes (sorted keys, no timestamps)."""

    def __init__(self, path: str | None):
        self._fh = Path(path).open("w", encoding="utf-8", newline="\n") if path else sys.stdout
        self._own = path is not None

    def write(self, record: dict):
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()  # a record is readable once written, as `predict` answers a stream

    def epoch(self, record: dict):
        self.write({"record": "epoch", **record})

    def close(self):
        if self._own:
            self._fh.close()


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:  # checked by `_known_format`
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".json"):
        return "jsonl"
    raise UsageError(f"cannot infer format of {path}; pass --format csv|jsonl")


def _train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig that a command's resolved `_HYPERPARAMS` entries describe."""
    kwargs = {o.name: cfg[o.name] for o in _HYPERPARAMS if o.name in cfg}
    kwargs["shuffles_per_sequence"] = kwargs.pop("shuffles", None)
    # eval has no --seed: evaluate_runs seeds each run from --seeds.
    return TrainConfig(seed=cfg.get("seed", 0), **kwargs)


# The option whose intent count fixes each training or scoring command's group size.
_INTENT_COUNT_OPTION = {"train": "train", "sweep-k": "train", "pretrain-ood": "target",
                        "pretrain-para": "n_target", "eval": "test", "zeroshot": "test",
                        "diagnose-topk": "test", "predict": "inventory"}


_READ_KINDS = ("dataset", "datasets", "inventory", "pairs", "model")


def _read(kind: str, value, cfg: dict, explicit: set[str]):
    """What the input file `value` of reading kind `kind` holds, or for `datasets` each
    file it lists: a `Dataset`, read with --format or the format its suffix names and
    with --inventory, where an utterance without word tokens is a DataError; an
    inventory's labels; (pairs, those within --max-words and
    --max-chars), where none within them is a DataError; or a checkpoint's (params,
    vocab). A checkpoint sets the command's shape keys in `cfg`; an explicit value that
    disagrees is a DataError. `d_hidden` is set only from a single hidden width."""
    if kind == "datasets":
        return [_read("dataset", path, cfg, explicit) for path in value]
    if kind == "inventory":
        return inventory_labels(value)
    if kind == "pairs":
        pairs = pairs_from_tsv(value)
        kept = filter_pairs(pairs, cfg["max_words"], cfg["max_chars"])
        if not kept:
            raise DataError("no paraphrase pairs survive the length filter")
        return pairs, kept
    if kind == "dataset":
        data = load_dataset(value, _infer_format(value, cfg["format"]), cfg.get("inventory"))
        empty = next((ex.text for ex in data.examples if not word_tokens(ex.text)), None)
        if empty is not None:
            raise DataError(f"{value}: utterance {empty!r} has no tokens")
        return data
    params, vocab = load_checkpoint(value)
    hidden = params.dims[1:-1]
    shape = [("d_emb", params.d_emb), *[("d_hidden", width) for width in hidden], ("d_out", params.d_out),
             ("projector_depth", len(params.proj_weights)), ("attention", params.has_attention)]
    for name, have in shape:
        if name in explicit and have != cfg[name]:
            raise DataError(f"checkpoint {name} is {have}, configured {cfg[name]}")
        if name in cfg and (name != "d_hidden" or len(set(hidden)) == 1):
            cfg[name] = have
    return params, vocab


def _split(data: Dataset, dev: Dataset | None, cfg: dict, split=dev_split) -> tuple[Dataset, Dataset | None]:
    """(train, dev): the --dev dataset when given, else a --dev-fraction `split` (by
    default `dev_split`) of `data`; a fraction of 0 or less means no dev set."""
    if dev is not None:
        return data, dev
    if cfg["dev_fraction"] > 0:
        return split(data, cfg["dev_fraction"], cfg["seed"])
    return data, None


def _top(labels, ranking, top: int = 5) -> list[dict]:
    """The first `top` entries of a ranking, each intent by its raw name."""
    return [{"intent": labels[iid].raw_name, "score": score} for iid, score in ranking[:top]]


def _write_predictions(path: str, data: Dataset, runs):
    """One record per run and test utterance; `runs` pairs each run's seed
    (None for a single unseeded run) with its predictions."""
    write_jsonl(path, (
        {"utterance": ex.text, "gold": data.labels[ex.intent_id].raw_name,
         "top": _top(data.labels, pred.ranking)} | ({} if seed is None else {"seed": seed})
        for seed, preds in runs for pred, ex in zip(preds, data.examples)
    ))


# --- commands -----------------------------------------------------------------


def _cmd_synth(cfg: dict, inputs: dict, tc: None, writer: _Writer):
    train_data, test_data = generate_synthetic(
        cfg["intents"], cfg["shots"], cfg["noise_tokens"], cfg["seed"], cfg["test_per_intent"]
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset_jsonl(train_data, out_dir / "train.jsonl")
    write_dataset_jsonl(test_data, out_dir / "test.jsonl")
    writer.write({
        "record": "synth",
        "train_path": str(out_dir / "train.jsonl"),
        "test_path": str(out_dir / "test.jsonl"),
        "n_intents": train_data.n_intents,
        "n_train": len(train_data.examples),
        "n_test": len(test_data.examples),
    })


def _cmd_ingest(cfg: dict, inputs: dict, tc: None, writer: _Writer):
    data = inputs["input"]
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


def _cmd_train(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    train_data, dev_data = _split(inputs["train"], inputs.get("dev"), cfg)
    params, report, vocab = train(train_data, dev_data, tc, init=inputs.get("init"), log=writer.epoch)
    if cfg["ckpt"]:
        save_checkpoint(params, vocab, cfg["ckpt"])
    writer.write({
        "record": "train_summary",
        "k": tc.k,
        "epochs_run": len(report.epoch_losses),
        "best_epoch": report.best_epoch,
        "selection": report.selection,
        "best_metric": report.epoch_metrics[report.best_epoch] if report.best_epoch >= 0 else None,
        "ckpt": cfg["ckpt"],
    })


def _cmd_pretrain_ood(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    target = inputs["target"]
    ood = build_ood(target, inputs["others"], cfg["exclude_domains"])
    ood_train, ood_dev = _split(ood, None, cfg)
    # Vocabulary covers the target task too, so fine-tuning keeps stable token ids.
    vocab = build_vocab([ood, target], tc.min_count)
    audit = (lambda items: write_plans_jsonl(items, cfg["plans_out"])) if cfg["plans_out"] else None
    params, report, _ = train(
        ood_train, ood_dev, tc, init=(tc.new_params(vocab), vocab), log=writer.epoch, audit=audit
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


def _cmd_pretrain_para(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    raw_pairs, kept = inputs["pairs"]
    n_target = cfg["n_target"]
    tasks = build_paraphrase_instances(kept, n_target, tc.k, seed=tc.seed)
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
        "k": tc.k,
        "n_anchors": len(tasks),
        "best_epoch": report.best_epoch,
        "ckpt": cfg["ckpt"],
    })


def _cmd_eval(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    test_data = inputs["test"]
    report = evaluate_runs(inputs["train"], test_data, tc, cfg["seeds"], cfg["shots"],
                           dev_fraction=cfg["dev_fraction"], init=inputs.get("init"))
    for seed, acc in zip(report.seeds, report.accuracies):
        writer.write({"record": "run", "seed": seed, "accuracy": acc})
    writer.write({"record": "eval_report", **report.to_record()})
    print(report.to_text(), file=sys.stderr)
    if cfg["predictions_out"]:
        _write_predictions(cfg["predictions_out"], test_data, zip(report.seeds, report.predictions))


def _cmd_zeroshot(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    test_data = inputs["test"]
    preds = predict_dataset(*inputs["ckpt"], test_data, tc.k)
    writer.write({
        "record": "zeroshot",
        "k": tc.k,
        "n_test": len(test_data.examples),
        "accuracy": top1_accuracy(preds, test_data),
    })
    if cfg["predictions_out"]:
        _write_predictions(cfg["predictions_out"], test_data, [(None, preds)])


def _stdin_utterances(vocab) -> Iterator[tuple[int, str]]:
    """(line number, text) of each JSONL `{"text": ...}` record on stdin;
    blank lines are skipped. A line that is not such a record, or whose
    text has no tokens, is a DataError naming the line."""
    for lineno, raw in enumerate(sys.stdin.buffer, start=1):
        if not raw.strip():
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"line {lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        rec = json_line(line, f"line {lineno}")
        if not isinstance(rec, dict) or not isinstance(rec.get("text"), str):
            raise DataError(f"line {lineno}: record needs a string 'text' field")
        try:
            utterance_token_ids(rec["text"], vocab)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        yield lineno, rec["text"]


def _cmd_predict(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    params, vocab = inputs["ckpt"]
    labels = inputs["inventory"]
    for lineno, text in _stdin_utterances(vocab):
        ranking = predict(params, vocab, text, labels, tc.k).ranking
        writer.write({"record": "prediction", "line": lineno, "top": _top(labels, ranking)})


def _cmd_sweep_k(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    data = inputs["train"]
    train_data, dev_data = _split(data, inputs.get("dev"), cfg, split_dev)  # a dev set of any size
    if not dev_data.examples:
        raise DataError("sweep-k needs a non-empty dev set: pass --dev or a larger --dev-fraction")
    writer.write({
        "record": "choose_k",
        "n": data.n_intents,
        "k_min": tc.k_min,
        "k_max": tc.k_max,
        "chosen": tc.k,
    })
    rows = sweep_k(train_data, dev_data, tc, cfg["k_values"])
    for r in rows:
        writer.write({
            "record": "sweep_row", "k": r.k, "m": r.m,
            "padding": r.padding, "dev_accuracy": r.dev_accuracy,
        })
    print(sweep_table(rows), file=sys.stderr)


def _cmd_diagnose_topk(cfg: dict, inputs: dict, tc: TrainConfig, writer: _Writer):
    test_data = inputs["test"]
    preds = predict_dataset(*inputs["ckpt"], test_data, tc.k)
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
        Opt("input", "dataset", required=True, help="dataset file"),
        _FORMAT,
        _INVENTORY,
        _OUT,
    ]),
    "train": (_cmd_train, [
        Opt("train", "dataset", required=True, help="training dataset"),
        _FORMAT,
        _INVENTORY,
        Opt("dev", "dataset", None, "explicit dev dataset"),
        Opt("dev_fraction", "float", 0.1, "dev split when --dev is absent; 0 disables",
            check=_split_fraction),
        *_HYPERPARAMS,
        Opt("init", "model", None, "warm-start checkpoint"),
        Opt("ckpt", "str", None, "where to save the trained checkpoint"),
        _SEED,
        _OUT,
    ]),
    "pretrain-ood": (_cmd_pretrain_ood, [
        Opt("target", "dataset", required=True, help="target task (fixes group size and vocabulary)"),
        Opt("others", "datasets", required=True, help="comma-separated source datasets",
            check=_at_least_one("dataset file")),
        _FORMAT,
        Opt("exclude_domains", "strlist", [], "domains dropped from the sources"),
        Opt("dev_fraction", "float", 0.1, "dev split of the pooled data; 0 disables",
            check=_split_fraction),
        *_pretrain_hyperparams(),
        Opt("ckpt", "str", None, "where to save the pretrained checkpoint"),
        Opt("plans_out", "str", None, "audit JSONL of the generated plans"),
        _SEED,
        _OUT,
    ]),
    "pretrain-para": (_cmd_pretrain_para, [
        Opt("pairs", "pairs", required=True, help="TSV of anchor<TAB>paraphrase"),
        Opt("n_target", "int", required=True, help="candidates per anchor: the target task's intent count",
            check=_enough_candidates),
        Opt("max_words", "int", 10, "per-side word cap", low=1),
        Opt("max_chars", "int", 40, "per-side character cap", low=1),
        *_pretrain_hyperparams(),
        Opt("ckpt", "str", None, "where to save the pretrained checkpoint"),
        Opt("plans_out", "str", None, "audit JSONL of the generated plans"),
        _SEED,
        _OUT,
    ]),
    "eval": (_cmd_eval, [
        Opt("train", "dataset", required=True, help="training pool"),
        Opt("test", "dataset", required=True, help="test dataset"),
        _FORMAT,
        _INVENTORY,
        Opt("shots", "int", required=True, help="examples sampled per intent per run", low=1),
        Opt("seeds", "intlist", [0, 1, 2], "one run per seed", check=_at_least_one("seed")),
        Opt("dev_fraction", "float", 0.1, "dev split of each few-shot sample",
            check=_split_fraction),
        *_HYPERPARAMS,
        Opt("init", "model", None, "warm-start checkpoint for every run"),
        Opt("predictions_out", "str", None, "per-run predictions JSONL"),
        _OUT,
    ]),
    "zeroshot": (_cmd_zeroshot, [
        Opt("ckpt", "model", required=True, help="pretrained checkpoint"),
        Opt("test", "dataset", required=True, help="test dataset"),
        _FORMAT,
        _INVENTORY,
        *_GROUP_SIZE,
        Opt("predictions_out", "str", None, "predictions JSONL"),
        _OUT,
    ]),
    "predict": (_cmd_predict, [
        Opt("ckpt", "model", required=True, help="trained checkpoint"),
        Opt("inventory", "inventory", required=True, help="label inventory, one raw label per line"),
        *_GROUP_SIZE,
        _OUT,
    ]),
    "sweep-k": (_cmd_sweep_k, [
        Opt("train", "dataset", required=True, help="training dataset"),
        _FORMAT,
        _INVENTORY,
        Opt("dev", "dataset", None, "explicit dev dataset"),
        Opt("dev_fraction", "float", 0.1, "dev split when --dev is absent",
            check=_split_fraction),
        Opt("k_values", "intlist", required=True, help="group sizes to sweep, e.g. 2,10,20", low=1,
            check=_at_least_one("k value")),
        *[o for o in _HYPERPARAMS if o.name != "k"],
        _SEED,
        _OUT,
    ]),
    "diagnose-topk": (_cmd_diagnose_topk, [
        Opt("ckpt", "model", required=True, help="trained checkpoint"),
        Opt("test", "dataset", required=True, help="test dataset"),
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
        negative = [s for s in (cfg.get("seed", 0), *cfg.get("seeds", ())) if s < 0]
        if negative:
            raise DataError(f"seeds must be non-negative, got {negative[0]}")
        if args._command == "sweep-k" and cfg["dev"] is None and cfg["dev_fraction"] <= 0:
            raise DataError("sweep-k needs a dev set: pass --dev or a --dev-fraction above 0")
        # Every input file is read here, in option order, before any output.
        inputs = {o.name: _read(o.kind, cfg[o.name], cfg, explicit) for o in args._opts
                  if o.kind in _READ_KINDS and cfg[o.name] is not None}
        tc = None  # the run's TrainConfig, built once a checkpoint has set its shape keys in cfg
        if args._command in _INTENT_COUNT_OPTION:
            name = _INTENT_COUNT_OPTION[args._command]
            counted = inputs.get(name, cfg[name])  # a Dataset, an inventory's labels or --n-target
            n = counted if isinstance(counted, int) else len(getattr(counted, "labels", counted))
            tc = _train_config(cfg)
            tc.k = tc.group_size(n)
        writer = _Writer(cfg.get("out"))
        try:
            writer.write({"record": "config", "command": args._command, "config": cfg})
            with np.errstate(all="ignore"):  # the library's own checks raise NumericError
                args._func(cfg, inputs, tc, writer)
        finally:
            writer.close()
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader of stdout has gone. Send what is still buffered to
        # devnull, so the interpreter's exit flush stays quiet, and exit as a
        # process killed by SIGPIPE does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
