"""Seeded mini-batch training over candidate-slate plans.

This module decides how every model is trained: the group size, fresh
parameters, the training items of a dataset, the dev set held out and when
dev accuracy selects the best epoch. Fine-tuning and out-of-domain
pretraining both run `train`; paraphrase pretraining feeds its own items to `fit_items`.

Every epoch runs each plan as built, `shuffles_per_sequence` (default k)
times, in seeded order. Texts are tokenized once a run; without attention
the plans are compiled once into a span table and a batch is the rows of
its picks, and with attention each batch is laid out when it runs. It steps
Adam on exact batch gradients and tracks the best epoch by dev accuracy or
training loss. The optimizer and checkpoints handle the
parameters as the one vector `ModelParams.flat`: a step is one pass over it,
and a checkpoint stores it, with the vocabulary, bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Dataset, split_dev
from .encoder import (
    ModelParams,
    PlanBatch,
    SpanTable,
    Vocabulary,
    build_vocab,
    init_params,
    loss_and_param_grads,
    param_shapes,
    plan_word_ids,
)
from .encoder import tokenize  # noqa: F401  perfbench/layers.py traces it here
from .errors import CheckpointError, DataError, NumericError
from .objective import LossConfig
from .sequencer import build_plans, choose_k, partition_intents
from .sequencer import augment_shuffles  # noqa: F401  perfbench/layers.py traces it here

# Dev-based selection needs this many dev examples; below it, training loss selects.
MIN_DEV_FOR_SELECTION = 10


def dev_split(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset | None]:
    """The `split_dev` (train, dev), or (data, None) for a fraction of 0 or less
    or a cut of fewer than MIN_DEV_FOR_SELECTION examples, which `train` would
    never read. A NaN fraction, or one of 1 or more, is a `DataError`."""
    if fraction <= 0:
        return data, None
    train_data, dev = split_dev(data, fraction, seed)
    if len(dev.examples) < MIN_DEV_FOR_SELECTION:
        return data, None
    return train_data, dev


@dataclass
class TrainConfig:
    k: int | None = None  # group size; None picks the padding minimizer over [k_min, k_max]
    k_min: int = 20
    k_max: int = 35
    tau: float = 0.1
    batch_size: int = 8
    learning_rate: float = 1e-2
    epochs: int = 10
    seed: int = 0
    shuffles_per_sequence: int | None = None  # runs of each plan per epoch; None means k
    d_emb: int = 64
    d_hidden: int = 64
    d_out: int = 64
    projector_depth: int = 2
    attention: bool = False
    min_count: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0:
            raise DataError("batch_size/epochs out of range")
        for name in ("tau", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be positive and finite, got {value}")
        lows = {"d_emb": 1, "d_hidden": 1, "d_out": 2, "projector_depth": 1, "min_count": 1}
        for name, low in lows.items():  # d_out: cosine needs two output dimensions
            if getattr(self, name) < low:
                raise DataError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.k is not None and self.k < 1:
            raise DataError(f"group size must be >= 1, got {self.k}")
        if self.k_min < 1 or self.k_min > self.k_max:
            raise DataError(f"bad group-size range [{self.k_min}, {self.k_max}]")
        if self.shuffles_per_sequence is not None and self.shuffles_per_sequence < 1:
            raise DataError("shuffles_per_sequence must be >= 1")
        if self.seed < 0:
            raise DataError("seed must be non-negative")

    def group_size(self, n_intents: int) -> int:
        """`k`, or the padding minimizer over [k_min, k_max] when `k` is unset."""
        return self.k or choose_k(n_intents, self.k_min, self.k_max)

    def new_params(self, vocab: Vocabulary) -> ModelParams:
        """Freshly initialized parameters of the configured shape, seeded by `seed`."""
        return init_params(
            len(vocab), self.d_emb, self.d_hidden, self.d_out, self.projector_depth,
            seed=self.seed, attention=self.attention,
        )

    def loss_config(self) -> LossConfig:
        return LossConfig(self.tau)


@dataclass
class TrainReport:
    epoch_losses: list[float]
    epoch_metrics: list[float]
    selection: str  # metric actually used: "dev_accuracy" or "train_loss"
    best_epoch: int  # -1 when no epochs ran


@dataclass(frozen=True)
class TrainItem:
    """One utterance's plans against its own label inventory.

    Dataset training shares a single inventory across items; paraphrase
    pretraining gives every anchor its own candidate inventory.
    """

    labels: Sequence
    plans: tuple


def dataset_items(data: Dataset, k: int) -> list[TrainItem]:
    """One item per utterance: its plans over the dataset's inventory in groups of k."""
    groups = partition_intents(data.labels, k)
    return [TrainItem(data.labels, tuple(build_plans(u, groups))) for u in data.examples]


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class _Adam:
    """Adam over `ModelParams.flat`; the moments and two work buffers are
    allocated at the first step and reused by every later one."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: np.ndarray | None = None

    def step(self, params: ModelParams, grads: ModelParams):
        if self.m is None:
            self.m, self.v, self._a, self._b = (np.zeros_like(params.flat) for _ in range(4))
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        m, v, g, a, b = self.m, self.v, grads.flat, self._a, self._b
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;  flat -= lr (m / b1t) / (sqrt(v / b2t) + eps)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=a), g, out=a)
        np.multiply(self.lr, np.divide(m, b1t, out=a), out=a)
        np.add(np.sqrt(np.divide(v, b2t, out=b), out=b), ADAM_EPS, out=b)
        params.flat -= np.divide(a, b, out=a)


def fit_items(
    items: Sequence[TrainItem],
    vocab: Vocabulary,
    params: ModelParams,
    cfg: TrainConfig,
    dev_scorer: Callable[[ModelParams], float] | None = None,
    log: Callable[[dict], None] | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Core training loop shared by fine-tuning and both pretraining modes.

    Mutates `params` in place and returns a copy of the best epoch's state.
    Fully deterministic given cfg.seed.
    """
    if not items:
        raise DataError("nothing to train on")
    loss_cfg = cfg.loss_config()
    selection = "dev_accuracy" if dev_scorer is not None else "train_loss"
    opt = _Adam(cfg.learning_rate)

    losses: list[float] = []
    metrics: list[float] = []
    best_epoch = -1
    best_key = None
    best_params = params.copy()

    plans = [(plan, item.labels) for item in items for plan in item.plans]
    word_ids = plan_word_ids(plans, vocab)  # every text tokenized once a run
    table = None if params.has_attention else SpanTable.of_plans(plans, word_ids)
    # Each plan runs as built, `shuffles_per_sequence` (default k) times an epoch. With no
    # positional signal in the encoder, a slot-shuffled copy would only repeat its gradients.
    pool = np.repeat(np.arange(len(plans)), [cfg.shuffles_per_sequence or p.group.k for p, _ in plans])

    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        # One draw per plan, as when each seeded its shuffled copies: batches stay the same.
        rng.integers(0, 2**32, size=len(plans))
        order = rng.permutation(len(pool))

        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = PlanBatch(plans, word_ids, table, pool[order[start : start + cfg.batch_size]])
            loss, grads = loss_and_param_grads(params, batch, loss_cfg)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            opt.step(params, grads)
            total += loss * len(batch)
        epoch_loss = total / len(pool)
        losses.append(epoch_loss)

        metric = epoch_loss if dev_scorer is None else dev_scorer(params)
        metrics.append(metric)
        key = -metric if dev_scorer is None else metric
        if best_key is None or key > best_key:
            best_key = key
            best_epoch = epoch
            best_params = params.copy()
        if log is not None:
            log({"epoch": epoch, "train_loss": epoch_loss, selection: metric})

    return best_params, TrainReport(losses, metrics, selection, best_epoch)


def train(
    train_data: Dataset,
    dev_data: Dataset | None,
    cfg: TrainConfig,
    init: tuple[ModelParams, Vocabulary] | None = None,
    log: Callable[[dict], None] | None = None,
    audit: Callable[[list[TrainItem]], None] | None = None,
) -> tuple[ModelParams, TrainReport, Vocabulary]:
    """Train on a dataset; returns (best params, report, vocabulary).

    A warm start (`init`) keeps the provided vocabulary untouched so token ids
    stay stable across pretraining and fine-tuning. Dev accuracy selects the
    best epoch when `dev_data` holds at least MIN_DEV_FOR_SELECTION examples
    (as every `dev_split` dev set does); otherwise training loss does.
    `audit`, when given, sees the training items before the first epoch.
    """
    if not train_data.examples:
        raise DataError("training dataset is empty")
    k = cfg.group_size(train_data.n_intents)

    if init is not None:
        init_p, vocab = init
        if init_p.vocab_size != len(vocab):
            raise DataError(
                f"init params cover {init_p.vocab_size} tokens, vocabulary has {len(vocab)}"
            )
        params = init_p.copy()
    else:
        vocab = build_vocab([train_data], cfg.min_count)
        params = cfg.new_params(vocab)

    dev_scorer = None
    if dev_data is not None and len(dev_data.examples) >= MIN_DEV_FOR_SELECTION:
        from .evaluator import dataset_accuracy  # local import: evaluator imports trainer

        dev_scorer = lambda p: dataset_accuracy(p, vocab, dev_data, k)

    items = dataset_items(train_data, k)
    if audit is not None:
        audit(items)
    best, report = fit_items(items, vocab, params, cfg, dev_scorer, log)
    return best, report, vocab


# --- checkpoint serialization ------------------------------------------------
#
# Layout (little-endian): 8-byte magic, u32 version, u32 flags (bit 0 =
# attention), u32 projector depth, u32 vocab size, then depth+1 u32 layer
# dims, a length-prefixed UTF-8 JSON token list, the parameter vector
# (`ModelParams.flat`: every array row-major, in `param_shapes` order) as
# float64, and a trailing CRC32 of everything before it.

_MAGIC = b"FEWINTC\x01"
_VERSION = 1


def save_checkpoint(params: ModelParams, vocab: Vocabulary, path: str | Path) -> None:
    if params.vocab_size != len(vocab):
        raise CheckpointError(
            f"params cover {params.vocab_size} tokens, vocabulary has {len(vocab)}"
        )
    dims = params.dims
    blob = json.dumps(list(vocab.tokens), ensure_ascii=False).encode("utf-8")

    out = bytearray(_MAGIC)
    out += struct.pack("<IIII", _VERSION, 1 if params.has_attention else 0, len(dims) - 1, params.vocab_size)
    out += struct.pack(f"<{len(dims)}I", *dims)
    out += struct.pack("<I", len(blob))
    out += blob
    out += params.flat.astype("<f8", copy=False).tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, Vocabulary]:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < len(_MAGIC) + 20:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch")

    off = len(_MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw) - 4:
            raise CheckpointError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    version, flags, depth, vocab_size = take("<IIII")
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    dims = list(take(f"<{depth + 1}I"))
    (blob_len,) = take("<I")
    if off + blob_len > len(raw) - 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    try:
        tokens = json.loads(raw[off : off + blob_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise CheckpointError(f"{path}: vocabulary is not UTF-8 JSON: {exc}") from None
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"{path}: vocabulary is not a list of strings")
    off += blob_len

    attention = bool(flags & 1)
    try:
        shapes = param_shapes(vocab_size, dims, attention)
        vocab = Vocabulary(tuple(tokens))
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    count = sum(map(math.prod, shapes))
    if off + 8 * count > len(raw) - 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if off + 8 * count != len(raw) - 4:
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    if len(vocab) != vocab_size:
        raise CheckpointError(f"{path}: vocabulary size disagrees with header")
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=off).astype(np.float64)
    return ModelParams.of_flat(flat, vocab_size, dims, attention), vocab
