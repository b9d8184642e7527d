"""Prediction over the full intent space, multi-seed accuracy reporting,
pipeline-filter diagnostics, group-size sweeps, and synthetic task generators
used by the experiment scripts and the acceptance suite."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .corpus import Dataset, IntentLabel, LabeledUtterance, sample_few_shot
from .encoder import (
    ModelParams,
    TokenizedSequence,
    Vocabulary,
    encode,  # noqa: F401  perfbench/layers.py traces `evaluator.encode` and needs the name here
    encode_sequences,
    encode_spans,
    tokenize,
    utterance_token_ids,
)
from .errors import DataError
from .objective import cosine_sim
from .pretrain import ParaphrasePair, TfidfIndex
from .sequencer import PLACEHOLDER, inference_plan, partition_intents
from .trainer import TrainConfig, dev_split, train

# Filler words drawn into synthetic utterances; deliberately free of the
# label-surface tokens ("topic", bare letters, digits).
_FILLERS = (
    "please", "can", "you", "help", "me", "with", "the", "my", "need", "want",
    "to", "check", "set", "up", "for", "today", "now", "right", "away",
    "thanks", "would", "like", "know", "about",
)


@dataclass(frozen=True, eq=False)
class Prediction:
    """One utterance's read-only row of scores, indexed by intent id, with its
    top intent and its (intent_id, score) ranking by score descending, built
    on the first read; ties (`0.0` with `-0.0` too) go to the lower id. A
    batch's predictions are in the order of its utterances."""

    scores: np.ndarray

    @property
    def predicted(self) -> int:
        return int(self.scores.argmax())  # the first maximum: the lowest tied id

    @cached_property
    def ranking(self) -> tuple[tuple[int, float], ...]:
        order = np.argsort(-self.scores, kind="stable")
        return tuple(zip(order.tolist(), self.scores[order].tolist()))


@dataclass
class EvalReport:
    accuracies: list[float]  # percent, one per run
    mean: float
    std: float  # population std over runs
    per_intent: dict[int, float]
    seeds: list[int]
    predictions: list[list[Prediction]] = field(default_factory=list, repr=False)  # per run

    def to_record(self) -> dict:
        return {
            "accuracies": self.accuracies,
            "mean": self.mean,
            "std": self.std,
            "per_intent": {str(k): v for k, v in sorted(self.per_intent.items())},
            "seeds": self.seeds,
        }

    def to_text(self) -> str:
        lines = [f"{'seed':>8} {'accuracy':>9}"]
        for seed, acc in zip(self.seeds, self.accuracies):
            lines.append(f"{seed:>8} {acc:>8.2f}%")
        lines.append(f"{'mean':>8} {self.mean:>8.2f}%  (std {self.std:.2f})")
        return "\n".join(lines)


def predict(
    params: ModelParams,
    vocab: Vocabulary,
    text: str,
    labels: Sequence[IntentLabel],
    k: int,
) -> Prediction:
    """Score all intents by cosine similarity to the utterance (see `Prediction`).

    The utterance is scored against each of the m canonical-order groups and
    candidates compete globally across sequences; placeholder slots never
    enter the ranking. With attention, the utterance attends over its group,
    so it is encoded with each group, in one scoring pass (see `_rankings`).
    Without attention, a label's representation depends on neither the
    utterance nor the rest of its group, so the utterance is ranked by the
    `LabelIndex` of the last inventory scored, reused while the parameter
    values its label rows were computed from are unchanged (see `_indexed`).
    """
    return Prediction(_rankings(params, vocab, [text], labels, k, _indexed)[0])


def top1_accuracy(preds: Sequence[Prediction], data: Dataset) -> float:
    """Percentage of `data`'s examples whose top-ranked intent is the gold one."""
    if not data.examples:
        raise DataError(f"dataset {data.name!r} has no examples to score")
    correct = sum(1 for p, ex in zip(preds, data.examples) if p.predicted == ex.intent_id)
    return 100.0 * correct / len(data.examples)


def dataset_accuracy(params: ModelParams, vocab: Vocabulary, data: Dataset, k: int) -> float:
    """Top-1 accuracy in percent over a dataset."""
    return top1_accuracy(predict_dataset(params, vocab, data, k), data)


def predict_dataset(params: ModelParams, vocab: Vocabulary, data: Dataset, k: int) -> list[Prediction]:
    """`predict` for every example; without attention the labels are
    encoded once for the whole dataset, with attention the sequences are
    scored in passes of many utterances (see `_rankings`)."""
    texts = [ex.text for ex in data.examples]
    return [Prediction(row) for row in _rankings(params, vocab, texts, data.labels, k)]


def _rankings(
    params: ModelParams,
    vocab: Vocabulary,
    texts: Sequence[str],
    labels: Sequence[IntentLabel],
    k: int,
    index: Callable[[ModelParams, Vocabulary, Sequence[IntentLabel]], LabelIndex] | None = None,
) -> np.ndarray:
    """The `predict` scores of `texts`: a read-only (texts, labels) matrix,
    one row per utterance, indexed by intent id, and nothing sorted.

    Every input check runs before any numeric work: k and the inventory,
    every utterance's tokens and the labels (as `tokenize` checks them), so
    bad input is a `DataError` whatever values the parameters hold.

    Without attention the utterances are scored by the inventory's
    `LabelIndex`, from `index(params, vocab, labels)` (default
    `encode_inventory`). With attention a label's row depends on the
    utterance, so each (utterance, group) pair is its own sequence. Each
    group is laid out once, by `tokenize` with the first utterance; every
    utterance's sequence is its token ids followed by that group's tail.
    The sequences are scored in passes of whole utterances, up to
    `PASS_POSITIONS` token positions each: one `encode_sequences` call per
    pass, then one `cosine_sim` per sequence over its real slots.
    """
    groups = partition_intents(labels, k)
    if not texts:
        return np.empty((0, len(labels)))
    utterances = [utterance_token_ids(text, vocab) for text in texts]
    if not params.has_attention:
        scores = (index or encode_inventory)(params, vocab, labels).rank(params, utterances)
        scores.flags.writeable = False
        return scores
    tails = []  # each group's sequence after the utterance: token ids, slot spans, slots
    for group in groups:
        seq = tokenize(inference_plan(texts[0], group), labels, vocab)
        n = seq.utterance_span[1]
        tails.append((seq.token_ids[n:], [(s - n, e - n) for s, e in seq.slot_spans], group.slots))
    reals = [[pos for pos, intent in enumerate(group.slots) if intent != PLACEHOLDER] for group in groups]
    tail_positions = sum(len(ids) for ids, _, _ in tails)

    scores = np.empty((len(texts), len(labels)))
    for batch in _passes([len(groups) * len(ids) + tail_positions for ids in utterances]):
        seqs = []
        for i in batch:
            ids, n = tuple(utterances[i]), len(utterances[i])
            for tail, spans, slots in tails:
                slot_spans = tuple((s + n, e + n) for s, e in spans)
                seqs.append(TokenizedSequence(ids + tail, (0, n), slot_spans, slots, None))
        rows = iter(encode_sequences(params, seqs).reshape(len(seqs), -1, params.d_out))
        for i in batch:
            scores[i] = np.concatenate([cosine_sim(h[0], h[1:][real]) for real, h in zip(reals, rows)])
    scores.flags.writeable = False
    return scores


# Token positions per attention scoring pass: a pass holds whole utterances,
# each with all its sequences; an utterance longer than this gets a pass of its own.
# At 128 positions an utterance, passes of 256 to 2,048 positions scored at one
# speed and one-utterance passes about 10% slower; larger passes only hold more memory.
PASS_POSITIONS = 512


def _passes(costs: Sequence[int]) -> list[list[int]]:
    """The indices of `costs` in order, cut into passes whose costs sum to at
    most `PASS_POSITIONS`; an index that alone costs more is a pass of its own."""
    passes, size = [[]], 0
    for i, cost in enumerate(costs):
        if passes[-1] and size + cost > PASS_POSITIONS:
            passes.append([])
            size = 0
        passes[-1].append(i)
        size += cost
    return passes


@dataclass(frozen=True, eq=False)
class LabelIndex:
    """An inventory's label rows, encoded once for a model without attention,
    with copies of the inputs they were computed from. Never mutated, and it
    holds no reference to the parameters.

    Each label span is encoded on its own, which gives it the bits a
    sequence gives it, so `rank` equals the grouped path bit for bit.
    """

    labels: tuple[IntentLabel, ...]
    vocab: Vocabulary
    rows: np.ndarray  # (labels, d_out) projected label rows, inventory order
    tokens: np.ndarray  # the distinct label token ids (np.intp) the rows depend on
    embedding_rows: np.ndarray  # copy of the embedding rows of `tokens`
    dims: tuple[int, ...]  # the model's layer widths
    projector: np.ndarray  # copy of the projector's slice of the parameter vector

    def rank(self, params: ModelParams, utterances: Sequence[Sequence[int]]) -> np.ndarray:
        """The (utterances, labels) scores of utterances given as token ids
        (`utterance_token_ids`), each encoded with `params`."""
        return cosine_sim(encode_spans(params, utterances), self.rows)

    def serves(self, params: ModelParams, vocab: Vocabulary, labels: tuple[IntentLabel, ...]) -> bool:
        """Whether this index is what `encode_inventory(params, vocab, labels)` gives."""
        if not (self.labels is labels or self.labels == labels):
            return False
        if not (self.vocab is vocab or self.vocab == vocab):
            return False
        current = (params.embedding[self.tokens], params.projector)
        return params.dims == self.dims and all(map(_same_bits, current, (self.embedding_rows, self.projector)))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def encode_inventory(params: ModelParams, vocab: Vocabulary, labels: Sequence[IntentLabel]) -> LabelIndex:
    """The `LabelIndex` of `labels` under `params`, a model without attention.

    The labels are laid out as one all-label plan, so they are checked as
    the grouped path checks them: ids failing `check_label_ids`, or a label
    without tokens, are a `DataError`. The plan's stand-in utterance is dropped.
    """
    if params.has_attention:
        raise DataError("a label index needs a model without attention")
    seq = tokenize(inference_plan("labels", partition_intents(labels, len(labels))[0]), labels, vocab)
    spans = [seq.token_ids[s:e] for s, e in seq.slot_spans]
    tokens = np.unique(np.concatenate(spans)).astype(np.intp)
    copies = (params.embedding[tokens], params.dims, params.projector.copy())
    return LabelIndex(tuple(labels), vocab, encode_spans(params, spans), tokens, *copies)


_memo: LabelIndex | None = None  # the last inventory `predict` scored without attention


def _indexed(params: ModelParams, vocab: Vocabulary, labels: Sequence[IntentLabel]) -> LabelIndex:
    """`encode_inventory(params, vocab, labels)`, from the one-entry memo when
    its label rows were computed from the values `params` holds now.

    Nothing is keyed on the `ModelParams` object, which training mutates in
    place: every call compares the layer widths, and the label tokens'
    embedding rows and the projector bit for bit, against the index's copies.
    A published index holds no NaN (its rows would not have been finite), so
    parameters a NaN entered are encoded again and raise as they would
    uncached. The entry is read once and replaced whole, so concurrent
    callers may rebuild it in turn but never mix two models.
    """
    global _memo
    labels = tuple(labels)
    index = _memo
    if index is None or not index.serves(params, vocab, labels):
        index = _memo = encode_inventory(params, vocab, labels)
    return index


def _per_intent_accuracy(all_preds, all_gold) -> dict[int, float]:
    hits = Counter(gold for pred, gold in zip(all_preds, all_gold) if pred.predicted == gold)
    return {iid: 100.0 * hits[iid] / n for iid, n in Counter(all_gold).items()}


def evaluate_runs(
    train_pool: Dataset,
    test_data: Dataset,
    cfg: TrainConfig,
    seeds: Sequence[int],
    shots: int,
    dev_fraction: float = 0.1,
    init: tuple[ModelParams, Vocabulary] | None = None,
) -> EvalReport:
    """Run the sample-train-test protocol once per seed and aggregate accuracy.

    Each run draws its own few-shot sample and holds out its `dev_split`, so a
    run whose cut is too small to select on trains on the whole sample and
    selects by training loss; a NaN `dev_fraction`, or one of 1 or more, is a
    `DataError`. With `epochs=0` each run scores `init` (or fresh parameters) as given.
    """
    if not seeds:
        raise DataError("need at least one seed")

    k = cfg.group_size(test_data.n_intents)
    accuracies = []
    run_preds: list[list[Prediction]] = []
    for seed in seeds:
        tr, dev = dev_split(sample_few_shot(train_pool, shots, seed), dev_fraction, seed)
        params, _, vocab = train(tr, dev, replace(cfg, k=k, seed=seed), init=init)
        preds = predict_dataset(params, vocab, test_data, k)
        accuracies.append(top1_accuracy(preds, test_data))
        run_preds.append(preds)

    all_gold = [ex.intent_id for ex in test_data.examples] * len(seeds)
    return EvalReport(
        accuracies=accuracies,
        mean=float(np.mean(accuracies)),
        std=float(np.std(accuracies)),
        per_intent=_per_intent_accuracy([p for preds in run_preds for p in preds], all_gold),
        seeds=list(seeds),
        predictions=run_preds,
    )


def topk_miss(
    predictions: Sequence[Prediction],
    gold: Sequence[int],
    k_top: int,
    filter_rankings: Sequence[Sequence[int]],
) -> tuple[int, int]:
    """Count utterances whose gold falls outside a filter's top-k, and how many
    of those this model's top-1 prediction still gets right."""
    if k_top < 1:
        raise DataError(f"k_top must be >= 1, got {k_top}")
    if not (len(predictions) == len(gold) == len(filter_rankings)):
        raise DataError("predictions, gold, and filter rankings must align")
    misses = 0
    recovered = 0
    for pred, g, ranking in zip(predictions, gold, filter_rankings):
        if g in list(ranking)[:k_top]:
            continue
        misses += 1
        if pred.predicted == g:
            recovered += 1
    return misses, recovered


def label_filter_rankings(texts: Sequence[str], labels: Sequence[IntentLabel]) -> list[list[int]]:
    """Term-frequency filter baseline: rank intents by tf-idf cosine of their
    surfaces against each utterance."""
    index = TfidfIndex([lab.surface for lab in labels])
    return [[i for i, _ in index.rank(text, exclude_query=False)] for text in texts]


@dataclass(frozen=True)
class SweepRow:
    k: int
    m: int
    padding: int
    dev_accuracy: float


def sweep_k(
    train_data: Dataset,
    dev_data: Dataset,
    cfg: TrainConfig,
    k_values: Sequence[int],
) -> list[SweepRow]:
    """Train once per group size (shared seed) and score the dev split."""
    if not k_values:
        raise DataError("need at least one k value")
    if any(k < 1 for k in k_values):
        raise DataError("all k values must be >= 1")
    n = train_data.n_intents
    rows = []
    for k in k_values:
        run_cfg = replace(cfg, k=k)
        params, _, vocab = train(train_data, dev_data, run_cfg)
        m = math.ceil(n / k)
        rows.append(SweepRow(k, m, m * k - n, dataset_accuracy(params, vocab, dev_data, k)))
    return rows


def sweep_table(rows: Sequence[SweepRow]) -> str:
    lines = [f"{'k':>5} {'m':>5} {'padding':>8} {'dev_acc':>8}"]
    for r in rows:
        lines.append(f"{r.k:>5} {r.m:>5} {r.padding:>8} {r.dev_accuracy:>7.2f}%")
    return "\n".join(lines)


# --- synthetic tasks ----------------------------------------------------------


def check_synthetic_counts(
    n_intents: int, shots: int, noise_tokens: int, test_per_intent: int
) -> None:
    """Raise `DataError` naming the first count the synthetic generators cannot use."""
    if n_intents < 2:
        raise DataError(f"need at least 2 intents, got {n_intents}")
    if shots < 1:
        raise DataError(f"shots must be >= 1, got {shots}")
    if noise_tokens < 0:
        raise DataError(f"noise_tokens must be >= 0, got {noise_tokens}")
    if test_per_intent < 1:
        raise DataError(f"test_per_intent must be >= 1, got {test_per_intent}")


def _noisy_utterance(
    rng: np.random.Generator, words: list[str], intent_id: int, noise_tokens: int, domain: str
) -> LabeledUtterance:
    """`words` plus `noise_tokens` random filler words, in a random order."""
    words = words + [_FILLERS[int(j)] for j in rng.integers(0, len(_FILLERS), size=noise_tokens)]
    order = rng.permutation(len(words))
    return LabeledUtterance(" ".join(words[j] for j in order), intent_id, domain=domain)


def generate_synthetic(
    n_intents: int,
    shots: int,
    noise_tokens: int,
    seed: int,
    test_per_intent: int = 20,
) -> tuple[Dataset, Dataset]:
    """Separable toy task: intent i has surface "topic i-a i-b" and utterances
    repeat the surface tokens plus random filler words."""
    check_synthetic_counts(n_intents, shots, noise_tokens, test_per_intent)
    rng = np.random.default_rng(seed)
    labels = tuple(
        IntentLabel(i, f"topic {i}-a {i}-b", f"topic {i}-a {i}-b") for i in range(n_intents)
    )

    def utterances(per_intent: int) -> tuple[LabeledUtterance, ...]:
        return tuple(
            _noisy_utterance(rng, ["topic", f"{i}-a", f"{i}-b"], i, noise_tokens, "synthetic")
            for i in range(n_intents) for _ in range(per_intent)
        )

    train_ex = utterances(shots)
    test_ex = utterances(test_per_intent)
    return (
        Dataset(labels, train_ex, name=f"synth{n_intents}-train"),
        Dataset(labels, test_ex, name=f"synth{n_intents}-test"),
    )


def generate_paraphrase_corpus(
    n_pairs: int,
    n_concepts: int,
    seed: int,
    concepts_per_sentence: int = 3,
) -> list[ParaphrasePair]:
    """Synthetic paraphrase pairs over a two-form synonym lexicon.

    Concept c surfaces as "alpha{c}" on one side and "beta{c}" on the other, so
    a pair's two sides share meaning but zero tokens. An initial deterministic
    block covers every concept; the rest are random distinct concept tuples,
    drawn sorted. Asking for fewer than one pair, or for more than the block
    plus the sorted tuples not already in it, is a `DataError`.
    """
    if n_pairs < 1:
        raise DataError(f"need at least one paraphrase pair, got n_pairs={n_pairs}")
    if concepts_per_sentence < 1:
        raise DataError(f"concepts_per_sentence must be >= 1, got {concepts_per_sentence}")
    if n_concepts < concepts_per_sentence:
        raise DataError("need at least concepts_per_sentence concepts")
    block = [
        tuple((start + j) % n_concepts for j in range(concepts_per_sentence))
        for start in range(0, n_concepts, concepts_per_sentence)
    ]  # distinct: their first concepts differ
    capacity = len(block) + math.comb(n_concepts, concepts_per_sentence)
    capacity -= sum(chunk == tuple(sorted(chunk)) for chunk in block)
    if n_pairs > capacity:
        raise DataError(f"these concepts make at most {capacity} distinct pairs, asked for {n_pairs}")
    rng = np.random.default_rng(seed)
    tuples = block[:n_pairs]
    seen = set(tuples)
    while len(tuples) < n_pairs:
        chunk = tuple(sorted(int(c) for c in rng.choice(n_concepts, size=concepts_per_sentence, replace=False)))
        if chunk in seen:
            continue
        seen.add(chunk)
        tuples.append(chunk)
    return [
        ParaphrasePair(
            " ".join(f"alpha{c}" for c in chunk),
            " ".join(f"beta{c}" for c in chunk),
        )
        for chunk in tuples
    ]


def generate_transfer_task(
    n_intents: int,
    seed: int,
    noise_tokens: int = 2,
    test_per_intent: int = 20,
) -> Dataset:
    """Zero-shot probe paired with `generate_paraphrase_corpus`.

    Intent i's surface uses the beta forms of concepts (2i, 2i+1) while its
    utterances use the alpha forms, so labels and utterances share no tokens:
    only a model that has aligned the two forms can beat chance.
    """
    check_synthetic_counts(n_intents, 1, noise_tokens, test_per_intent)
    rng = np.random.default_rng(seed)
    labels = tuple(
        IntentLabel(i, f"beta{2 * i} beta{2 * i + 1}", f"beta{2 * i} beta{2 * i + 1}")
        for i in range(n_intents)
    )
    examples = tuple(
        _noisy_utterance(rng, [f"alpha{2 * i}", f"alpha{2 * i + 1}"], i, noise_tokens, "transfer")
        for i in range(n_intents) for _ in range(test_per_intent)
    )
    return Dataset(labels, examples, name=f"transfer{n_intents}")
