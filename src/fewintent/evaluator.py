"""Prediction over the full intent space, multi-seed accuracy reporting,
pipeline-filter diagnostics, group-size sweeps, and synthetic task generators
used by the experiment scripts and the acceptance suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpus import Dataset, IntentLabel, LabeledUtterance, sample_few_shot, split_dev
from .encoder import ModelParams, Vocabulary, encode, encode_spans, tokenize, utterance_token_ids
from .errors import DataError
from .objective import cosine_sim
from .pretrain import ParaphrasePair, TfidfIndex
from .sequencer import PLACEHOLDER, inference_plan, partition_intents
from .trainer import MIN_DEV_FOR_SELECTION, TrainConfig, train

# Filler words drawn into synthetic utterances; deliberately free of the
# label-surface tokens ("topic", bare letters, digits).
_FILLERS = (
    "please", "can", "you", "help", "me", "with", "the", "my", "need", "want",
    "to", "check", "set", "up", "for", "today", "now", "right", "away",
    "thanks", "would", "like", "know", "about",
)


@dataclass(frozen=True)
class Prediction:
    """Full ranking of the intent inventory for one utterance."""

    utterance_id: int
    ranking: tuple[tuple[int, float], ...]  # (intent_id, score), scores non-increasing

    @property
    def predicted(self) -> int:
        return self.ranking[0][0]

    def rank_of(self, intent_id: int) -> int:
        for r, (iid, _) in enumerate(self.ranking):
            if iid == intent_id:
                return r
        raise DataError(f"intent {intent_id} missing from ranking")


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
    utterance_id: int = -1,
) -> Prediction:
    """Rank all intents by cosine similarity to the utterance; ties break on
    the lower intent id.

    The utterance is scored against each of the m canonical-order groups and
    candidates compete globally across sequences; placeholder slots never
    enter the ranking. With attention, the utterance attends over its group,
    so it is encoded with each group. Without attention, a label's
    representation depends on neither the utterance nor the rest of its
    group, so each label span is encoded once on its own, and
    `predict_dataset` scores every utterance against the same label rows.
    """
    return Prediction(utterance_id, _rankings(params, vocab, [text], labels, k)[0])


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
    tokenized and encoded once for the whole dataset."""
    texts = [ex.text for ex in data.examples]
    return [Prediction(i, r) for i, r in enumerate(_rankings(params, vocab, texts, data.labels, k))]


def _rankings(
    params: ModelParams,
    vocab: Vocabulary,
    texts: Sequence[str],
    labels: Sequence[IntentLabel],
    k: int,
) -> list[tuple[tuple[int, float], ...]]:
    """The `predict` ranking of each of `texts`."""
    groups = partition_intents(labels, k)  # checks k and the inventory on both paths
    if not texts:
        return []
    if params.has_attention:
        scores = np.array([_grouped_scores(params, vocab, text, labels, groups) for text in texts])
    else:
        scores = _label_once_scores(params, vocab, texts, labels)
    ids = np.array([lab.id for lab in labels])
    rankings = []
    for row in scores:  # by score descending, then intent id ascending
        order = np.lexsort((ids, -row))
        rankings.append(tuple(zip(ids[order].tolist(), row[order].tolist())))
    return rankings


def _grouped_scores(params, vocab, text, labels, groups) -> np.ndarray:
    """One utterance's scores in inventory order, one `cosine_sim` per group."""
    scores = []
    for group in groups:
        emb = encode(params, tokenize(inference_plan(text, group), labels, vocab))
        real = [pos for pos, intent in enumerate(emb.slot_intents) if intent != PLACEHOLDER]
        scores.append(cosine_sim(emb.h_u, emb.h_slots[real]))
    return np.concatenate(scores)


def _label_once_scores(params, vocab, texts, labels) -> np.ndarray:
    """Each utterance's row of scores in inventory order, for a model without
    attention: every label span and every utterance is encoded once on its
    own, which gives each the bits a sequence gives it. The labels are laid
    out as one all-label plan, so `tokenize` checks them as the grouped path
    does."""
    seq = tokenize(inference_plan(texts[0], partition_intents(labels, len(labels))[0]), labels, vocab)
    label_spans = [list(seq.token_ids[s:e]) for s, e in seq.slot_spans]
    utterance_spans = [utterance_token_ids(text, vocab) for text in texts]
    return cosine_sim(encode_spans(params, utterance_spans), encode_spans(params, label_spans))


def _per_intent_accuracy(all_preds, all_gold) -> dict[int, float]:
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    for pred, gold in zip(all_preds, all_gold):
        totals[gold] = totals.get(gold, 0) + 1
        if pred.predicted == gold:
            hits[gold] = hits.get(gold, 0) + 1
    return {iid: 100.0 * hits.get(iid, 0) / n for iid, n in totals.items()}


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

    Each run draws its own few-shot sample. When the dev cut would hold fewer
    than MIN_DEV_FOR_SELECTION examples the run trains on the full sample and
    selects by training loss instead. With `epochs=0` each run scores `init`
    (or fresh parameters) as given.
    """
    if not seeds:
        raise DataError("need at least one seed")

    k = cfg.group_size(test_data.n_intents)
    accuracies = []
    run_preds: list[list[Prediction]] = []
    for seed in seeds:
        sample = sample_few_shot(train_pool, shots, seed)
        n_dev = int(dev_fraction * len(sample.examples) + 1e-9)
        if n_dev >= MIN_DEV_FOR_SELECTION:
            tr, dev = split_dev(sample, dev_fraction, seed)
        else:
            tr, dev = sample, None
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
    drawn sorted. Asking for more pairs than the block plus the sorted tuples
    not already in it is a `DataError`.
    """
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
    tuples = block[: max(n_pairs, 0)]
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
