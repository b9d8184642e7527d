"""Pretraining-set construction.

Paraphrase pairs become candidate-ranking tasks: each anchor's gold "label" is
its paraphrase and the other t = n - 1 candidates are the most term-similar
sentences mined from the corpus. Each task is a `TrainItem` for
`trainer.fit_items`. Out-of-domain pretraining needs nothing from here: it is
`trainer.train` on the pooled intent union of `corpus.build_ood`.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import IntentLabel, LabeledUtterance, checked_decode, write_jsonl
from .encoder import word_tokens
from .errors import DataError
from .sequencer import PLACEHOLDER, SequencePlan, build_plans, partition_intents
from .trainer import TrainItem

_SURFACE_JUNK = re.compile(r"[_\s]+")


@dataclass(frozen=True)
class ParaphrasePair:
    anchor: str
    paraphrase: str

    def __post_init__(self):
        if not self.anchor.strip() or not self.paraphrase.strip():
            raise DataError("paraphrase pair with an empty side")
        if self.anchor == self.paraphrase:
            raise DataError(f"degenerate paraphrase pair: {self.anchor!r}")


@dataclass(frozen=True)
class PretrainInstance:
    """Anchor sentence with one gold paraphrase and t mined negatives."""

    anchor: str
    gold: str
    negatives: tuple[str, ...]

    @property
    def t(self) -> int:
        return len(self.negatives)

    def __post_init__(self):
        seen = {self.anchor, self.gold, *self.negatives}
        if len(seen) != 2 + len(self.negatives):
            raise DataError("pretrain instance candidates are not distinct")


@dataclass(frozen=True)
class ParaphraseTask(TrainItem):
    """One instance rendered as a training item: a per-anchor label inventory
    plus its plans."""

    instance: PretrainInstance


def filter_pairs(
    pairs: Sequence[ParaphrasePair], max_words: int = 10, max_chars: int = 40
) -> list[ParaphrasePair]:
    """Keep pairs whose both sides fit the word and character caps (inclusive)."""
    if max_words < 1 or max_chars < 1:
        raise DataError("length caps must be positive")

    def ok(s: str) -> bool:
        return len(s.split()) <= max_words and len(s) <= max_chars

    return [p for p in pairs if ok(p.anchor) and ok(p.paraphrase)]


class TfidfIndex:
    """Deterministic tf-idf cosine ranker over a sentence corpus.

    Smoothed idf (ln((1+N)/(1+df)) + 1) keeps ubiquitous terms from vanishing;
    ties break by corpus order. Each term's postings are two arrays, sentence
    ids and their unit tf-idf weights for the term, so a query is scored by
    one array update per query term.
    """

    def __init__(self, sentences: Sequence[str]):
        if len(sentences) < 2:
            raise DataError("similarity index needs at least 2 sentences")
        self.sentences = list(sentences)
        self._copies = Counter(self.sentences)
        n_docs = len(self.sentences)
        doc_terms = [word_tokens(s) for s in self.sentences]
        df: dict[str, int] = {}
        for terms in doc_terms:
            for term in set(terms):
                df[term] = df.get(term, 0) + 1
        self._idf = {t: math.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}
        postings: dict[str, list[tuple[int, float]]] = {}
        for i, terms in enumerate(doc_terms):
            for term, w in self._unit_weights(terms).items():
                postings.setdefault(term, []).append((i, w))
        self._postings = {  # term -> (sentence ids, unit weights)
            term: (np.array([i for i, _ in p], dtype=np.intp), np.array([w for _, w in p]))
            for term, p in postings.items()
        }

    def _unit_weights(self, terms: Sequence[str]) -> dict[str, float]:
        """The unit-norm tf-idf vector of a term list; unknown terms drop out."""
        vec: dict[str, float] = {}
        for term in terms:
            if term in self._idf:
                vec[term] = vec.get(term, 0.0) + self._idf[term]
        norm = math.sqrt(sum(w * w for w in vec.values()))
        return {t: w / norm for t, w in vec.items()} if norm > 0 else {}

    def _scores(self, query: str) -> np.ndarray:
        """Cosine similarity of every sentence to the query. Each posting adds
        one product in query-term order, as a per-sentence loop would, so the
        bits match it; an id occurs once per term, so `+=` drops no product."""
        scores = np.zeros(len(self.sentences))
        for term, w in self._unit_weights(word_tokens(query)).items():
            if term in self._postings:
                ids, weights = self._postings[term]
                scores[ids] += w * weights
        return scores

    def rank(
        self, query: str, exclude_query: bool = True, top: int | None = None
    ) -> list[tuple[int, float]]:
        """(index, score) of corpus sentences ranked by cosine similarity to
        the query, ties by index. With `top`, only the first `top` entries:
        a partial selection finds the cut score, counting the query's own
        copies, and only the sentences at or above it are sorted."""
        if top is not None and top < 0:
            raise DataError(f"asked for {top} neighbors; the count must be non-negative")
        scores = self._scores(query)
        neg = -scores
        cand = np.arange(len(scores))
        if top is not None:
            need = top + (self._copies[query] if exclude_query else 0)
            if 0 < need < len(scores):
                cut = np.partition(neg, need - 1)[need - 1]
                cand = np.flatnonzero(neg <= cut)
        order = cand[np.lexsort((cand, neg[cand]))].tolist()
        if exclude_query:
            order = [i for i in order if self.sentences[i] != query]
        order = order[:top]
        return list(zip(order, scores[order].tolist()))

    def top_t(self, query: str, t: int) -> list[str]:
        """The t most similar sentences, excluding the query itself."""
        ranked = self.rank(query, top=t)
        if len(ranked) < t:
            raise DataError(f"asked for {t} neighbors, only {len(ranked)} candidates")
        return [self.sentences[i] for i, _ in ranked]


def build_similarity_index(sentences: Sequence[str]) -> TfidfIndex:
    return TfidfIndex(sentences)


def pair_sentences(pairs: Sequence[ParaphrasePair]) -> list[str]:
    """The distinct sentences of `pairs` in first-appearance order."""
    return list(dict.fromkeys(s for p in pairs for s in (p.anchor, p.paraphrase)))


def _sentence_surface(sentence: str) -> str:
    surface = _SURFACE_JUNK.sub(" ", sentence.lower()).strip()
    if not surface:
        raise DataError(f"sentence {sentence!r} has no usable surface")
    return surface


def build_paraphrase_instances(
    pairs: Sequence[ParaphrasePair],
    n_target: int,
    k: int,
    seed: int = 0,
    index_factory: Callable[[Sequence[str]], TfidfIndex] = build_similarity_index,
) -> list[ParaphraseTask]:
    """Mine negatives and build per-anchor candidate slates.

    Each pair yields two anchors (both directions). An anchor's candidate
    inventory holds its gold paraphrase plus the t = n_target - 1 most similar
    other sentences, with the gold position randomized by `seed`, then grouped
    exactly like a fine-tuning task with group size k.
    """
    if n_target < 2:
        raise DataError(f"need at least 2 candidates, got {n_target}")
    if not pairs:
        raise DataError("no paraphrase pairs")
    t = n_target - 1

    sentences = pair_sentences(pairs)
    if len(sentences) <= n_target:  # the anchor, its gold and t negatives are n_target + 1
        raise DataError(
            f"corpus of {len(sentences)} sentences cannot supply {t} negatives per anchor"
        )
    index = index_factory(sentences)

    rng = np.random.default_rng(seed)
    surface = cache(_sentence_surface)  # each candidate's surface once per call
    tasks = []
    for pair in pairs:
        for anchor, gold in ((pair.anchor, pair.paraphrase), (pair.paraphrase, pair.anchor)):
            negatives = [s for s in index.top_t(anchor, t + 1) if s != gold][:t]
            instance = PretrainInstance(anchor, gold, tuple(negatives))

            gold_pos = int(rng.integers(0, n_target))
            candidates = list(negatives)
            candidates.insert(gold_pos, gold)
            labels = tuple(IntentLabel(i, s, surface(s)) for i, s in enumerate(candidates))
            groups = partition_intents(labels, k)
            utt = LabeledUtterance(anchor, gold_pos)
            plans = tuple(build_plans(utt, groups))
            tasks.append(ParaphraseTask(labels, plans, instance))
    return tasks


def pairs_from_tsv(path: str | Path) -> list[ParaphrasePair]:
    """Read `anchor<TAB>paraphrase` lines; reports the line number on errors."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"paraphrase file not found: {path}")
    pairs = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(checked_decode(path, fh), start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated columns")
            try:
                pairs.append(ParaphrasePair(parts[0].strip(), parts[1].strip()))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not pairs:
        raise DataError(f"{path}: no pairs")
    return pairs


def plan_record(plan: SequencePlan, labels: Sequence[IntentLabel]) -> dict:
    """JSON-serializable audit record for one plan."""
    return {
        "text": plan.utterance.text,
        "group": plan.group.index,
        "slots": [None if i == PLACEHOLDER else labels[i].surface for i in plan.group.slots],
        "gold_slot": plan.gold_slot,
    }


def write_plans_jsonl(items: Sequence[TrainItem], path: str | Path) -> int:
    """Dump every plan as one JSON line; returns the number of records."""
    return write_jsonl(path, (plan_record(plan, item.labels) for item in items for plan in item.plans))
