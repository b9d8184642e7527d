"""The tf-idf index and the mining walk that the postings-with-weights index
replaced, kept as the reference it is tested against: every sentence keeps
its own dict vector, the query is weighted by a second copy of the weighting
code, and mining walks the full ranking itself."""

import math

import numpy as np

from fewintent.corpus import IntentLabel, LabeledUtterance
from fewintent.encoder import word_tokens
from fewintent.errors import DataError
from fewintent.pretrain import ParaphraseTask, PretrainInstance, _sentence_surface, pair_sentences
from fewintent.sequencer import build_plans, partition_intents


class DictTfidfIndex:
    def __init__(self, sentences):
        if len(sentences) < 2:
            raise DataError("similarity index needs at least 2 sentences")
        self.sentences = list(sentences)
        n_docs = len(self.sentences)
        doc_terms = [word_tokens(s) for s in self.sentences]
        df = {}
        for terms in doc_terms:
            for term in set(terms):
                df[term] = df.get(term, 0) + 1
        self._idf = {t: math.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}
        self._vectors = []
        self._postings = {}
        for i, terms in enumerate(doc_terms):
            vec = {}
            for term in terms:
                vec[term] = vec.get(term, 0.0) + self._idf[term]
            norm = math.sqrt(sum(w * w for w in vec.values()))
            if norm > 0:
                vec = {t: w / norm for t, w in vec.items()}
            self._vectors.append(vec)
            for term in vec:
                self._postings.setdefault(term, []).append(i)

    def _query_vector(self, query):
        vec = {}
        for term in word_tokens(query):
            if term in self._idf:
                vec[term] = vec.get(term, 0.0) + self._idf[term]
        norm = math.sqrt(sum(w * w for w in vec.values()))
        return {t: w / norm for t, w in vec.items()} if norm > 0 else {}

    def rank(self, query, exclude_query=True):
        qvec = self._query_vector(query)
        scores = [0.0] * len(self.sentences)
        for term, w in qvec.items():
            for i in self._postings.get(term, ()):
                scores[i] += w * self._vectors[i].get(term, 0.0)
        order = sorted(range(len(self.sentences)), key=lambda i: (-scores[i], i))
        if exclude_query:
            order = [i for i in order if self.sentences[i] != query]
        return [(i, scores[i]) for i in order]


def mine_negatives(index, anchor, gold, t):
    """The t best-ranked sentences other than the anchor and the gold."""
    negatives = []
    for i, _ in index.rank(anchor, exclude_query=True):
        s = index.sentences[i]
        if s == gold:
            continue
        negatives.append(s)
        if len(negatives) == t:
            break
    if len(negatives) < t:
        raise DataError(f"could not mine {t} negatives for {anchor!r}")
    return negatives


def paraphrase_tasks(pairs, n_target, k, seed=0):
    """`build_paraphrase_instances` over `DictTfidfIndex` and `mine_negatives`."""
    t = n_target - 1
    index = DictTfidfIndex(pair_sentences(pairs))
    rng = np.random.default_rng(seed)
    tasks = []
    for pair in pairs:
        for anchor, gold in ((pair.anchor, pair.paraphrase), (pair.paraphrase, pair.anchor)):
            negatives = mine_negatives(index, anchor, gold, t)
            gold_pos = int(rng.integers(0, n_target))
            candidates = list(negatives)
            candidates.insert(gold_pos, gold)
            labels = tuple(
                IntentLabel(i, s, _sentence_surface(s)) for i, s in enumerate(candidates)
            )
            utt = LabeledUtterance(anchor, gold_pos)
            plans = tuple(build_plans(utt, partition_intents(labels, k)))
            instance = PretrainInstance(anchor, gold, tuple(negatives))
            tasks.append(ParaphraseTask(labels, plans, instance))
    return tasks
