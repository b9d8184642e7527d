import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from fewintent.corpus import Dataset, IntentLabel, LabeledUtterance
from fewintent.errors import DataError
from fewintent.evaluator import generate_paraphrase_corpus
from fewintent.pretrain import (
    ParaphrasePair,
    build_paraphrase_instances,
    build_similarity_index,
    filter_pairs,
    pair_sentences,
    pairs_from_tsv,
    plan_record,
)
from fewintent.sequencer import PLACEHOLDER
from fewintent.trainer import dataset_items

import dict_tfidf

# A small vocabulary, so corpora repeat terms within a sentence and tie
# scores across sentences; "Pay" and "card." reach the same terms.
WORDS = ("pay", "card", "bill", "my", "the", "now", "Pay", "card.")
sentence_st = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join)


def boundary_fixture():
    """Six pairs: three legal (two at the exact caps), three violating."""
    return [
        ParaphrasePair("pay my card", "settle my card"),
        ParaphrasePair("a b c d e f g h i j k", "fine here"),  # 11 words
        ParaphrasePair("x" * 41, "fine too"),  # 41 chars
        ParaphrasePair("a b c d e f g h i j", "y" * 40),  # exactly at both caps
        ParaphrasePair("ok side", "b c d e f g h i j k l"),  # 11 words, other side
        ParaphrasePair("short one", "short two"),
    ]


class TestFilterPairs:
    def test_boundary_fixture(self):
        pairs = boundary_fixture()
        kept = filter_pairs(pairs, max_words=10, max_chars=40)
        assert kept == [pairs[0], pairs[3], pairs[5]]

    def test_word_cap(self):
        pair = ParaphrasePair(" ".join(["w"] * 11), "ok")
        assert filter_pairs([pair]) == []

    def test_char_cap(self):
        pair = ParaphrasePair("z" * 41, "ok")
        assert filter_pairs([pair]) == []

    def test_idempotent_subset(self):
        pairs = boundary_fixture()
        once = filter_pairs(pairs)
        assert filter_pairs(once) == once
        assert all(p in pairs for p in once)


class TestParaphrasePairValidation:
    def test_empty_side(self):
        with pytest.raises(DataError):
            ParaphrasePair("", "hello")

    def test_identical_sides(self):
        with pytest.raises(DataError):
            ParaphrasePair("same", "same")


class TestTfidfIndex:
    CORPUS = ["pay card", "pay my card", "weather today"]

    def test_nearest_neighbor(self):
        index = build_similarity_index(self.CORPUS)
        assert index.top_t("pay card", 1) == ["pay my card"]

    def test_exhaustive_return_ranked(self):
        index = build_similarity_index(self.CORPUS)
        out = index.top_t("pay card", 2)
        assert out == ["pay my card", "weather today"]
        ranked = index.rank("pay card")
        sims = [s for _, s in ranked]
        assert sims == sorted(sims, reverse=True)

    def test_self_excluded(self):
        index = build_similarity_index(self.CORPUS)
        assert "pay card" not in index.top_t("pay card", 2)

    def test_t_too_large(self):
        index = build_similarity_index(self.CORPUS)
        with pytest.raises(DataError):
            index.top_t("pay card", 3)

    def test_negative_t(self):
        index = build_similarity_index(["a b", "b c", "c d", "d e"])
        with pytest.raises(DataError, match="-1 neighbors"):
            index.top_t("a b", -1)
        with pytest.raises(DataError, match="-1 neighbors"):
            index.rank("a b", top=-1)

    def test_zero_t(self):
        assert build_similarity_index(self.CORPUS).top_t("pay card", 0) == []

    def test_swap_changes_only_tie_order(self):
        # Two documents equidistant from the query swap ranks with their
        # corpus positions; everything else is unchanged.
        a = build_similarity_index(["pay card", "pay cash", "pay coin", "other stuff"])
        b = build_similarity_index(["pay card", "pay coin", "pay cash", "other stuff"])
        ra = [s for _, s in a.rank("pay card")]
        rb = [s for _, s in b.rank("pay card")]
        assert ra == rb
        assert a.top_t("pay card", 2) == ["pay cash", "pay coin"]
        assert b.top_t("pay card", 2) == ["pay coin", "pay cash"]

    def test_too_small_corpus(self):
        with pytest.raises(DataError):
            build_similarity_index(["only one"])


def _bits(ranked):
    return [(i, score.hex()) for i, score in ranked]


class TestAgainstDictVectorIndex:
    """The postings-with-weights index ranks as the dict-vector index did,
    ids and score bits both, and mining through it builds the same tasks."""

    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(sentence_st, min_size=2, max_size=8),
        query=st.one_of(sentence_st, st.just("zzz unseen"), st.just("")),
        from_corpus=st.integers(0, 7),
        exclude_query=st.booleans(),
    )
    def test_rank_bit_identical(self, corpus, query, from_corpus, exclude_query):
        if from_corpus < len(corpus):
            query = corpus[from_corpus]
        new = build_similarity_index(corpus).rank(query, exclude_query=exclude_query)
        ref = dict_tfidf.DictTfidfIndex(corpus).rank(query, exclude_query=exclude_query)
        assert _bits(new) == _bits(ref)

    @settings(max_examples=100, deadline=None)
    @given(
        sides=st.lists(st.tuples(sentence_st, sentence_st), min_size=2, max_size=6),
        n_target=st.integers(2, 11),
        k=st.integers(1, 11),
        seed=st.integers(0, 2**16),
    )
    def test_mining_builds_the_same_tasks(self, sides, n_target, k, seed):
        pairs = [ParaphrasePair(a, b) for a, b in sides if a != b]
        n_target = min(n_target, len(pair_sentences(pairs)) - 1)
        if n_target < 2:
            return
        got = build_paraphrase_instances(pairs, n_target, k, seed=seed)
        assert got == dict_tfidf.paraphrase_tasks(pairs, n_target, k, seed=seed)

    def test_mining_at_scale(self):
        pairs = generate_paraphrase_corpus(60, 30, seed=4)
        got = build_paraphrase_instances(pairs, n_target=20, k=7, seed=1)
        assert got == dict_tfidf.paraphrase_tasks(pairs, n_target=20, k=7, seed=1)


def small_vocab_corpus(draw, n_words):
    """30-200 sentences over `n_words` words: scores tie in large blocks."""
    words = st.sampled_from(("pay", "card", "bill", "my", "now")[:n_words])
    sentence = st.lists(words, min_size=1, max_size=4).map(" ".join)
    return draw(st.lists(sentence, min_size=30, max_size=200))


class TestPartialSelection:
    """`rank(q, top=t)` and `top_t(q, t)` are the first t entries of the
    dict-vector index's full ranking, ids and score bits, on corpora large
    enough that the selected cut leaves most of the corpus out and falls
    inside blocks of tied scores."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_words=st.integers(3, 5), exclude_query=st.booleans())
    def test_top_matches_full_ranking(self, data, n_words, exclude_query):
        corpus = small_vocab_corpus(data.draw, n_words)
        query = data.draw(st.one_of(st.sampled_from(corpus), st.just("zzz unseen")))
        for _ in range(data.draw(st.integers(0, 3))):  # more copies of the query
            corpus.insert(data.draw(st.integers(0, len(corpus))), query)
        ref = dict_tfidf.DictTfidfIndex(corpus).rank(query, exclude_query=exclude_query)
        assume(ref)  # a corpus of query copies only has no candidates
        t = data.draw(st.integers(1, len(ref)))
        index = build_similarity_index(corpus)
        assert _bits(index.rank(query, exclude_query=exclude_query, top=t)) == _bits(ref[:t])
        if exclude_query:
            assert index.top_t(query, t) == [corpus[i] for i, _ in ref[:t]]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n_words=st.integers(3, 5))
    def test_every_t(self, data, n_words):
        corpus = small_vocab_corpus(data.draw, n_words)
        query = data.draw(st.sampled_from(corpus))
        ref = dict_tfidf.DictTfidfIndex(corpus).rank(query)
        index = build_similarity_index(corpus)
        for t in range(1, len(ref) + 1):
            assert _bits(index.rank(query, top=t)) == _bits(ref[:t])

    def test_query_without_known_terms_ranks_by_index(self):
        corpus = [f"pay card {i % 3}" for i in range(40)]
        assert build_similarity_index(corpus).top_t("zzz unseen", 5) == corpus[:5]


class TestBuildParaphraseInstances:
    def test_counts_at_scale(self):
        # 40 pairs = 80 distinct sentences; n_target=77 mirrors a 77-intent
        # task at group size 26: 76 negatives, 3 plans per anchor.
        pairs = generate_paraphrase_corpus(40, 24, seed=0)
        tasks = build_paraphrase_instances(pairs, n_target=77, k=26, seed=0)
        assert len(tasks) == 80
        for task in tasks:
            assert task.instance.t == 76
            assert len(task.plans) == 3
            assert sum(p.has_gold for p in task.plans) == 1

    def test_two_pairs_three_candidates(self):
        pairs = [
            ParaphrasePair("pay the bill", "settle the bill"),
            ParaphrasePair("weather today", "forecast now"),
        ]
        tasks = build_paraphrase_instances(pairs, n_target=3, k=3, seed=1)
        assert len(tasks) == 4
        for task in tasks:
            assert task.instance.t == 2
            others = {task.instance.anchor, task.instance.gold}
            assert not others & set(task.instance.negatives)

    def test_gold_never_in_negatives(self):
        pairs = generate_paraphrase_corpus(30, 18, seed=5)
        tasks = build_paraphrase_instances(pairs, n_target=10, k=5, seed=2)
        for task in tasks:
            inst = task.instance
            assert inst.gold not in inst.negatives
            assert inst.anchor not in inst.negatives
            assert len(set(inst.negatives)) == inst.t

    def test_candidate_inventory_holds_gold_once(self):
        pairs = generate_paraphrase_corpus(10, 9, seed=3)
        tasks = build_paraphrase_instances(pairs, n_target=5, k=2, seed=4)
        for task in tasks:
            surfaces = [lab.raw_name for lab in task.labels]
            assert surfaces.count(task.instance.gold) == 1
            assert len(task.labels) == 5
            assert len(task.plans) == 3  # ceil(5/2)

    def test_insufficient_corpus(self):
        pairs = [ParaphrasePair("a b", "c d")]
        with pytest.raises(DataError):
            build_paraphrase_instances(pairs, n_target=5, k=5)

    def test_corpus_of_exactly_n_target_sentences(self):
        # Four sentences less the anchor and its gold leave two negatives, not three.
        pairs = [ParaphrasePair("pay the bill", "settle the bill"),
                 ParaphrasePair("weather today", "forecast now")]
        with pytest.raises(DataError, match="corpus of 4 sentences cannot supply 3 negatives"):
            build_paraphrase_instances(pairs, n_target=4, k=2)

    def test_deterministic(self):
        pairs = generate_paraphrase_corpus(12, 9, seed=3)
        a = build_paraphrase_instances(pairs, n_target=6, k=3, seed=9)
        b = build_paraphrase_instances(pairs, n_target=6, k=3, seed=9)
        assert [t.instance for t in a] == [t.instance for t in b]
        assert [t.plans[0].group.slots for t in a] == [t.plans[0].group.slots for t in b]


def union_dataset(n_intents, per_intent=1):
    labels = tuple(IntentLabel(i, f"u{i}", f"u{i}") for i in range(n_intents))
    examples = tuple(
        LabeledUtterance(f"say u{i} please {j}", i)
        for i in range(n_intents)
        for j in range(per_intent)
    )
    return Dataset(labels, examples, name="union")


class TestBuildOodPretrain:
    """Out-of-domain pretraining trains on the dataset items of the pooled union."""

    def test_group_arithmetic_at_183(self):
        items = dataset_items(union_dataset(183), k=26)
        groups = {p.group.index: p.group for p in items[0].plans}
        assert len(groups) == 8
        padding = sum(g.slots.count(PLACEHOLDER) for g in groups.values())
        assert padding == 26 * 8 - 183 == 25

    def test_exact_fit_single_group(self):
        items = dataset_items(union_dataset(7), k=7)
        assert all(len(item.plans) == 1 for item in items)
        assert not any(
            PLACEHOLDER in p.group.slots for item in items for p in item.plans
        )

    def test_one_gold_per_utterance(self):
        items = dataset_items(union_dataset(11, per_intent=2), k=4)
        m = math.ceil(11 / 4)
        for item in items:
            assert len(item.plans) == m
            assert sum(p.has_gold for p in item.plans) == 1


class TestPairsFromTsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("hello there\thi friend\nnice day\tlovely weather\n")
        pairs = pairs_from_tsv(p)
        assert pairs[1].paraphrase == "lovely weather"

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("good\tpair\nbad line without tab\n")
        with pytest.raises(DataError, match=":2"):
            pairs_from_tsv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            pairs_from_tsv(tmp_path / "nope.tsv")


def test_plan_record_shows_surfaces():
    pairs = [
        ParaphrasePair("pay the bill", "settle the bill"),
        ParaphrasePair("weather today", "forecast now"),
    ]
    task = build_paraphrase_instances(pairs, n_target=3, k=2, seed=0)[0]
    rec = plan_record(task.plans[-1], task.labels)
    assert rec["text"] == task.instance.anchor
    assert len(rec["slots"]) == 2
    assert rec["slots"].count(None) == 1  # ceil(3/2)*2 - 3 placeholders
