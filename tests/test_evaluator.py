import numpy as np
import pytest

from fewintent.corpus import Dataset, IntentLabel, LabeledUtterance
from fewintent.encoder import (
    ModelParams,
    build_vocab,
    encode,
    init_params,
    tokenize,
)
from fewintent.errors import DataError, NumericError
from fewintent.evaluator import (
    EvalReport,
    evaluate_runs,
    generate_paraphrase_corpus,
    generate_synthetic,
    generate_transfer_task,
    label_filter_rankings,
    predict,
    predict_dataset,
    sweep_k,
    topk_miss,
)
from fewintent.objective import cosine_sim
from fewintent.sequencer import PLACEHOLDER, inference_plan, partition_intents
from fewintent.trainer import TrainConfig

from conftest import make_dataset


def one_hot_model(n_labels=4):
    """Identity projector over one-hot embeddings: cosine similarity is exact
    token overlap, so an utterance equal to a label surface scores 1 on it."""
    labels = tuple(IntentLabel(i, f"lbl{i}", f"lbl{i}") for i in range(n_labels))
    data = Dataset(labels, tuple(LabeledUtterance(f"lbl{i}", i) for i in range(n_labels)))
    vocab = build_vocab([data])
    v = len(vocab)
    params = ModelParams(np.eye(v), [np.eye(v)], [np.zeros(v)])
    return params, vocab, labels


class TestPredict:
    def test_gold_first_with_score_one(self):
        params, vocab, labels = one_hot_model()
        pred = predict(params, vocab, "lbl2", labels, k=2)
        assert pred.predicted == 2
        assert pred.ranking[0][1] == pytest.approx(1.0)

    def test_single_intent(self):
        params, vocab, labels = one_hot_model(1)
        # single intent forces k=1 and a lone candidate
        pred = predict(params, vocab, "anything", labels, k=1)
        assert pred.predicted == 0

    def test_ranking_is_permutation(self):
        params, vocab, labels = one_hot_model(5)
        pred = predict(params, vocab, "lbl3", labels, k=2)
        assert sorted(i for i, _ in pred.ranking) == list(range(5))
        scores = [s for _, s in pred.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_ties_break_on_lower_intent_id(self):
        params, vocab, labels = one_hot_model(4)
        pred = predict(params, vocab, "completely unseen words", labels, k=2)
        assert [i for i, _ in pred.ranking] == [0, 1, 2, 3]

    def test_shuffle_invariant_at_inference(self):
        data = make_dataset(n_intents=6, per_intent=1)
        vocab = build_vocab([data])
        params = init_params(len(vocab), seed=1)
        base = predict(params, vocab, data.examples[2].text, data.labels, k=3)
        again = predict(params, vocab, data.examples[2].text, data.labels, k=3)
        assert base.ranking == again.ranking


def grouped_ranking(params, vocab, text, labels, k):
    """Reference ranking: one sequence per canonical group, one `cosine_sim`
    per real slot, sorted by (score descending, intent id)."""
    scored = []
    for group in partition_intents(labels, k):
        emb = encode(params, tokenize(inference_plan(text, group), labels, vocab))
        for pos, intent in enumerate(emb.slot_intents):
            if intent != PLACEHOLDER:
                scored.append((intent, cosine_sim(emb.h_u, emb.h_slots[pos])))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return tuple(scored)


def one_label_task():
    label = IntentLabel(0, "topic 0-a 0-b", "topic 0-a 0-b")
    texts = ("topic 0-a please", "help me now", "0-b")
    return Dataset((label,), tuple(LabeledUtterance(t, 0) for t in texts))


class TestAgainstGroupedReference:
    """Without attention the labels are encoded once and every utterance on
    its own; the rankings must equal the grouped reference bit for bit."""

    @pytest.mark.parametrize(
        "n, k, dims, depth",
        [
            (12, 4, (64, 64, 64), 2),  # n divisible by k
            (13, 4, (64, 64, 64), 2),  # last group padded with placeholders
            (13, 4, (16, 16, 16), 1),
            (12, 5, (16, 8, 16), 3),
            # Output widths at which a BLAS product may round a row by stack height.
            (13, 2, (16, 16, 17), 1),
            (13, 6, (64, 64, 3), 2),
            (1, 1, (64, 64, 64), 2),  # one-label inventory
            (1, 3, (16, 16, 16), 1),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rankings_bit_identical(self, n, k, dims, depth, seed):
        if n == 1:
            data = one_label_task()
        else:
            _, data = generate_synthetic(n, 1, 3, seed=seed, test_per_intent=2)
        vocab = build_vocab([data])
        params = init_params(len(vocab), *dims, depth=depth, seed=seed)
        batch = predict_dataset(params, vocab, data, k)
        assert [p.utterance_id for p in batch] == list(range(len(data.examples)))
        for i, ex in enumerate(data.examples):
            ref = grouped_ranking(params, vocab, ex.text, data.labels, k)
            assert batch[i].ranking == ref
            online = predict(params, vocab, ex.text, data.labels, k, utterance_id=i)
            assert online.ranking == ref and online.utterance_id == i

    def test_long_utterance_among_many(self):
        _, data = generate_synthetic(13, 1, 3, seed=2, test_per_intent=11)
        long = LabeledUtterance(" ".join([data.examples[0].text] * 2000), 0)
        data = Dataset(data.labels, (*data.examples[:70], long, *data.examples[70:]))
        vocab = build_vocab([data])
        params = init_params(len(vocab), 16, 16, 17, seed=2)
        batch = predict_dataset(params, vocab, data, 4)
        for pred, ex in zip(batch, data.examples):
            assert pred.ranking == grouped_ranking(params, vocab, ex.text, data.labels, 4)

    @pytest.mark.parametrize("n, k", [(12, 4), (13, 4)])
    def test_attention_group_scores_match_per_slot_loop(self, n, k):
        _, data = generate_synthetic(n, 1, 3, seed=5, test_per_intent=1)
        vocab = build_vocab([data])
        params = init_params(len(vocab), 16, 16, 16, seed=5, attention=True)
        batch = predict_dataset(params, vocab, data, k)
        for i, ex in enumerate(data.examples):
            ref = grouped_ranking(params, vocab, ex.text, data.labels, k)
            assert batch[i].ranking == ref
            assert predict(params, vocab, ex.text, data.labels, k).ranking == ref


def _error_cases():
    """(name, mutate) pairs; `mutate(params, labels)` returns the text, labels
    and parameters to predict with."""
    def empty_utterance(params, labels):
        return "?! ...", labels, params

    def empty_label(params, labels):
        bad = IntentLabel(1, "??", "??")
        return "topic please", (labels[0], bad, *labels[2:]), params

    def out_of_order(params, labels):
        return "topic please", tuple(reversed(labels)), params

    def non_finite(params, labels):
        params.proj_biases[-1][0] = np.nan
        return "topic please", labels, params

    def zero_norm(params, labels):
        params.proj_weights[-1][:] = 0.0
        params.proj_biases[-1][:] = 0.0
        return "topic please", labels, params

    return [
        pytest.param(empty_utterance, DataError, id="utterance-without-tokens"),
        pytest.param(empty_label, DataError, id="label-without-tokens"),
        pytest.param(out_of_order, DataError, id="labels-out-of-order"),
        pytest.param(non_finite, NumericError, id="non-finite-params"),
        pytest.param(zero_norm, NumericError, id="zero-norm"),
    ]


class TestErrorParity:
    """Both prediction paths raise what the grouped reference raises."""

    @pytest.mark.parametrize("mutate, error", _error_cases())
    @pytest.mark.parametrize("attention", [False, True])
    def test_same_error_as_reference(self, mutate, error, attention):
        pool, _ = generate_synthetic(5, 1, 1, seed=0, test_per_intent=1)
        vocab = build_vocab([pool])
        params = init_params(len(vocab), 8, 8, 8, seed=0, attention=attention)
        text, labels, params = mutate(params, pool.labels)
        with pytest.raises(error):
            grouped_ranking(params, vocab, text, labels, 2)
        with pytest.raises(error):
            predict(params, vocab, text, labels, 2)
        if all(lab.id == i for i, lab in enumerate(labels)):  # else Dataset rejects the labels
            examples = (LabeledUtterance("topic please", 0), LabeledUtterance(text, 1))
            with pytest.raises(error):
                predict_dataset(params, vocab, Dataset(labels, examples), 2)


class TestEvaluateRuns:
    def test_all_correct_is_hundred(self):
        params, vocab, labels = one_hot_model(3)
        test = Dataset(labels, tuple(LabeledUtterance(f"lbl{i}", i) for i in range(3)))
        cfg = TrainConfig(k=3, epochs=0, seed=0)
        report = evaluate_runs(
            test, test, cfg, seeds=[1, 2, 3], shots=1, init=(params, vocab)
        )
        assert report.accuracies == [100.0, 100.0, 100.0]
        assert report.mean == 100.0 and report.std == 0.0

    def test_identical_seeds_zero_std(self):
        pool, test = generate_synthetic(4, 4, 1, seed=0, test_per_intent=3)
        cfg = TrainConfig(k=4, epochs=1, seed=0, d_emb=8, d_hidden=8, d_out=8)
        report = evaluate_runs(pool, test, cfg, seeds=[7, 7, 7], shots=2)
        assert report.std == 0.0

    def test_mean_std_recompute(self):
        pool, test = generate_synthetic(4, 6, 2, seed=1, test_per_intent=5)
        cfg = TrainConfig(k=4, epochs=2, seed=0, d_emb=8, d_hidden=8, d_out=8)
        report = evaluate_runs(pool, test, cfg, seeds=[0, 1], shots=3)
        assert report.mean == pytest.approx(float(np.mean(report.accuracies)))
        assert report.std == pytest.approx(float(np.std(report.accuracies)))
        assert min(report.accuracies) <= report.mean <= max(report.accuracies)

    def test_needs_seeds(self):
        pool, test = generate_synthetic(3, 2, 0, seed=0)
        with pytest.raises(DataError):
            evaluate_runs(pool, test, TrainConfig(k=3), seeds=[], shots=1)

    def test_empty_test_set_is_data_error(self):
        pool, test = generate_synthetic(3, 2, 0, seed=0)
        with pytest.raises(DataError, match="no examples"):
            evaluate_runs(pool, Dataset(test.labels, ()), TrainConfig(k=3, epochs=0), [0], 1)

    def test_report_carries_each_runs_predictions(self):
        params, vocab, labels = one_hot_model(3)
        test = Dataset(labels, tuple(LabeledUtterance(f"lbl{i}", i) for i in range(3)))
        cfg = TrainConfig(k=3, epochs=0, seed=0)
        report = evaluate_runs(test, test, cfg, seeds=[4, 5], shots=1, init=(params, vocab))
        assert [[p.predicted for p in preds] for preds in report.predictions] == [[0, 1, 2]] * 2
        assert "predictions" not in report.to_record()


class TestTopkMiss:
    def setup_method(self):
        self.params, self.vocab, self.labels = one_hot_model(4)
        self.test = Dataset(
            self.labels, tuple(LabeledUtterance(f"lbl{i}", i) for i in range(4))
        )
        self.preds = predict_dataset(self.params, self.vocab, self.test, 2)
        self.gold = [ex.intent_id for ex in self.test.examples]

    def test_full_coverage_no_miss(self):
        filt = [[0, 1, 2, 3]] * 4
        assert topk_miss(self.preds, self.gold, 4, filt) == (0, 0)

    def test_gold_outside_topk_counts(self):
        filt = [[1, 2, 0, 3]] * 4  # gold 0 sits at rank 2, gold 3 at rank 3
        misses, recovered = topk_miss(self.preds, self.gold, 2, filt)
        assert misses == 2
        assert recovered == 2  # the one-hot model predicts both correctly

    def test_own_ranking_never_recovers(self):
        filt = [[i for i, _ in p.ranking] for p in self.preds]
        misses, recovered = topk_miss(self.preds, self.gold, 1, filt)
        assert recovered == 0

    def test_bad_k_top(self):
        with pytest.raises(DataError):
            topk_miss(self.preds, self.gold, 0, [[0]] * 4)

    def test_filter_baseline_ranks_overlap_first(self):
        ranks = label_filter_rankings(["lbl2 please"], self.labels)
        assert ranks[0][0] == 2


class TestSweepK:
    def test_rows_and_duplicates(self):
        pool, _ = generate_synthetic(5, 6, 1, seed=0)
        from fewintent.corpus import split_dev

        tr, dev = split_dev(pool, 0.3, seed=0)
        cfg = TrainConfig(epochs=1, seed=0, d_emb=8, d_hidden=8, d_out=8)
        rows = sweep_k(tr, dev, cfg, [2, 5, 2])
        assert [(r.k, r.m, r.padding) for r in rows] == [(2, 3, 1), (5, 1, 0), (2, 3, 1)]
        assert rows[0].dev_accuracy == rows[2].dev_accuracy

    def test_rejects_bad_k(self):
        pool, _ = generate_synthetic(3, 2, 0, seed=0)
        with pytest.raises(DataError):
            sweep_k(pool, pool, TrainConfig(), [0])


class TestGenerateSynthetic:
    def test_counts(self):
        train, test = generate_synthetic(20, 5, 3, seed=0)
        assert len(train.examples) == 100
        assert len(test.examples) == 400

    def test_zero_noise_utterance_equals_surface(self):
        train, _ = generate_synthetic(3, 1, 0, seed=0)
        from fewintent.encoder import word_tokens

        for ex in train.examples:
            assert sorted(word_tokens(ex.text)) == sorted(
                word_tokens(train.labels[ex.intent_id].surface)
            )

    def test_needs_test_examples(self):
        with pytest.raises(DataError):
            generate_synthetic(3, 1, 0, seed=0, test_per_intent=0)

    def test_deterministic(self):
        a = generate_synthetic(5, 2, 2, seed=9)
        b = generate_synthetic(5, 2, 2, seed=9)
        assert a[0].examples == b[0].examples
        assert a[1].examples == b[1].examples


class TestTransferGenerators:
    def test_paraphrase_sides_share_no_tokens(self):
        from fewintent.encoder import word_tokens

        for pair in generate_paraphrase_corpus(30, 12, seed=2):
            assert not set(word_tokens(pair.anchor)) & set(word_tokens(pair.paraphrase))

    def test_all_concepts_covered(self):
        from fewintent.encoder import word_tokens

        pairs = generate_paraphrase_corpus(50, 30, seed=0)
        seen = {w for p in pairs for w in word_tokens(p.anchor)}
        assert {f"alpha{c}" for c in range(30)} <= seen

    def test_task_labels_disjoint_from_utterances(self):
        from fewintent.encoder import word_tokens

        task = generate_transfer_task(5, seed=1)
        label_tokens = {w for lab in task.labels for w in word_tokens(lab.surface)}
        for ex in task.examples:
            assert not set(word_tokens(ex.text)) & label_tokens

    def test_task_needs_test_examples(self):
        with pytest.raises(DataError):
            generate_transfer_task(5, seed=1, test_per_intent=0)

    def test_task_rejects_negative_noise_tokens(self):
        with pytest.raises(DataError, match="noise_tokens"):
            generate_transfer_task(5, seed=1, noise_tokens=-1)

    @pytest.mark.parametrize("n_concepts", range(1, 9))
    def test_paraphrase_capacity_is_exact(self, n_concepts):
        from itertools import combinations

        for c in range(1, n_concepts + 1):
            block = {tuple((s + j) % n_concepts for j in range(c)) for s in range(0, n_concepts, c)}
            capacity = len(block | set(combinations(range(n_concepts), c)))
            pairs = generate_paraphrase_corpus(capacity, n_concepts, seed=0, concepts_per_sentence=c)
            assert len(set(pairs)) == capacity
            with pytest.raises(DataError):
                generate_paraphrase_corpus(capacity + 1, n_concepts, seed=0, concepts_per_sentence=c)

    def test_paraphrase_needs_a_concept_per_sentence(self):
        with pytest.raises(DataError):
            generate_paraphrase_corpus(2, 4, seed=0, concepts_per_sentence=0)


def test_report_serialization_round_trip():
    report = EvalReport([50.0, 60.0], 55.0, 5.0, {0: 50.0}, [1, 2])
    rec = report.to_record()
    assert rec["mean"] == 55.0 and rec["seeds"] == [1, 2]
    text = report.to_text()
    assert "55.00%" in text and "std 5.00" in text
