from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fewintent.corpus import Dataset, IntentLabel, LabeledUtterance
from fewintent.encoder import (
    ModelParams,
    build_vocab,
    encode,
    init_params,
    tokenize,
    utterance_token_ids,
    word_tokens,
)
from fewintent import evaluator
from fewintent.encoder import Vocabulary
from fewintent.errors import DataError, NumericError
from fewintent.evaluator import (
    EvalReport,
    encode_inventory,
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

import per_row
import per_sequence


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


class TestPredictionRows:
    """A `Prediction` keeps its score row and builds its ranking on read; the
    ranking and the top intent equal the per-row `lexsort` reference."""

    @pytest.mark.parametrize(
        "row",
        [
            [0.5, 0.9, 0.5, 0.9, 0.1],  # exact ties, at the top and below it
            [0.0, -0.0, 0.3, -0.0, 0.0],  # signed zeros tie as floats
            [-0.0, 0.0, -0.2],
            [0.25] * 6,  # every label tied
            [0.7],  # one label
            [-1.0, 1.0, 1.0, -1.0, 0.999],  # scores clipped at the ends
        ],
    )
    def test_matches_the_lexsort_reference(self, row):
        scores = np.array(row)
        scores.flags.writeable = False
        pred = evaluator.Prediction(scores)
        ref = per_row.ranking(np.arange(len(row)), scores)
        assert pred.ranking == ref and pred.predicted == ref[0][0]
        assert [type(i) for i, _ in pred.ranking] == [int] * len(row)

    @given(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=12))
    def test_matches_the_lexsort_reference_on_any_tied_row(self, row):
        pred = evaluator.Prediction(np.array(row))
        ref = per_row.ranking(np.arange(len(row)), np.array(row))
        assert pred.ranking == ref and pred.predicted == ref[0][0]

    @pytest.mark.parametrize("attention", [False, True])
    def test_scores_are_read_only(self, attention):
        data = make_dataset(n_intents=5, per_intent=2)
        vocab = build_vocab([data])
        params = init_params(len(vocab), seed=0, attention=attention)
        preds = predict_dataset(params, vocab, data, 2)
        preds.append(predict(params, vocab, data.examples[0].text, data.labels, 2))
        for pred in preds:
            with pytest.raises(ValueError, match="read-only"):
                pred.scores[0] = 2.0
            assert pred.ranking is pred.ranking  # built once, on the first read


def grouped_ranking(params, vocab, text, labels, k, encode=encode):
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


def per_sequence_encode(params, seq):
    return per_sequence.forward(params, seq)[0]


def one_label_task():
    label = IntentLabel(0, "topic 0-a 0-b", "topic 0-a 0-b")
    texts = ("topic 0-a please", "help me now", "0-b")
    return Dataset((label,), tuple(LabeledUtterance(t, 0) for t in texts))


class TestAgainstGroupedReference:
    """Without attention the labels are encoded once and every utterance on
    its own; the rankings must equal the grouped reference bit for bit, on
    a fresh label index and on the one `predict` keeps."""

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
        assert len(batch) == len(data.examples)
        for i, ex in enumerate(data.examples):
            ref = grouped_ranking(params, vocab, ex.text, data.labels, k)
            assert batch[i].ranking == ref
            for _ in range(2):  # builds or reuses the memo, then reuses it
                online = predict(params, vocab, ex.text, data.labels, k)
                assert online.ranking == ref
                memo = evaluator._memo
            assert evaluator._memo is memo

    def test_long_utterance_among_many(self):
        _, data = generate_synthetic(13, 1, 3, seed=2, test_per_intent=11)
        long = LabeledUtterance(" ".join([data.examples[0].text] * 2000), 0)
        data = Dataset(data.labels, (*data.examples[:70], long, *data.examples[70:]))
        vocab = build_vocab([data])
        params = init_params(len(vocab), 16, 16, 17, seed=2)
        batch = predict_dataset(params, vocab, data, 4)
        for pred, ex in zip(batch, data.examples):
            assert pred.ranking == grouped_ranking(params, vocab, ex.text, data.labels, 4)

    @pytest.mark.parametrize(
        "n, k, repeat",
        [(12, 4, False), (13, 4, False), (12, 4, True), (13, 4, True)],
        ids=["12-4", "13-4", "12-4-repeats-a-label-word", "13-4-repeats-a-label-word"],
    )
    def test_attention_group_scores_match_per_slot_loop(self, n, k, repeat):
        _, data = generate_synthetic(n, 1, 3, seed=5, test_per_intent=1)
        if repeat:  # each utterance says a word of its own label three more times
            data = Dataset(data.labels, tuple(
                LabeledUtterance(f"{ex.text} {ex.intent_id}-a {ex.intent_id}-a topic", ex.intent_id)
                for ex in data.examples
            ))
        vocab = build_vocab([data])
        params = init_params(len(vocab), 16, 16, 16, seed=5, attention=True)
        for a in params.arrays():
            a *= 6.0  # attention rows far from uniform
        batch = predict_dataset(params, vocab, data, k)
        for i, ex in enumerate(data.examples):
            ref = grouped_ranking(params, vocab, ex.text, data.labels, k)
            assert batch[i].ranking == ref
            assert predict(params, vocab, ex.text, data.labels, k).ranking == ref
            # The scores of a layer that attends every position as a query.
            full = dict(grouped_ranking(params, vocab, ex.text, data.labels, k, per_sequence_encode))
            assert [s for _, s in ref] == pytest.approx([full[i] for i, _ in ref], rel=0, abs=1e-12)


class TestAttentionPasses:
    """With attention the sequences are scored in passes of whole utterances;
    the rankings equal the grouped reference bit for bit at every pass size."""

    @pytest.mark.parametrize(
        "pass_positions, n_passes",
        [(1, 39), (300, None), (evaluator.PASS_POSITIONS, None), (10**9, 1)],
        ids=["one-utterance-a-pass", "a-few-utterances-a-pass", "default", "one-pass"],
    )
    def test_rankings_bit_identical(self, monkeypatch, pass_positions, n_passes):
        # 13 intents in groups of 4 pad the last group; 39 utterances, every
        # third saying a word of its own label three more times.
        _, data = generate_synthetic(13, 1, 3, seed=4, test_per_intent=3)
        data = Dataset(data.labels, tuple(
            LabeledUtterance(f"{ex.text} {ex.intent_id}-a {ex.intent_id}-a topic", ex.intent_id)
            if i % 3 == 0 else ex
            for i, ex in enumerate(data.examples)
        ))
        vocab = build_vocab([data])
        params = init_params(len(vocab), 16, 16, 16, seed=4, attention=True)
        for a in params.arrays():
            a *= 6.0  # attention rows far from uniform
        monkeypatch.setattr(evaluator, "PASS_POSITIONS", pass_positions)
        calls = []
        encode_sequences = evaluator.encode_sequences

        def counted(params, seqs):
            calls.append(len(seqs))
            return encode_sequences(params, seqs)

        monkeypatch.setattr(evaluator, "encode_sequences", counted)

        batch = predict_dataset(params, vocab, data, 4)
        assert sum(calls) == 4 * len(data.examples)  # m = 4 sequences per utterance
        assert len(calls) == n_passes if n_passes else 1 < len(calls) < len(data.examples)
        for i, ex in enumerate(data.examples):
            ref = grouped_ranking(params, vocab, ex.text, data.labels, 4)
            assert batch[i].ranking == ref
            assert predict(params, vocab, ex.text, data.labels, 4).ranking == ref

    def test_passes_hold_whole_utterances_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(evaluator, "PASS_POSITIONS", 10)
        assert evaluator._passes([4, 6, 1, 12, 3, 3, 3, 10]) == [[0, 1], [2], [3], [4, 5, 6], [7]]


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

    def id_past_the_end(params, labels):
        return "topic please", (*labels[:4], IntentLabel(7, "l7", labels[4].surface)), params

    def duplicate_id(params, labels):  # the second label would never be scored
        return "topic please", (labels[0], IntentLabel(0, "l0", labels[1].surface), *labels[2:]), params

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
        pytest.param(id_past_the_end, DataError, id="label-id-past-the-end"),
        pytest.param(duplicate_id, DataError, id="duplicate-label-id"),
        pytest.param(non_finite, NumericError, id="non-finite-params"),
        pytest.param(zero_norm, NumericError, id="zero-norm"),
    ]


class TestErrorParity:
    """Both prediction paths raise what the grouped reference raises, also
    after a successful `predict` on the same labels and parameters."""

    @pytest.mark.parametrize("mutate, error", _error_cases())
    @pytest.mark.parametrize("attention", [False, True])
    def test_same_error_as_reference(self, monkeypatch, mutate, error, attention):
        monkeypatch.setattr(evaluator, "PASS_POSITIONS", 1)  # the faulty utterance in the third pass
        pool, _ = generate_synthetic(5, 1, 1, seed=0, test_per_intent=1)
        vocab = build_vocab([pool])
        params = init_params(len(vocab), 8, 8, 8, seed=0, attention=attention)
        predict(params, vocab, "topic please", pool.labels, 2)
        text, labels, params = mutate(params, pool.labels)
        with pytest.raises(error):
            grouped_ranking(params, vocab, text, labels, 2)
        with pytest.raises(error):
            predict(params, vocab, text, labels, 2)
        examples = (
            LabeledUtterance("topic please", 0),
            LabeledUtterance("please help", 1),
            LabeledUtterance(text, 1),
        )
        try:
            data = Dataset(labels, examples)
        except DataError:  # Dataset rejects the label ids; so must predict_dataset, given them
            data = SimpleNamespace(labels=labels, examples=examples)
        with pytest.raises(error):
            predict_dataset(params, vocab, data, 2)

    @pytest.mark.parametrize("fault", ["utterance", "label"])
    @pytest.mark.parametrize("attention", [False, True])
    def test_input_checks_run_before_numeric_checks(self, fault, attention):
        """Bad input is a DataError even when the parameters would raise a
        NumericError on the first sequence scored."""
        pool, _ = generate_synthetic(5, 1, 1, seed=0, test_per_intent=1)
        vocab = build_vocab([pool])
        params = init_params(len(vocab), 8, 8, 8, seed=0, attention=attention)
        params.proj_biases[-1][0] = np.nan
        labels, text = pool.labels, "?! ..."
        if fault == "label":
            labels, text = (*labels[:4], IntentLabel(4, "??", "??")), "topic please"
        examples = (LabeledUtterance("topic please", 0), LabeledUtterance(text, 1))
        with pytest.raises(DataError):
            predict_dataset(params, vocab, Dataset(labels, examples), 2)
        with pytest.raises(DataError):
            predict(params, vocab, text, labels, 2)


def _label_input_edits():
    """In-place edits of values a label row is computed from; `token` is a
    label token the utterance does not use."""
    def label_embedding_row(params, token):
        params.embedding[token] += 0.25

    def projector_weight(params, token):
        params.proj_weights[0][3] *= -1.0

    def projector_bias(params, token):
        params.proj_biases[-1][2] = 0.5

    def signed_zero(params, token):  # equal as a float, not as bits
        params.proj_biases[0][0] = -0.0

    edits = (label_embedding_row, projector_weight, projector_bias, signed_zero)
    return [pytest.param(edit, id=edit.__name__) for edit in edits]


class TestLabelIndexMemo:
    """`predict` reuses the label index of the last inventory only while the
    values its label rows were computed from are unchanged."""

    def setup_method(self):
        _, self.data = generate_synthetic(13, 1, 3, seed=3, test_per_intent=2)
        self.vocab = build_vocab([self.data])
        self.params = init_params(len(self.vocab), 16, 16, 16, seed=3)
        self.text = self.data.examples[5].text

    def check(self, params=None, vocab=None, labels=None, k=4):
        """Predict, assert the grouped reference's ranking, return the memo."""
        params, vocab = params or self.params, vocab or self.vocab
        labels = labels or self.data.labels
        pred = predict(params, vocab, self.text, labels, k)
        assert pred.ranking == grouped_ranking(params, vocab, self.text, labels, k)
        return evaluator._memo

    def label_token(self):
        """A token id of a label surface that the utterance does not use."""
        utterance = set(utterance_token_ids(self.text, self.vocab))
        surface = self.data.labels[0].surface
        return next(t for t in (self.vocab.id_of(w) for w in word_tokens(surface)) if t not in utterance)

    @pytest.mark.parametrize("edit", _label_input_edits())
    def test_in_place_edit_of_a_label_input_rebuilds(self, edit):
        self.params.proj_biases[0][0] = 0.0
        first = self.check()
        edit(self.params, self.label_token())
        assert self.check() is not first

    def test_utterance_row_edit_is_seen_without_a_rebuild(self):
        first = self.check()
        labels = {self.vocab.id_of(w) for lab in self.data.labels for w in word_tokens(lab.surface)}
        only_utterance = next(t for t in utterance_token_ids(self.text, self.vocab) if t not in labels)
        self.params.embedding[only_utterance] *= -3.0
        assert self.check() is first

    def test_equal_inputs_hit(self):
        first = self.check()
        labels = [IntentLabel(lab.id, lab.raw_name, lab.surface) for lab in self.data.labels]
        vocab = Vocabulary(tuple(self.vocab.tokens))
        assert self.check(self.params.copy(), vocab, labels) is first
        assert self.check(k=13) is first  # k does not enter the label rows

    def test_other_labels_vocab_or_depth_miss(self):
        first = self.check()
        fewer = self.data.labels[:12]
        assert self.check(labels=fewer) not in (None, first)
        first = self.check()
        wider = build_vocab([self.data, ["unseen words here"]])
        params = init_params(len(wider), 16, 16, 16, seed=3)
        params.embedding[: len(self.vocab)] = self.params.embedding
        assert self.check(params, wider) is not first
        first = self.check()
        p = self.params
        deeper = ModelParams(p.embedding, [*p.proj_weights, np.eye(16)], [*p.proj_biases, np.zeros(16)])
        assert self.check(deeper) is not first

    @pytest.mark.parametrize(
        "k, labels, match", [(0, None, "group size"), (4, (), "empty inventory")]
    )
    def test_group_checks_run_on_a_hit(self, k, labels, match):
        self.check()
        with pytest.raises(DataError, match=match):
            predict(self.params, self.vocab, self.text, self.data.labels if labels is None else labels, k)

    def test_attention_model_never_touches_the_memo(self):
        first = self.check()
        params = init_params(len(self.vocab), 16, 16, 16, seed=3, attention=True)
        assert self.check(params) is first

    def test_encode_inventory_needs_a_plain_model(self):
        params = init_params(len(self.vocab), 8, 8, 8, seed=0, attention=True)
        with pytest.raises(DataError, match="without attention"):
            encode_inventory(params, self.vocab, self.data.labels)


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

    @pytest.mark.parametrize("fraction", [float("nan"), 1.0])
    def test_bad_dev_fraction_is_data_error(self, fraction):
        pool, test = generate_synthetic(3, 3, 0, seed=0)  # 3 shots of 3 intents: a 9-example sample
        cfg = TrainConfig(k=3, epochs=0, seed=0)
        with pytest.raises(DataError, match=r"dev fraction must be in \(0, 1\)"):
            evaluate_runs(pool, test, cfg, seeds=[0], shots=3, dev_fraction=fraction)

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

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_paraphrase_corpus_needs_a_pair(self, n_pairs):
        with pytest.raises(DataError, match=f"n_pairs={n_pairs}"):
            generate_paraphrase_corpus(n_pairs, 12, seed=0)

    def test_paraphrase_needs_a_concept_per_sentence(self):
        with pytest.raises(DataError):
            generate_paraphrase_corpus(2, 4, seed=0, concepts_per_sentence=0)


def test_report_serialization_round_trip():
    report = EvalReport([50.0, 60.0], 55.0, 5.0, {0: 50.0}, [1, 2])
    rec = report.to_record()
    assert rec["mean"] == 55.0 and rec["seeds"] == [1, 2]
    text = report.to_text()
    assert "55.00%" in text and "std 5.00" in text
