from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewintent.corpus import Dataset, IntentLabel, LabeledUtterance
from fewintent.encoder import (
    PLH_ID,
    SEP_ID,
    UNK_ID,
    ModelParams,
    _project,
    build_vocab,
    encode,
    grad_check,
    init_params,
    loss_and_param_grads,
    tokenize,
    word_tokens,
)
from fewintent.errors import DataError, NumericError
from fewintent.objective import LossConfig
from fewintent.sequencer import (
    PLACEHOLDER,
    IntentGroup,
    SequencePlan,
    augment_shuffles,
    build_plans,
    partition_intents,
)

from conftest import make_dataset, run_python


def freeze_card_setup():
    labels = (IntentLabel(0, "card_arrival", "card arrival"),)
    data = Dataset(labels, (LabeledUtterance("freeze card", 0),), name="mini")
    vocab = build_vocab([data])
    group = IntentGroup(0, (0, PLACEHOLDER))
    plan = SequencePlan(data.examples[0], group, (0, 1), True, 0)
    return data, vocab, plan


class TestVocabulary:
    def test_word_plus_reserved_counts(self):
        data = Dataset(
            (IntentLabel(0, "x", "x"),),
            (LabeledUtterance("pay my card", 0),),
        )
        vocab = build_vocab([data], min_count=1)
        assert len(vocab) == 4 + 4  # pay, my, card, x

    def test_label_tokens_kept_below_min_count(self):
        data = Dataset(
            (IntentLabel(0, "rare label", "rare label"),),
            (LabeledUtterance("common common common", 0),),
        )
        vocab = build_vocab([data], min_count=3)
        assert "rare" in vocab and "label" in vocab
        assert "common" in vocab

    def test_plh_id_fixed(self):
        _, vocab, _ = freeze_card_setup()
        assert PLH_ID == 3
        assert vocab.id_of("missing-word") == UNK_ID

    def test_plain_sentences_accepted(self):
        vocab = build_vocab([["hello there", "hello again"]])
        assert "hello" in vocab and "again" in vocab

    def test_empty_raises(self):
        with pytest.raises(DataError):
            build_vocab([[""]])


class TestTokenize:
    def test_layout(self):
        data, vocab, plan = freeze_card_setup()
        seq = tokenize(plan, data.labels, vocab)
        freeze, card, arrival = vocab.id_of("freeze"), vocab.id_of("card"), vocab.id_of("arrival")
        assert seq.token_ids == (freeze, card, SEP_ID, card, arrival, SEP_ID, PLH_ID)
        assert seq.utterance_span == (0, 2)
        assert seq.slot_spans == ((3, 5), (6, 7))
        assert seq.slot_intents == (0, PLACEHOLDER)
        assert seq.gold_slot == 0

    def test_oov_maps_to_unk(self):
        data, vocab, plan = freeze_card_setup()
        odd = SequencePlan(LabeledUtterance("zzz card", 0), plan.group, (0, 1), True, 0)
        seq = tokenize(odd, data.labels, vocab)
        assert seq.token_ids[0] == UNK_ID

    def test_permutation_reorders_spans(self):
        data = make_dataset(n_intents=4, per_intent=1)
        vocab = build_vocab([data])
        groups = partition_intents(data.labels, 4)
        plan = build_plans(data.examples[0], groups)[0]
        base = tokenize(plan, data.labels, vocab)
        for aug in augment_shuffles(plan, count=5, seed=2):
            seq = tokenize(aug, data.labels, vocab)
            base_contents = sorted(base.token_ids[s:e] for s, e in base.slot_spans)
            aug_contents = sorted(seq.token_ids[s:e] for s, e in seq.slot_spans)
            assert base_contents == aug_contents

    def test_empty_utterance_raises(self):
        data, vocab, plan = freeze_card_setup()
        bad = SequencePlan(LabeledUtterance("...", 0), plan.group, (0, 1), True, 0)
        with pytest.raises(DataError):
            tokenize(bad, data.labels, vocab)


class TestEncode:
    def test_single_token_span_is_embedding_row(self):
        data, vocab, plan = freeze_card_setup()
        seq = tokenize(plan, data.labels, vocab)
        params = init_params(len(vocab), 8, 8, 8, seed=0)
        emb = encode(params, seq)
        np.testing.assert_array_equal(
            emb.z_slots[1], params.embedding[PLH_ID]
        )

    def test_two_token_span_is_mean(self):
        data, vocab, plan = freeze_card_setup()
        seq = tokenize(plan, data.labels, vocab)
        params = init_params(len(vocab), 8, 8, 8, seed=0)
        emb = encode(params, seq)
        rows = params.embedding[[vocab.id_of("freeze"), vocab.id_of("card")]]
        np.testing.assert_allclose(emb.z_u, rows.mean(axis=0), rtol=0, atol=0)

    def test_output_shapes(self):
        data, vocab, plan = freeze_card_setup()
        seq = tokenize(plan, data.labels, vocab)
        params = init_params(len(vocab), 8, 6, 5, seed=0)
        emb = encode(params, seq)
        assert emb.h_u.shape == (5,)
        assert emb.h_slots.shape == (2, 5)

    def test_nan_params_raise(self):
        data, vocab, plan = freeze_card_setup()
        seq = tokenize(plan, data.labels, vocab)
        params = init_params(len(vocab), 8, 8, 8, seed=0)
        params.embedding[0:] = np.nan
        with pytest.raises(NumericError):
            encode(params, seq)

    def test_order_insensitive_representations(self):
        data = make_dataset(n_intents=6, per_intent=1)
        vocab = build_vocab([data])
        groups = partition_intents(data.labels, 3)
        plan = build_plans(data.examples[1], groups)[0]
        params = init_params(len(vocab), seed=4)
        base = encode(params, tokenize(plan, data.labels, vocab))
        by_intent = {i: base.h_slots[p] for p, i in enumerate(base.slot_intents)}
        for aug in augment_shuffles(plan, count=10, seed=6):
            emb = encode(params, tokenize(aug, data.labels, vocab))
            np.testing.assert_array_equal(emb.z_u, base.z_u)
            for p, intent in enumerate(emb.slot_intents):
                np.testing.assert_array_equal(emb.h_slots[p], by_intent[intent])


class TestRowExactProjector:
    """A row's projection has the same bits in any stack as alone, so a
    label's vector cannot depend on its slot or on the group size."""

    @pytest.mark.parametrize(
        "dims",
        [(8, 2), (16, 3), (64, 17), (64, 64), (16, 16, 3), (64, 64, 17)],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_match_rows_projected_alone(self, dims, seed):
        rng = np.random.default_rng(seed)
        params = ModelParams(
            rng.uniform(-1, 1, (4, dims[0])),
            [rng.uniform(-1, 1, (a, b)) for a, b in zip(dims, dims[1:])],
            [rng.uniform(-1, 1, b) for b in dims[1:]],
        )
        rows = rng.uniform(-1, 1, (40, dims[0]))
        alone = np.stack([_project(params, row)[1] for row in rows])
        for height in range(1, 41):
            picked = rng.permutation(40)[:height]
            _, h = _project(params, rows[picked])
            np.testing.assert_array_equal(h.view(np.int64), alone[picked].view(np.int64))

    def test_order_invariance_criterion_under_nehalem_kernel(self, tmp_path):
        # OpenBLAS's Nehalem kernel rounds a plain product's rows by their
        # position in the stack; set for the child only.
        test = Path(__file__).with_name("test_acceptance.py")
        out = run_python(
            ["-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{test}::test_criterion_4_order_invariance"],
            tmp_path, env={"OPENBLAS_CORETYPE": "Nehalem"},
        )
        assert out.returncode == 0, out.stdout + out.stderr


def small_batch(seed=0, n_intents=5, k=2):
    data = make_dataset(n_intents=n_intents, per_intent=1)
    vocab = build_vocab([data])
    groups = partition_intents(data.labels, k)
    seqs = []
    for ex in data.examples[:3]:
        for plan in build_plans(ex, groups):
            seqs.append(tokenize(plan, data.labels, vocab))
    return vocab, seqs


class TestGradCheck:
    def test_default_model_under_tolerance(self):
        vocab, seqs = small_batch()
        params = init_params(len(vocab), 16, 16, 16, seed=1)
        err = grad_check(params, seqs, tau=0.1, eps=1e-4, n_coords=200, seed=0)
        assert err < 1e-4

    def test_deterministic(self):
        vocab, seqs = small_batch()
        params = init_params(len(vocab), 16, 16, 16, seed=1)
        a = grad_check(params, seqs, tau=0.1, eps=1e-4, n_coords=100, seed=5)
        b = grad_check(params, seqs, tau=0.1, eps=1e-4, n_coords=100, seed=5)
        assert a == b

    def test_all_placeholder_batch_has_zero_gradient(self):
        # No candidate terms anywhere: the loss is constant zero.
        vocab, _ = small_batch()
        group = IntentGroup(0, (PLACEHOLDER, PLACEHOLDER))
        plan = SequencePlan(LabeledUtterance("hello w0", PLACEHOLDER), group, (0, 1), False, None)
        seq = tokenize(plan, (), vocab)
        params = init_params(len(vocab), 8, 8, 8, seed=2)
        loss, grads = loss_and_param_grads(params, [seq], LossConfig(tau=0.1))
        assert loss == 0.0
        assert all(not g.any() for g in grads.arrays())
        assert grad_check(params, [seq], tau=0.1, eps=1e-4, n_coords=50) == 0.0

    def test_attention_path(self):
        # Larger draws keep attention gradients above the finite-difference
        # noise floor; the analytic path is exact either way.
        vocab, seqs = small_batch()
        rng = np.random.default_rng(7)
        d = 12

        def u(*shape):
            return rng.uniform(-0.6, 0.6, size=shape)

        params = ModelParams(
            u(len(vocab), d), [u(d, d), u(d, d)], [u(d), u(d)], u(d, d), u(d, d), u(d, d)
        )
        err = grad_check(params, seqs[:4], tau=0.1, eps=1e-4, n_coords=300, seed=3)
        assert err < 1e-4

    def test_deep_projector(self):
        vocab, seqs = small_batch()
        params = init_params(len(vocab), 12, 10, 8, depth=3, seed=9)
        err = grad_check(params, seqs[:4], tau=0.1, eps=1e-4, n_coords=200, seed=1)
        assert err < 1e-4


def test_word_tokens_split_punctuation_and_case():
    assert word_tokens("Freeze, my CARD!") == ["freeze", "my", "card"]
    assert word_tokens("it's 2-a") == ["it", "s", "2", "a"]
