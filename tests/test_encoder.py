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
    PlanBatch,
    SpanTable,
    TokenizedSequence,
    _padded,
    _pool,
    _project,
    _row_sums,
    build_vocab,
    encode,
    grad_check,
    init_params,
    lay_out,
    loss_and_param_grads,
    plan_word_ids,
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

import grad_errors
import keyed_batch
import per_sequence


def freeze_card_setup():
    labels = (IntentLabel(0, "card_arrival", "card arrival"),)
    data = Dataset(labels, (LabeledUtterance("freeze card", 0),), name="mini")
    vocab = build_vocab([data])
    group = IntentGroup(0, (0, PLACEHOLDER))
    plan = SequencePlan(data.examples[0], group, 0)
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
        odd = SequencePlan(LabeledUtterance("zzz card", 0), plan.group, 0)
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

    def test_lay_out_from_run_wide_ids_equals_tokenize(self):
        # Two inventories that share surfaces under different ids, as
        # paraphrase anchors have.
        data = make_dataset(n_intents=5, per_intent=2)
        other = tuple(IntentLabel(i, f"o{i}", data.labels[4 - i].surface) for i in range(5))
        pairs = [
            (plan, labels)
            for labels, k in ((data.labels, 2), (other, 3))
            for ex in data.examples
            for plan in build_plans(ex, partition_intents(labels, k))
        ]
        vocab = build_vocab([data])
        word_ids = plan_word_ids(pairs, vocab)
        for plan, labels in pairs:
            assert lay_out(plan, labels, word_ids) == tokenize(plan, labels, vocab)

    def test_empty_utterance_raises(self):
        data, vocab, plan = freeze_card_setup()
        bad = SequencePlan(LabeledUtterance("...", 0), plan.group, 0)
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
        plan = SequencePlan(LabeledUtterance("hello w0", PLACEHOLDER), group, None)
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


class TestPooling:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 8, 64]),
        lengths=st.lists(st.integers(1, 40) | st.integers(100, 3000), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_of_mean(self, d, lengths, seed):
        # Width 1 and spans of 8 or more rows are where numpy sums pairwise.
        x = np.random.default_rng(seed).normal(size=(sum(lengths), d))
        ends = np.cumsum(lengths)
        spans = [range(e - n, e) for n, e in zip(lengths, ends.tolist())]
        want = np.stack([x[span.start : span.stop].mean(axis=0) for span in spans])
        assert np.array_equal(_pool(x, *_padded(spans)).view(np.int64), want.view(np.int64))

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 9), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_row_sums_have_add_at_bits(self, d, n, seed):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, 12, size=n)
        values = rng.normal(size=(n, d))
        want = np.zeros((12, d))
        np.add.at(want, index, values)
        got = _row_sums(index.tolist(), values, 12)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


WORDS = tuple(range(4, 14))  # word ids of a 14-token vocabulary


def laid_out(utterance, slots, gold_slot):
    """A TokenizedSequence in `tokenize`'s layout; `slots` holds (intent,
    surface ids) pairs, with PLACEHOLDER slots holding the PLH token."""
    ids = list(utterance)
    spans = []
    for intent, surface in slots:
        ids.append(SEP_ID)
        start = len(ids)
        ids.extend((PLH_ID,) if intent == PLACEHOLDER else surface)
        spans.append((start, len(ids)))
    intents = tuple(intent for intent, _ in slots)
    return TokenizedSequence(tuple(ids), (0, len(utterance)), tuple(spans), intents, gold_slot)


@st.composite
def batches(draw):
    """Batches in which utterances and label surfaces recur: each sequence
    has its own inventory (an intent id names different surfaces in
    different sequences, and different ids share a surface), duplicate
    sequences, placeholder slots, all-placeholder sequences and ragged slot
    counts."""
    span = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(tuple)
    surfaces = draw(st.lists(span, min_size=1, max_size=5))
    utterances = draw(st.lists(span, min_size=1, max_size=4))
    k = draw(st.integers(1, 5))
    seqs = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from([k, k, max(1, k - 1)]))
        slots = [
            (PLACEHOLDER, ()) if draw(st.integers(0, 3)) == 0
            else (draw(st.integers(0, 5)), draw(st.sampled_from(surfaces)))
            for _ in range(width)
        ]
        real = [p for p, (intent, _) in enumerate(slots) if intent != PLACEHOLDER]
        gold = draw(st.sampled_from(real)) if real and draw(st.booleans()) else None
        seqs.append(laid_out(draw(st.sampled_from(utterances)), slots, gold))
    repeats = draw(st.lists(st.sampled_from(range(len(seqs))), max_size=3))
    return seqs + [seqs[i] for i in repeats]


def wide_params(depth, attention, seed):
    """Parameters drawn wide enough that attention does not average out."""
    rng = np.random.default_rng(seed)
    d = 6

    def u(*shape):
        return rng.uniform(-0.6, 0.6, size=shape)

    attn = (u(d, d), u(d, d), u(d, d)) if attention else (None, None, None)
    dims = [d] * (depth + 1)
    return ModelParams(
        u(len(WORDS) + 4, d), [u(a, b) for a, b in zip(dims, dims[1:])], [u(b) for b in dims[1:]], *attn
    )


def assert_same_loss_and_grads(params, batch, cfg):
    want_loss, want = per_sequence.loss_and_param_grads(params, batch, cfg)
    loss, got = loss_and_param_grads(params, batch, cfg)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    for g, w in zip(got.arrays(), want.arrays()):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


# Sequences with fewer distinct tokens than positions; with attention each
# distinct token is one query row.
REPEATED_TOKENS = {
    "utterance-repeats-a-word": laid_out((5, 5, 5, 7), [(0, (6,)), (1, (8, 9))], 0),
    "labels-share-every-token": laid_out((4, 7), [(0, (5, 6)), (1, (6, 5)), (2, (5, 6, 6))], 1),
    # Without separators, so the sequence has one distinct token.
    "one-distinct-token": TokenizedSequence((5,) * 5, (0, 2), ((2, 3), (3, 5)), (0, 1), 0),
    "all-placeholders": laid_out((4, 8, 8), [(PLACEHOLDER, ()), (PLACEHOLDER, ())], None),
}
REPEATED_CASES = [*REPEATED_TOKENS, "all-in-one-batch"]


def repeated_batch(case):
    return list(REPEATED_TOKENS.values()) if case == "all-in-one-batch" else [REPEATED_TOKENS[case]]


class TestAgainstPerSequenceReference:
    """The batch kernel against the per-sequence forward, loss and backward
    it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        batch=batches(),
        depth=st.sampled_from([1, 2]),
        attention=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_loss_and_every_gradient_agree(self, batch, depth, attention, seed):
        params = wide_params(depth, attention, seed)
        assert_same_loss_and_grads(params, batch, LossConfig(0.1))

    @pytest.mark.parametrize("attention", [False, True])
    def test_dataset_batch_with_duplicate_plans(self, attention):
        vocab, seqs = small_batch(n_intents=7, k=3)
        params = init_params(len(vocab), 8, 8, 8, seed=3, attention=attention)
        assert_same_loss_and_grads(params, seqs + seqs[:4], LossConfig(0.1))

    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize(
        "case, error",
        [("zero-norm", NumericError), ("gold-not-a-candidate", DataError), ("empty", DataError)],
    )
    def test_same_errors(self, attention, case, error):
        vocab, seqs = small_batch()
        params = init_params(len(vocab), 8, 8, 8, seed=0, attention=attention)
        if case == "zero-norm":
            params.proj_weights[-1][:] = 0.0
            params.proj_biases[-1][:] = 0.0
        elif case == "gold-not-a-candidate":
            plh = laid_out((4, 5), [(0, (6,)), (PLACEHOLDER, ())], gold_slot=1)
            seqs = [*seqs[:2], plh]
        else:
            seqs = []
        with pytest.raises(error):
            per_sequence.loss_and_param_grads(params, seqs, LossConfig(0.1))
        with pytest.raises(error):
            loss_and_param_grads(params, seqs, LossConfig(0.1))

    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("case", REPEATED_CASES)
    def test_repeated_tokens(self, case, attention):
        for seed in range(3):
            params = wide_params(2, attention, seed)
            assert_same_loss_and_grads(params, repeated_batch(case), LossConfig(0.1))

    @pytest.mark.parametrize("case", REPEATED_CASES)
    def test_grad_check_on_repeated_tokens_with_attention(self, case):
        for depth in (1, 2):
            params = wide_params(depth, True, seed=depth)
            assert grad_check(params, repeated_batch(case), n_coords=300, seed=depth) < 1e-4

    def test_grad_check_on_batch_with_repeats_and_placeholders(self):
        vocab, seqs = small_batch(n_intents=5, k=3)
        batch = seqs[:5] + seqs[:2]
        params = init_params(len(vocab), 12, 12, 12, seed=4)
        assert grad_check(params, batch, n_coords=300, seed=2) < 1e-4


def two_inventory_table():
    """(plan, labels) pairs over two inventories that share surfaces under
    different intent ids, grouped in threes and in twos (each with a
    placeholder slot), with utterances that recur across items; with their
    vocabulary, `plan_word_ids` and `SpanTable`."""
    first = tuple(IntentLabel(i, f"a{i}", s) for i, s in
                  enumerate(("card arrival", "freeze", "top up", "lost card", "pin")))
    second = tuple(IntentLabel(i, f"b{i}", s) for i, s in enumerate(("freeze", "refund", "card arrival")))
    texts = ("freeze my card", "where is my card", "top up failed", "refund please", "freeze")
    pairs = []
    for labels, k in ((first, 3), (second, 2)):
        groups = partition_intents(labels, k)
        for n, text in enumerate(texts):
            pairs += [(plan, labels) for plan in build_plans(LabeledUtterance(text, n % len(labels)), groups)]
    vocab = build_vocab([texts, ("card arrival lost pin",)])
    word_ids = plan_word_ids(pairs, vocab)
    return pairs, vocab, word_ids, SpanTable.of_plans(pairs, word_ids)


class TestAgainstKeyedReference:
    """The compiled attention-free kernel against the per-batch keyed kernel
    it replaced: the same loss and the same gradient bits."""

    @staticmethod
    def assert_same_bits(params, batch, reference_batch):
        want_loss, want = keyed_batch.loss_and_param_grads(params, reference_batch, LossConfig(0.1))
        loss, got = loss_and_param_grads(params, batch, LossConfig(0.1))
        assert loss == want_loss
        for g, w in zip(got.arrays(), want.arrays()):
            assert np.array_equal(g, w)
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @settings(max_examples=150, deadline=None)
    @given(batch=batches(), depth=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
    def test_sequence_lists(self, batch, depth, seed):
        params = wide_params(depth, False, seed)
        self.assert_same_bits(params, batch, batch)

    @settings(max_examples=100, deadline=None)
    @given(picks=st.lists(st.integers(0, 19), min_size=1, max_size=10), seed=st.integers(0, 2**16))
    def test_plan_batches(self, picks, seed):
        # Plans picked twice, plans of 3 and of 2 slots, placeholder slots,
        # and "freeze" as intent 1 in one inventory and intent 0 in the other.
        pairs, vocab, word_ids, table = two_inventory_table()
        batch = PlanBatch(pairs, word_ids, table, np.array(picks))
        params = init_params(len(vocab), 8, 8, 8, seed=seed)
        laid = [lay_out(*pairs[i], word_ids) for i in picks]
        assert list(batch) == laid
        ids, rows, _, _ = table.batch(batch.picks)
        spans, keyed = keyed_batch.keyed_rows(laid)
        tokens, lengths = table.tokens[ids], table.lengths[ids]
        assert [tuple(t[:n]) for t, n in zip(tokens.tolist(), lengths.tolist())] == spans
        assert np.array_equal(rows, keyed)
        self.assert_same_bits(params, batch, laid)

    def test_grad_check_on_plan_batch(self):
        pairs, vocab, word_ids, table = two_inventory_table()
        picks = np.array([0, 3, 3, 9, 12, 15, 19, 19])  # both inventories, a placeholder slot in each
        batch = PlanBatch(pairs, word_ids, table, picks)
        params = init_params(len(vocab), 12, 12, 12, seed=4)
        assert grad_check(params, batch, n_coords=300, seed=2) < 1e-4

    def test_grad_check_reads_high_on_an_exact_gradient(self):
        # At width 8 this batch's gradient has the keyed reference kernel's bits
        # (`test_plan_batches`), yet its relative error crosses 1e-4: the worst
        # coordinate's gradient is about 8e-6, against 2e-2 for the largest, and
        # the central difference reads it 9e-10 off. The absolute error is noise.
        pairs, vocab, word_ids, table = two_inventory_table()
        batch = PlanBatch(pairs, word_ids, table, np.array([9, 12, 14, 17, 18, 18]))
        params = init_params(len(vocab), 8, 8, 8, seed=0)
        keyed = [lay_out(*pairs[i], word_ids) for i in batch.picks]
        self.assert_same_bits(params, batch, keyed)
        rel, absolute = grad_errors.errors(params, batch, n_coords=300)
        assert rel == grad_check(params, batch, n_coords=300)
        assert rel > 1e-4 and absolute < 1e-8


def test_word_tokens_split_punctuation_and_case():
    assert word_tokens("Freeze, my CARD!") == ["freeze", "my", "card"]
    assert word_tokens("it's 2-a") == ["it", "s", "2", "a"]
