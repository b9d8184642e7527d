import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewintent.encoder import SequenceEmbeddings
from fewintent.errors import DataError, NumericError
from fewintent.objective import (
    COSINE_BLOCK,
    LossConfig,
    batch_loss,
    cosine_sim,
    loss_targets,
    sequence_loss,
)
from fewintent.sequencer import PLACEHOLDER

import per_row
import per_sequence


def embs(h_u, h_slots, gold_slot=None, slot_intents=None):
    """Hand-built embeddings; z fields are irrelevant to the loss."""
    h_slots = np.asarray(h_slots, dtype=float)
    k = len(h_slots)
    if slot_intents is None:
        slot_intents = tuple(range(k))
    return SequenceEmbeddings(
        z_u=np.zeros(2),
        z_slots=np.zeros((k, 2)),
        h_u=np.asarray(h_u, dtype=float),
        h_slots=h_slots,
        slot_intents=tuple(slot_intents),
        gold_slot=gold_slot,
    )


def batch_of(batch, cfg):
    """`batch_loss` of encoded sequences of one slot count."""
    candidates, gold = loss_targets(batch)
    h_u = np.stack([e.h_u for e in batch])
    h_slots = np.stack([e.h_slots for e in batch])
    return batch_loss(h_u, h_slots, candidates, gold, cfg)


def basis(i, d):
    e = np.zeros(d)
    e[i] = 1.0
    return e


class TestCosine:
    def test_identical_direction(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_arithmetic(self):
        # dot = 8, norms = 3 * 3
        got = cosine_sim(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0]))
        assert got == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_zero_norm_raises(self):
        with pytest.raises(NumericError):
            cosine_sim(np.zeros(3), np.ones(3))

    def test_clamped(self):
        v = np.array([1e-200, 1.0])
        assert -1.0 <= cosine_sim(v, -v) <= 1.0


class TestCosineScores:
    @given(
        n_u=st.integers(1, 5),
        n_v=st.integers(1, 5),
        extra_u=st.integers(0, 40),
        extra_v=st.integers(0, 40),
        d=st.integers(1, 70),
        seed=st.integers(0, 2**16),
    )
    def test_entries_are_cosine_sim_in_any_stack(self, n_u, n_v, extra_u, extra_v, d, seed):
        rng = np.random.default_rng(seed)
        us = rng.normal(size=(n_u + extra_u, d))
        vs = rng.normal(size=(n_v + extra_v, d))
        full = cosine_sim(us, vs)
        assert full.shape == (n_u + extra_u, n_v + extra_v)
        assert np.array_equal(full[:n_u, :n_v], cosine_sim(us[:n_u], vs[:n_v]))
        for i in range(n_u):
            for j in range(n_v):
                assert full[i, j] == cosine_sim(us[i], vs[j])

    def test_cosine_sim_drops_the_axis_of_a_vector(self):
        rng = np.random.default_rng(0)
        us, vs = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        assert isinstance(cosine_sim(us[0], vs[0]), float)
        assert np.array_equal(cosine_sim(us[0], vs), cosine_sim(us[:1], vs)[0])
        assert np.array_equal(cosine_sim(us, vs[0]), cosine_sim(us, vs[:1])[:, 0])
        assert cosine_sim(us, vs).shape == (3, 4)

    def test_clamped(self):
        # Unclamped, this vector's cosine with itself rounds to 1 + 2**-52.
        u = np.array([[1.0425133694426776, -0.12853466294403426]])
        assert cosine_sim(u, u)[0, 0] == 1.0
        assert cosine_sim(u, -u)[0, 0] == -1.0

    @pytest.mark.parametrize("n_u", ["1", "block-1", "block", "block+1", "300"])
    def test_blocks_score_the_bits_of_the_per_row_loop(self, n_u):
        rng = np.random.default_rng(7)
        vs = rng.normal(size=(150, 64))
        block = COSINE_BLOCK // vs.size
        us = rng.normal(size=(eval(n_u, {"block": block}), 64))
        assert block > 2 and np.array_equal(cosine_sim(us, vs), per_row.cosine_sim(us, vs))

    def test_one_row_blocks_past_the_budget(self):
        rng = np.random.default_rng(8)
        vs = rng.normal(size=(300, 257))
        assert vs.size > COSINE_BLOCK
        us = rng.normal(size=(3, 257))
        assert np.array_equal(cosine_sim(us, vs), per_row.cosine_sim(us, vs))
        assert np.array_equal(cosine_sim(us[0], vs), per_row.cosine_sim(us[0], vs))

    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_vector_shapes_score_the_bits_of_the_per_row_loop(self, d):
        rng = np.random.default_rng(d)
        us, vs = rng.normal(size=(5, d)), rng.normal(size=(7, d))
        for u, v in [(us[0], vs[0]), (us[0], vs), (us, vs[0])]:
            got, ref = cosine_sim(u, v), per_row.cosine_sim(u, v)
            assert type(got) is type(ref) and np.array_equal(got, ref)

    @pytest.mark.parametrize("side", ["us", "vs"])
    def test_zero_norm_row_raises(self, side):
        rows = np.ones((3, 4))
        rows[1] = 0.0
        args = (rows, np.ones((2, 4))) if side == "us" else (np.ones((2, 4)), rows)
        with pytest.raises(NumericError):
            cosine_sim(*args)


class TestClosedForms:
    def test_uniform_similarities_give_log_c(self):
        # All four candidates identical: softmax is uniform, loss = ln 4.
        h = basis(0, 8)
        e = embs(h, [h, h, h, h], gold_slot=2)
        assert sequence_loss(e, LossConfig(tau=0.1)) == pytest.approx(math.log(4), abs=1e-9)

    def test_two_candidates_tau_one(self):
        # sims (gold 1.0, other 0.0) at tau=1: loss = log(1 + e^-1).
        e = embs(basis(0, 4), [basis(0, 4), basis(1, 4)], gold_slot=0)
        got = sequence_loss(e, LossConfig(tau=1.0))
        assert got == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)

    def test_no_gold_25_zero_sims(self):
        slots = [basis(i + 1, 26) for i in range(25)]
        e = embs(basis(0, 26), slots, gold_slot=None)
        got = sequence_loss(e, LossConfig(tau=0.1))
        assert got == pytest.approx(math.log(25), abs=1e-9)

    def test_lower_bound_at_extreme_sims(self):
        # Gold at +1, nine others at -1: the best reachable loss value.
        tau, c = 0.1, 10
        h = basis(0, 4)
        e = embs(h, [h] + [-h] * (c - 1), gold_slot=0)
        expected = -math.log(
            math.exp(1 / tau) / (math.exp(1 / tau) + (c - 1) * math.exp(-1 / tau))
        )
        assert sequence_loss(e, LossConfig(tau=tau)) == pytest.approx(expected, rel=1e-12)


class TestLossRules:
    def test_placeholders_are_not_candidates(self):
        h = basis(0, 4)
        e = embs(h, [h, basis(1, 4), basis(2, 4)], gold_slot=0,
                 slot_intents=(7, 9, PLACEHOLDER))
        with_plh = embs(h, [h, basis(1, 4), basis(2, 4)], gold_slot=0,
                        slot_intents=(7, 9, 11))
        without_plh = embs(h, [h, basis(1, 4)], gold_slot=0, slot_intents=(7, 9))
        excl = sequence_loss(e, LossConfig(tau=1.0))
        assert excl < sequence_loss(with_plh, LossConfig(tau=1.0))  # a third candidate raises the loss
        assert excl == sequence_loss(without_plh, LossConfig(tau=1.0))

    def test_empty_candidate_set_raises(self):
        e = embs(basis(0, 4), [basis(1, 4)], gold_slot=None, slot_intents=(PLACEHOLDER,))
        with pytest.raises(DataError):
            sequence_loss(e, LossConfig(tau=0.1))

    def test_batch_skips_empty_candidate_sequences(self):
        # All-placeholder sequences contribute zero terms instead of erroring,
        # matching the zero-learning-signal contract of the gradient checker.
        empty = embs(basis(0, 4), [basis(1, 4)], None, slot_intents=(PLACEHOLDER,))
        loss, dh_u, dh_slots = batch_of([empty], LossConfig(tau=0.1))
        assert loss == 0.0
        assert not dh_u.any() and not dh_slots.any()

    def test_batch_mean_of_identical(self):
        h = basis(0, 4)
        e = embs(h, [h, basis(1, 4)], gold_slot=0)
        single = sequence_loss(e, LossConfig(tau=1.0))
        double = batch_of([e, e], LossConfig(tau=1.0))[0]
        assert double == pytest.approx(single, rel=1e-15)

    def test_empty_batch_raises(self):
        with pytest.raises(DataError):
            batch_loss(np.zeros((0, 4)), np.zeros((0, 2, 4)), np.zeros((0, 2), dtype=bool),
                       np.zeros(0, dtype=np.intp), LossConfig())

    def test_monotone_in_gold_similarity(self):
        other = basis(1, 4)
        losses = []
        for sim in (0.9, 0.5, 0.0, -0.5):
            gold = np.array([sim, math.sqrt(1 - sim * sim), 0.0, 0.0])
            e = embs(basis(0, 4), [gold, other], gold_slot=0)
            losses.append(sequence_loss(e, LossConfig(tau=0.1)))
        assert losses == sorted(losses)
        assert len(set(losses)) == len(losses)


class TestInvariances:
    @given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 100))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        h_u = rng.normal(size=6)
        h_slots = rng.normal(size=(4, 6))
        base = sequence_loss(embs(h_u, h_slots, gold_slot=1), LossConfig(tau=0.1))
        scaled = sequence_loss(embs(h_u * scale, h_slots * scale, gold_slot=1), LossConfig(tau=0.1))
        assert scaled == pytest.approx(base, rel=1e-9)

    @given(seed=st.integers(0, 100))
    def test_slot_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        h_u = rng.normal(size=5)
        h_slots = rng.normal(size=(6, 5))
        perm = rng.permutation(6)
        base = sequence_loss(embs(h_u, h_slots, gold_slot=2), LossConfig(tau=0.1))
        permuted = sequence_loss(
            embs(h_u, h_slots[perm], gold_slot=int(np.argwhere(perm == 2)[0][0])),
            LossConfig(tau=0.1),
        )
        assert permuted == pytest.approx(base, rel=1e-12)


class TestHSpaceGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h_u = rng.normal(size=5)
        h_slots = rng.normal(size=(4, 5))
        cfg = LossConfig(tau=0.1)

        def loss_of(hu, hs):
            return batch_of([embs(hu, hs, gold_slot=1)], cfg)[0]

        _, (dh_u,), (dh_slots,) = batch_of([embs(h_u, h_slots, gold_slot=1)], cfg)
        eps = 1e-6
        for i in range(5):
            delta = np.zeros(5)
            delta[i] = eps
            fd = (loss_of(h_u + delta, h_slots) - loss_of(h_u - delta, h_slots)) / (2 * eps)
            assert dh_u[i] == pytest.approx(fd, abs=1e-6)
        for j in range(4):
            for i in range(5):
                bump = np.zeros_like(h_slots)
                bump[j, i] = eps
                fd = (loss_of(h_u, h_slots + bump) - loss_of(h_u, h_slots - bump)) / (2 * eps)
                assert dh_slots[j, i] == pytest.approx(fd, abs=1e-6)


class TestLossConfig:
    @pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_rejects_temperature_not_positive_and_finite(self, tau):
        with pytest.raises(DataError, match="temperature"):
            LossConfig(tau=tau)


@st.composite
def encoded_batches(draw):
    """Encoded sequences of ragged slot counts: placeholder slots, sequences
    with and without gold, and sequences whose every slot is a placeholder."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, 5))
        intents = draw(st.lists(st.sampled_from([PLACEHOLDER, 0, 1, 2]), min_size=k, max_size=k))
        real = [p for p, intent in enumerate(intents) if intent != PLACEHOLDER]
        gold = draw(st.sampled_from(real)) if real and draw(st.booleans()) else None
        batch.append(embs(rng.normal(size=d), rng.normal(size=(k, d)), gold, intents))
    return batch


def padded(batch):
    """(B, d) and (B, k, d) arrays of ragged encoded sequences, padded with zero rows."""
    k = max(len(e.h_slots) for e in batch)
    h_slots = np.zeros((len(batch), k, len(batch[0].h_u)))
    for row, e in zip(h_slots, batch):
        row[: len(e.h_slots)] = e.h_slots
    return np.stack([e.h_u for e in batch]), h_slots


class TestAgainstPerSequenceLoop:
    """The array loss against the per-sequence loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(batch=encoded_batches(), tau=st.sampled_from([0.05, 0.1, 1.0]))
    def test_loss_and_h_gradients_agree(self, batch, tau):
        cfg = LossConfig(tau=tau)
        want_loss, want_grads = per_sequence.batch_loss(batch, cfg)
        h_u, h_slots = padded(batch)
        loss, dh_u, dh_slots = batch_loss(h_u, h_slots, *loss_targets(batch), cfg)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        for i, (want_u, want_slots) in enumerate(want_grads):
            k = len(want_slots)
            np.testing.assert_allclose(dh_u[i], want_u, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(dh_slots[i, :k], want_slots, rtol=1e-12, atol=1e-12)
            assert not dh_slots[i, k:].any()  # padding

    @pytest.mark.parametrize(
        "mutate, error",
        [
            (lambda batch: batch[1].h_u.fill(0.0), NumericError),
            (lambda batch: batch[1].h_slots[0].fill(0.0), NumericError),
            (lambda batch: setattr(batch[1], "gold_slot", 2), DataError),  # a placeholder
            (lambda batch: setattr(batch[1], "gold_slot", 3), DataError),  # past the last slot
        ],
        ids=["zero-norm-utterance", "zero-norm-slot", "gold-not-a-candidate", "gold-out-of-range"],
    )
    def test_same_errors(self, mutate, error):
        rng = np.random.default_rng(0)
        batch = [embs(rng.normal(size=4), rng.normal(size=(3, 4)), 0, (5, 6, PLACEHOLDER))
                 for _ in range(3)]
        mutate(batch)
        cfg = LossConfig(tau=0.1)
        with pytest.raises(error):
            per_sequence.batch_loss(batch, cfg)
        with pytest.raises(error):
            batch_of(batch, cfg)
