import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fewintent.encoder import SequenceEmbeddings
from fewintent.errors import DataError, NumericError
from fewintent.objective import LossConfig, batch_loss, cosine_scores, cosine_sim, sequence_loss
from fewintent.sequencer import PLACEHOLDER


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
        full = cosine_scores(us, vs)
        assert full.shape == (n_u + extra_u, n_v + extra_v)
        assert np.array_equal(full[:n_u, :n_v], cosine_scores(us[:n_u], vs[:n_v]))
        for i in range(n_u):
            for j in range(n_v):
                assert full[i, j] == cosine_sim(us[i], vs[j])

    def test_cosine_sim_drops_the_axis_of_a_vector(self):
        rng = np.random.default_rng(0)
        us, vs = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        assert isinstance(cosine_sim(us[0], vs[0]), float)
        assert np.array_equal(cosine_sim(us[0], vs), cosine_scores(us[:1], vs)[0])
        assert np.array_equal(cosine_sim(us, vs[0]), cosine_scores(us, vs[:1])[:, 0])
        assert np.array_equal(cosine_sim(us, vs), cosine_scores(us, vs))

    def test_clamped(self):
        # Unclamped, this vector's cosine with itself rounds to 1 + 2**-52.
        u = np.array([[1.0425133694426776, -0.12853466294403426]])
        assert cosine_scores(u, u)[0, 0] == 1.0
        assert cosine_scores(u, -u)[0, 0] == -1.0

    @pytest.mark.parametrize("side", ["us", "vs"])
    def test_zero_norm_row_raises(self, side):
        rows = np.ones((3, 4))
        rows[1] = 0.0
        args = (rows, np.ones((2, 4))) if side == "us" else (np.ones((2, 4)), rows)
        with pytest.raises(NumericError):
            cosine_scores(*args)


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
    def test_placeholders_excluded_by_default(self):
        h = basis(0, 4)
        e = embs(h, [h, basis(1, 4), basis(2, 4)], gold_slot=0,
                 slot_intents=(7, 9, PLACEHOLDER))
        with_plh = embs(h, [h, basis(1, 4), basis(2, 4)], gold_slot=0,
                        slot_intents=(7, 9, 11))
        excl = sequence_loss(e, LossConfig(tau=1.0))
        incl = sequence_loss(e, LossConfig(tau=1.0, include_placeholders=True))
        assert excl < incl  # extra denominator term raises the loss
        assert incl == pytest.approx(sequence_loss(with_plh, LossConfig(tau=1.0)), abs=1e-12)

    def test_empty_candidate_set_raises(self):
        e = embs(basis(0, 4), [basis(1, 4)], gold_slot=None, slot_intents=(PLACEHOLDER,))
        with pytest.raises(DataError):
            sequence_loss(e, LossConfig(tau=0.1))

    def test_batch_skips_empty_candidate_sequences(self):
        # All-placeholder sequences contribute zero terms instead of erroring,
        # matching the zero-learning-signal contract of the gradient checker.
        empty = embs(basis(0, 4), [basis(1, 4)], None, slot_intents=(PLACEHOLDER,))
        loss, grads = batch_loss([empty], LossConfig(tau=0.1))
        assert loss == 0.0
        assert not grads[0][0].any() and not grads[0][1].any()

    def test_batch_mean_of_identical(self):
        h = basis(0, 4)
        e = embs(h, [h, basis(1, 4)], gold_slot=0)
        single = sequence_loss(e, LossConfig(tau=1.0))
        double, _ = batch_loss([e, e], LossConfig(tau=1.0))
        assert double == pytest.approx(single, rel=1e-15)

    def test_empty_batch_raises(self):
        with pytest.raises(DataError):
            batch_loss([], LossConfig())

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
            return batch_loss([embs(hu, hs, gold_slot=1)], cfg)[0]

        _, ((dh_u, dh_slots),) = batch_loss([embs(h_u, h_slots, gold_slot=1)], cfg)
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
