import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewintent.corpus import IntentLabel, LabeledUtterance
from fewintent.encoder import build_vocab, tokenize
from fewintent.errors import DataError
from fewintent.sequencer import (
    PLACEHOLDER,
    augment_shuffles,
    build_plans,
    choose_k,
    inference_plan,
    partition_intents,
)

from conftest import make_dataset


def brute_force_choose_k(n, k_min, k_max):
    """Independent oracle: exhaustive search with the documented tie-breaks."""
    best = None
    for k in range(k_min, min(k_max, n) + 1):
        m = math.ceil(n / k)
        key = (m * k - n, m, -k)
        if best is None or key < best[0]:
            best = (key, k)
    return best[1]


class TestChooseK:
    def test_published_group_sizes(self):
        assert choose_k(77, 20, 35) == 26
        assert choose_k(64, 20, 35) == 32
        assert choose_k(150, 20, 35) == 30

    def test_padding_tie_broken_by_fewer_groups(self):
        # n=150: k=25 and k=30 both pad 0; k=30 gives m=5 < m=6.
        assert choose_k(150, 20, 35) == 30

    def test_forced_single_group(self):
        assert choose_k(64, 64, 64) == 64

    def test_infeasible_range(self):
        with pytest.raises(DataError):
            choose_k(5, 10, 20)
        with pytest.raises(DataError):
            choose_k(10, 7, 3)

    @settings(max_examples=300)
    @given(n=st.integers(1, 500), k_min=st.integers(1, 60), width=st.integers(0, 40))
    def test_matches_exhaustive_oracle(self, n, k_min, width):
        k_max = k_min + width
        if k_min > n:
            with pytest.raises(DataError):
                choose_k(n, k_min, k_max)
        else:
            assert choose_k(n, k_min, k_max) == brute_force_choose_k(n, k_min, k_max)


class TestPartitionIntents:
    def test_padding_in_last_group(self):
        labels = make_dataset(n_intents=5, per_intent=1).labels
        groups = partition_intents(labels, 2)
        assert len(groups) == 3
        assert groups[2].slots == (4, PLACEHOLDER)

    def test_exact_fit(self):
        labels = make_dataset(n_intents=4, per_intent=1).labels
        groups = partition_intents(labels, 2)
        assert len(groups) == 2
        assert all(PLACEHOLDER not in g.slots for g in groups)

    @pytest.mark.parametrize("ids", [(1, 0), (0, 0), (0, 2), (3,)],
                             ids=["swapped", "duplicate", "gap", "past-the-end"])
    def test_label_ids_must_run_from_zero_in_order(self, ids):
        labels = tuple(IntentLabel(i, f"l{j}", f"l{j}") for j, i in enumerate(ids))
        with pytest.raises(DataError, match="contiguous from 0"):
            partition_intents(labels, 2)

    def test_77_intents_at_26(self):
        labels = tuple(IntentLabel(i, f"l{i}", f"l{i}") for i in range(77))
        groups = partition_intents(labels, 26)
        assert [g.slots.count(PLACEHOLDER) for g in groups] == [0, 0, 1]

    @given(n=st.integers(1, 120), k=st.integers(1, 40))
    def test_slot_accounting(self, n, k):
        labels = tuple(IntentLabel(i, f"l{i}", f"l{i}") for i in range(n))
        groups = partition_intents(labels, k)
        m = math.ceil(n / k)
        assert len(groups) == m
        real = [s for g in groups for s in g.slots if s != PLACEHOLDER]
        assert sorted(real) == list(range(n))
        pads = sum(g.slots.count(PLACEHOLDER) for g in groups)
        assert pads == m * k - n
        assert all(PLACEHOLDER not in g.slots for g in groups[:-1])


class TestBuildPlans:
    def test_exactly_one_gold(self):
        data = make_dataset(n_intents=5, per_intent=1)
        groups = partition_intents(data.labels, 2)
        plans = build_plans(data.examples[2], groups)
        assert len(plans) == 3
        assert [p.gold_slot is not None for p in plans] == [False, True, False]
        assert plans[1].gold_slot == 0
        assert [p.group for p in plans] == groups

    def test_single_group(self):
        data = make_dataset(n_intents=3, per_intent=1)
        groups = partition_intents(data.labels, 3)
        plans = build_plans(data.examples[0], groups)
        assert len(plans) == 1 and plans[0].gold_slot == 0

    def test_gold_before_placeholder(self):
        data = make_dataset(n_intents=3, per_intent=1)
        groups = partition_intents(data.labels, 2)
        plans = build_plans(data.examples[2], groups)  # intent 2 is last real slot
        assert plans[1].gold_slot == 0
        assert plans[1].group.slots == (2, PLACEHOLDER)

    def test_missing_intent_raises(self):
        data = make_dataset(n_intents=3, per_intent=1)
        groups = partition_intents(data.labels[:2], 2)
        with pytest.raises(DataError):
            build_plans(data.examples[2], groups)


class TestAugmentShuffles:
    def test_permutations_valid_and_gold_rederived(self):
        data = make_dataset(n_intents=6, per_intent=1)
        groups = partition_intents(data.labels, 3)
        plan = build_plans(data.examples[4], groups)[1]
        out = augment_shuffles(plan, count=8, seed=3)
        assert len(out) == 8
        for aug in out:
            assert aug.group.index == plan.group.index
            assert sorted(aug.group.slots) == sorted(plan.group.slots)
            assert aug.gold_slot is not None
            assert aug.group.slots[aug.gold_slot] == 4

    def test_multiset_preserved(self):
        data = make_dataset(n_intents=5, per_intent=1)
        groups = partition_intents(data.labels, 2)
        plan = build_plans(data.examples[4], groups)[2]  # group with a placeholder
        for aug in augment_shuffles(plan, count=10, seed=0):
            assert sorted(aug.group.slots) == sorted(plan.group.slots)

    def test_k_one_identity(self):
        labels = (IntentLabel(0, "x", "x"),)
        groups = partition_intents(labels, 1)
        plan = build_plans(LabeledUtterance("hi", 0), groups)[0]
        (aug,) = augment_shuffles(plan, count=1, seed=5)
        assert aug.group == plan.group and aug.gold_slot == 0

    def test_deterministic(self):
        data = make_dataset(n_intents=6, per_intent=1)
        groups = partition_intents(data.labels, 3)
        plan = build_plans(data.examples[0], groups)[0]
        a = augment_shuffles(plan, count=5, seed=11)
        b = augment_shuffles(plan, count=5, seed=11)
        assert [p.group.slots for p in a] == [p.group.slots for p in b]

    def test_default_count_is_k(self):
        data = make_dataset(n_intents=6, per_intent=1)
        groups = partition_intents(data.labels, 3)
        plan = build_plans(data.examples[0], groups)[0]
        assert len(augment_shuffles(plan, seed=0)) == 3

    @pytest.mark.parametrize("intent", [1, 4])  # gold in a full group; in the padded one
    def test_copies_follow_the_seeded_permutations(self, intent):
        data = make_dataset(n_intents=5, per_intent=1)
        groups = partition_intents(data.labels, 3)
        plan = build_plans(data.examples[intent], groups)[intent // 3]
        vocab = build_vocab([data])
        rng = np.random.default_rng(7)
        for aug in augment_shuffles(plan, count=6, seed=7):
            perm = rng.permutation(3)
            assert aug.group.slots == tuple(plan.group.slots[i] for i in perm)
            assert aug.group.index == plan.group.index
            assert aug.group.slots[aug.gold_slot] == intent
            assert tokenize(aug, data.labels, vocab).slot_intents == aug.group.slots


def test_inference_plan_has_no_gold():
    data = make_dataset(n_intents=4, per_intent=1)
    groups = partition_intents(data.labels, 2)
    plan = inference_plan("whatever words", groups[0])
    assert plan.gold_slot is None and plan.utterance.intent_id == PLACEHOLDER
    assert plan.group == groups[0]
