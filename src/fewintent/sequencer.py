"""Candidate-slate construction: pick a group size k, partition the intent
inventory into m = ceil(n/k) groups padded with placeholder slots, plan one
sequence per (utterance, group), and generate shuffle augmentations, each a
plan over a group whose slots are permuted."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import IntentLabel, LabeledUtterance, check_label_ids
from .errors import DataError

# Sentinel slot content for padding; never a valid intent id.
PLACEHOLDER = -1


@dataclass(frozen=True)
class IntentGroup:
    """One group of exactly k label slots; padding only ever in the last group."""

    index: int
    slots: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class SequencePlan:
    """One utterance paired with one group; the sequence shows ``group.slots``
    in order. ``gold_slot`` is the slot index of the utterance's own intent,
    or None when the group does not hold it.
    """

    utterance: LabeledUtterance
    group: IntentGroup
    gold_slot: int | None

    @property
    def slot_intents(self) -> tuple[int, ...]:
        """``group.slots`` under the name a `TokenizedSequence` gives them, so
        that `objective.loss_targets` reads plans and sequences alike."""
        return self.group.slots


def choose_k(n: int, k_min: int, k_max: int) -> int:
    """Pick the group size in [k_min, min(k_max, n)] that minimizes padding.

    Padding is ceil(n/k)*k - n. Ties prefer fewer groups, then larger k.
    """
    if k_min < 1 or k_min > k_max:
        raise DataError(f"bad group-size range [{k_min}, {k_max}]")
    hi = min(k_max, n)
    if k_min > hi:
        raise DataError(f"group-size range [{k_min}, {k_max}] infeasible for {n} intents")
    best_key = None
    best_k = k_min
    for k in range(k_min, hi + 1):
        m = math.ceil(n / k)
        key = (m * k - n, m, -k)
        if best_key is None or key < best_key:
            best_key, best_k = key, k
    return best_k


def check_group_size(k: int) -> None:
    """Raise `DataError` unless `k` is a group size: at least 1."""
    if k < 1:
        raise DataError(f"group size must be >= 1, got {k}")


def partition_intents(labels: Sequence[IntentLabel], k: int) -> list[IntentGroup]:
    """Split the inventory into ceil(n/k) groups of k slots, in inventory order;
    the label ids must pass `check_label_ids`."""
    if not labels:
        raise DataError("cannot partition an empty inventory")
    check_group_size(k)
    check_label_ids(labels)
    ids = [lab.id for lab in labels]
    groups = []
    for gi, start in enumerate(range(0, len(ids), k)):
        chunk = ids[start : start + k]
        chunk += [PLACEHOLDER] * (k - len(chunk))
        groups.append(IntentGroup(gi, tuple(chunk)))
    return groups


def build_plans(u: LabeledUtterance, groups: Sequence[IntentGroup]) -> list[SequencePlan]:
    """Duplicate the utterance across all m groups; exactly one plan holds its gold."""
    plans = [
        SequencePlan(u, g, g.slots.index(u.intent_id) if u.intent_id in g.slots else None)
        for g in groups
    ]
    if all(p.gold_slot is None for p in plans):
        raise DataError(f"intent id {u.intent_id} absent from every group")
    return plans


def inference_plan(text: str, group: IntentGroup) -> SequencePlan:
    """Plan for scoring an unlabeled utterance against one group."""
    return SequencePlan(LabeledUtterance(text, PLACEHOLDER), group, None)


def augment_shuffles(plan: SequencePlan, count: int | None = None, seed: int = 0) -> list[SequencePlan]:
    """Generate `count` copies of the plan, each over the plan's group with its
    slots under a fresh uniform permutation.

    Placeholders are permuted along with the real slots and the gold slot is
    re-derived. Defaults to k copies.
    """
    k = plan.group.k
    if count is None:
        count = k
    if count < 1:
        raise DataError(f"augmentation count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        group = IntentGroup(plan.group.index, tuple(plan.group.slots[i] for i in rng.permutation(k)))
        gold_slot = None if plan.gold_slot is None else group.slots.index(plan.utterance.intent_id)
        out.append(SequencePlan(plan.utterance, group, gold_slot))
    return out
