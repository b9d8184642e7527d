"""Contrastive objective over utterance/slot representations.

For a sequence whose candidate set C is the slots that hold an intent (never
a placeholder), the loss is the temperature-scaled softmax cross-entropy of
cosine similarities against the gold slot. Sequences without a gold slot
use a numerator of 1, i.e. plain log-sum-exp: the utterance is only pushed
away from the candidates it does not match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .sequencer import PLACEHOLDER


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise DataError(f"temperature must be positive and finite, got {self.tau}")


COSINE_BLOCK = 2**16  # elements of `cosine_sim`'s product temporary (512 KiB of float64)


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Cosine similarity of every row of `u` with every row of `v`, clamped
    into [-1, 1] against rounding. Each side is a vector or a (rows, d)
    stack; the result drops the axis of a side that is one vector, so two
    vectors give a float and two stacks a (U, L) array.

    Dots and norms are elementwise products summed over the last axis, never
    a BLAS product, so entry (i, j) depends on the rows u[i] and v[j] alone
    and scores the same bits however many rows stand beside them. Blocks of
    u's rows are scored at a time, each (rows, L, d) product at most
    `COSINE_BLOCK` elements, or one row when a row's product is larger.
    """
    u, v = np.asarray(u), np.asarray(v)
    us, vs = np.atleast_2d(u), np.atleast_2d(v)
    nu = np.sqrt((us * us).sum(axis=-1))
    nv = np.sqrt((vs * vs).sum(axis=-1))
    if not (nu.all() and nv.all()):
        raise NumericError("cosine similarity of a zero-norm vector")
    out = np.empty((len(us), len(vs)))
    step = max(1, COSINE_BLOCK // max(vs.size, 1))
    for a in range(0, len(us), step):
        out[a:a + step] = (us[a:a + step, None, :] * vs).sum(axis=-1)
    out /= nu[:, None] * nv
    scores = np.clip(out, -1.0, 1.0, out=out).reshape(u.shape[:-1] + v.shape[:-1])
    return float(scores) if scores.ndim == 0 else scores


def loss_targets(seqs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The (B, k) candidate mask and the gold-slot vector that `batch_loss`
    takes, for sequences with `slot_intents` and `gold_slot` (tokenized or
    encoded). k is the longest sequence's slot count; a shorter sequence's
    missing slots are not candidates, and a sequence without gold has -1."""
    k = max((len(seq.slot_intents) for seq in seqs), default=0)
    candidates = np.zeros((len(seqs), k), dtype=bool)
    for row, seq in zip(candidates, seqs):
        intents = np.asarray(seq.slot_intents)
        row[: len(intents)] = intents != PLACEHOLDER
    gold = np.array([-1 if seq.gold_slot is None else seq.gold_slot for seq in seqs], dtype=np.intp)
    return candidates, gold


def batch_loss(
    h_u: np.ndarray, h_slots: np.ndarray, candidates: np.ndarray, gold: np.ndarray, cfg: LossConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean sequence loss over a batch and its gradients w.r.t. every h vector.

    `h_u` is (B, d), `h_slots` (B, k, d); `candidates` and `gold` are as
    `loss_targets` gives them. Returns (loss, dL/dh_u, dL/dh_slots); the
    gradients include the 1/B factor and are zero off the candidates. A
    sequence without candidates contributes zero loss and zero gradients.
    """
    if not len(h_u):
        raise DataError("empty batch")
    live = candidates.any(axis=1)
    gold_mask = (np.arange(candidates.shape[1]) == gold[:, None]) & live[:, None]
    nu = np.sqrt((h_u * h_u).sum(axis=-1))
    ns = np.sqrt((h_slots * h_slots).sum(axis=-1))
    if (live & (nu == 0.0)).any():
        raise NumericError("zero-norm utterance representation")
    if (candidates & (ns == 0.0)).any():
        raise NumericError("zero-norm slot representation")
    if (live & (gold >= 0) & ~(gold_mask & candidates).any(axis=1)).any():
        raise DataError("gold slot missing from the candidate set")

    nu = np.where(live, nu, 1.0)[:, None]
    ns = np.where(candidates, ns, 1.0)
    sims = np.clip((h_slots * h_u[:, None, :]).sum(axis=-1) / (ns * nu), -1.0, 1.0)
    logits = np.where(candidates, sims / cfg.tau, -np.inf)
    mx = np.where(live, logits.max(axis=1, initial=-np.inf), 0.0)[:, None]
    lse = mx + np.log(np.where(live[:, None], np.exp(logits - mx).sum(axis=1, keepdims=True), 1.0))
    losses = np.where(live, lse[:, 0], 0.0) - np.where(gold_mask, logits, 0.0).sum(axis=1)
    coeff = (np.exp(logits - lse) / cfg.tau - gold_mask / cfg.tau) / len(h_u)

    # d sim_j / d h_u = h_j/(|h_u||h_j|) - sim_j * h_u/|h_u|^2, and symmetrically.
    dh_u = ((coeff / ns)[:, :, None] * h_slots).sum(axis=1) / nu - (
        (coeff * sims).sum(axis=1, keepdims=True) * h_u / (nu * nu)
    )
    dh_slots = coeff[:, :, None] * (
        h_u[:, None, :] / (ns * nu)[:, :, None] - sims[:, :, None] * h_slots / (ns * ns)[:, :, None]
    )
    return float(losses.sum()) / len(h_u), dh_u, dh_slots


def sequence_loss(emb, cfg: LossConfig) -> float:
    """`batch_loss` of one encoded sequence; errors on an empty candidate set."""
    candidates, gold = loss_targets([emb])
    if not candidates.any():
        raise DataError("empty candidate set: all slots are placeholders")
    return batch_loss(emb.h_u[None], emb.h_slots[None], candidates, gold, cfg)[0]
