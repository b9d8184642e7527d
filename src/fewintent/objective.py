"""Contrastive objective over utterance/slot representations.

For a sequence whose candidate set C is the non-placeholder slots (plus
placeholders when configured), the loss is the temperature-scaled softmax
cross-entropy of cosine similarities against the gold slot. Sequences without
a gold slot use a numerator of 1, i.e. plain log-sum-exp: the utterance is
only pushed away from the candidates it does not match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .sequencer import PLACEHOLDER


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.1
    include_placeholders: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise DataError(f"temperature must be positive, got {self.tau}")


def cosine_scores(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row of `us` (U, d) with every row of `vs`
    (L, d) as a (U, L) array, clamped into [-1, 1] against rounding.

    Dots and norms are elementwise products summed over the last axis, never
    a BLAS product, so entry (i, j) depends on the rows us[i] and vs[j] alone
    and scores the same bits however many rows stand beside them.
    """
    nu = np.sqrt((us * us).sum(axis=-1))
    nv = np.sqrt((vs * vs).sum(axis=-1))
    if not (nu.all() and nv.all()):
        raise NumericError("cosine similarity of a zero-norm vector")
    out = np.empty((len(us), len(vs)))
    for i, u in enumerate(us):  # one (L, d) temporary at a time, not (U, L, d)
        out[i] = (vs * u).sum(axis=-1)
    out /= nu[:, None] * nv
    return np.clip(out, -1.0, 1.0, out=out)


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Cosine similarity of `u` with `v`, each a vector or a stack of row
    vectors: `cosine_scores` without the axis of a side that is one vector,
    so a float for two vectors."""
    u, v = np.asarray(u), np.asarray(v)
    scores = cosine_scores(np.atleast_2d(u), np.atleast_2d(v)).reshape(u.shape[:-1] + v.shape[:-1])
    return float(scores) if scores.ndim == 0 else scores


def _candidate_positions(slot_intents: Sequence[int], cfg: LossConfig) -> list[int]:
    if cfg.include_placeholders:
        return list(range(len(slot_intents)))
    return [p for p, intent in enumerate(slot_intents) if intent != PLACEHOLDER]


def _loss_and_h_grads(emb, cfg: LossConfig):
    """Loss plus dL/dh_u and dL/dh_slots for one sequence.

    Returns zero loss and zero gradients when the candidate set is empty
    (an all-placeholder sequence contributes no terms).
    """
    cand = _candidate_positions(emb.slot_intents, cfg)
    k, d_out = emb.h_slots.shape
    dh_u = np.zeros(d_out)
    dh_slots = np.zeros((k, d_out))
    if not cand:
        return 0.0, dh_u, dh_slots

    hu = emb.h_u
    nu = float(np.linalg.norm(hu))
    if nu == 0.0:
        raise NumericError("zero-norm utterance representation")
    hs = emb.h_slots[cand]
    ns = np.linalg.norm(hs, axis=1)
    if np.any(ns == 0.0):
        raise NumericError("zero-norm slot representation")
    sims = np.clip(hs @ hu / (ns * nu), -1.0, 1.0)

    logits = sims / cfg.tau
    mx = logits.max()
    lse = mx + np.log(np.exp(logits - mx).sum())
    probs = np.exp(logits - lse)

    gold_pos = None
    if emb.gold_slot is not None:
        if emb.gold_slot not in cand:
            raise DataError("gold slot missing from the candidate set")
        gold_pos = cand.index(emb.gold_slot)
        loss = float(lse - logits[gold_pos])
    else:
        loss = float(lse)

    coeff = probs / cfg.tau
    if gold_pos is not None:
        coeff[gold_pos] -= 1.0 / cfg.tau

    # d sim_j / d h_u = h_j/(|h_u||h_j|) - sim_j * h_u/|h_u|^2, and symmetrically.
    dh_u = (coeff / ns) @ hs / nu - (coeff @ sims) * hu / (nu * nu)
    d_slots_cand = (
        coeff[:, None] * (hu[None, :] / (ns[:, None] * nu) - sims[:, None] * hs / (ns * ns)[:, None])
    )
    for row, pos in enumerate(cand):
        dh_slots[pos] = d_slots_cand[row]
    return loss, dh_u, dh_slots


def sequence_loss(emb, cfg: LossConfig) -> float:
    """Contrastive loss for one sequence; errors on an empty candidate set."""
    if not _candidate_positions(emb.slot_intents, cfg):
        raise DataError("empty candidate set: all slots are placeholders")
    loss, _, _ = _loss_and_h_grads(emb, cfg)
    return loss


def batch_loss(batch: Sequence, cfg: LossConfig) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean sequence loss over a batch and its gradients w.r.t. every h vector.

    Returns (loss, [(dh_u, dh_slots), ...]) aligned with the batch; gradients
    already include the 1/batch-size factor.
    """
    if not batch:
        raise DataError("empty batch")
    scale = 1.0 / len(batch)
    total = 0.0
    grads = []
    for emb in batch:
        loss, dh_u, dh_slots = _loss_and_h_grads(emb, cfg)
        total += loss
        grads.append((dh_u * scale, dh_slots * scale))
    return total * scale, grads
