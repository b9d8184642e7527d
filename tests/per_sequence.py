"""The per-sequence training path that the batch kernel replaced, kept as
the reference the kernel is tested against: one forward pass, one loss and
one backward pass per sequence, with every span pooled by `ndarray.mean`
and the embedding gradient scattered once per sequence."""

import numpy as np

from fewintent.encoder import SequenceEmbeddings, _project, _softmax_rows
from fewintent.errors import DataError, NumericError
from fewintent.sequencer import PLACEHOLDER


def candidate_positions(slot_intents):
    return [p for p, intent in enumerate(slot_intents) if intent != PLACEHOLDER]


def loss_and_h_grads(emb, cfg):
    """Loss plus dL/dh_u and dL/dh_slots for one sequence; zero for an empty
    candidate set."""
    cand = candidate_positions(emb.slot_intents)
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

    dh_u = (coeff / ns) @ hs / nu - (coeff @ sims) * hu / (nu * nu)
    d_slots_cand = (
        coeff[:, None] * (hu[None, :] / (ns[:, None] * nu) - sims[:, None] * hs / (ns * ns)[:, None])
    )
    for row, pos in enumerate(cand):
        dh_slots[pos] = d_slots_cand[row]
    return loss, dh_u, dh_slots


def batch_loss(embs, cfg):
    """(mean loss, [(dh_u, dh_slots), ...]) with the 1/batch-size factor."""
    if not embs:
        raise DataError("empty batch")
    scale = 1.0 / len(embs)
    total = 0.0
    grads = []
    for emb in embs:
        loss, dh_u, dh_slots = loss_and_h_grads(emb, cfg)
        total += loss
        grads.append((dh_u * scale, dh_slots * scale))
    return total * scale, grads


def forward(params, seq):
    ids = np.asarray(seq.token_ids, dtype=np.intp)
    x_raw = params.embedding[ids]
    attn_cache = None
    if params.has_attention:
        scale = 1.0 / np.sqrt(params.d_emb)
        q = x_raw @ params.attn_q
        k = x_raw @ params.attn_k
        v = x_raw @ params.attn_v
        att = _softmax_rows((q @ k.T) * scale)
        x = x_raw + att @ v
        attn_cache = (x_raw, q, k, v, att, scale)
    else:
        x = x_raw
    spans = [seq.utterance_span, *seq.slot_spans]
    z = np.stack([x[s:e].mean(axis=0) for s, e in spans])
    acts, h = _project(params, z)
    emb = SequenceEmbeddings(z[0], z[1:], h[0], h[1:], seq.slot_intents, seq.gold_slot)
    return emb, (ids, spans, acts, attn_cache)


def backward(params, cache, dh_u, dh_slots, grads):
    ids, spans, acts, attn_cache = cache
    g = np.vstack([dh_u[None, :], dh_slots])
    last = len(params.proj_weights) - 1
    for i in range(last, -1, -1):
        x_in, dw, db = acts[i], grads.proj_weights[i], grads.proj_biases[i]
        dw += x_in.T @ g
        db += g.sum(axis=0)
        g = g @ params.proj_weights[i].T
        if i > 0:
            g = g * (1.0 - x_in * x_in)
    dx = np.zeros((len(ids), params.d_emb))
    for row, (s, e) in enumerate(spans):
        dx[s:e] += g[row] / (e - s)
    if attn_cache is not None:
        x_raw, q, k, v, att, scale = attn_cache
        dx_raw = dx.copy()
        da = dx @ v.T
        dv = att.T @ dx
        ds = att * (da - (da * att).sum(axis=1, keepdims=True))
        dq = ds @ k * scale
        dk = ds.T @ q * scale
        grads.attn_q += x_raw.T @ dq
        grads.attn_k += x_raw.T @ dk
        grads.attn_v += x_raw.T @ dv
        dx_raw += dq @ params.attn_q.T + dk @ params.attn_k.T + dv @ params.attn_v.T
        dx = dx_raw
    np.add.at(grads.embedding, ids, dx)


def loss_and_param_grads(params, batch, cfg):
    """Batch-mean loss and parameter gradients, one sequence at a time."""
    embs, caches = [], []
    for seq in batch:
        emb, cache = forward(params, seq)
        embs.append(emb)
        caches.append(cache)
    loss, h_grads = batch_loss(embs, cfg)
    grads = params.zeros_like()
    for cache, (dh_u, dh_slots) in zip(caches, h_grads):
        backward(params, cache, dh_u, dh_slots, grads)
    return loss, grads
