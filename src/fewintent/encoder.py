"""Token-level encoder for utterance + candidate-slate sequences.

The backbone is deliberately small and fully differentiable by hand: an
embedding lookup, optional single self-attention layer, span mean pooling, and
a shared MLP projector applied to the utterance span and every label slot.
All gradients are analytic and checked against central finite differences.

Training runs one batch kernel (`loss_and_param_grads`): one projector pass,
array loss, backward pass and embedding scatter per batch, with each distinct
span of an attention-free batch encoded once. Every path pools a span to the
mean of its token rows with `ndarray.mean`'s bits.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import Dataset, IntentLabel
from .errors import DataError, NumericError
from .objective import LossConfig, batch_loss, loss_targets
from .sequencer import PLACEHOLDER, SequencePlan

PAD_ID, UNK_ID, SEP_ID, PLH_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<sep>", "<plh>")

_WORD = re.compile(r"[^\W_]+")


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric word tokens; punctuation and underscores split."""
    return _WORD.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Word-to-id map with four reserved ids at fixed positions 0-3."""

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = {tok: i + len(RESERVED_TOKENS) for i, tok in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise DataError("duplicate tokens in vocabulary")
        object.__setattr__(self, "_ids", ids)

    def __len__(self) -> int:
        return len(RESERVED_TOKENS) + len(self.tokens)

    def id_of(self, word: str) -> int:
        return self._ids.get(word, UNK_ID)

    def __contains__(self, word: str) -> bool:
        return word in self._ids


def build_vocab(corpora: Sequence[Dataset | Iterable[str]], min_count: int = 1) -> Vocabulary:
    """Count word tokens over datasets and/or plain sentence iterables.

    Tokens appearing at least `min_count` times are kept; tokens of any label
    surface are always kept regardless of count.
    """
    counts: Counter[str] = Counter()
    order: dict[str, None] = {}
    always: set[str] = set()

    def _feed(text: str):
        for tok in word_tokens(text):
            counts[tok] += 1
            order.setdefault(tok)

    for item in corpora:
        if isinstance(item, Dataset):
            for lab in item.labels:
                for tok in word_tokens(lab.surface):
                    always.add(tok)
                    order.setdefault(tok)
            for ex in item.examples:
                _feed(ex.text)
        else:
            for sentence in item:
                _feed(sentence)

    kept = tuple(t for t in order if counts[t] >= min_count or t in always)
    if not kept:
        raise DataError("vocabulary is empty")
    return Vocabulary(kept)


@dataclass(frozen=True)
class TokenizedSequence:
    """Token ids plus span bookkeeping for one plan.

    Layout: utterance tokens, then for each group slot in order one SEP and the
    slot's label-surface tokens (a single PLH token for placeholder slots).
    Spans are half-open [start, end) and exclude the SEP markers.
    """

    token_ids: tuple[int, ...]
    utterance_span: tuple[int, int]
    slot_spans: tuple[tuple[int, int], ...]
    slot_intents: tuple[int, ...]
    gold_slot: int | None


def utterance_token_ids(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids of an utterance; an utterance without tokens is rejected."""
    ids = [vocab.id_of(w) for w in word_tokens(text)]
    if not ids:
        raise DataError(f"utterance {text!r} has no tokens")
    return ids


def plan_word_ids(
    plans: Iterable[tuple[SequencePlan, Sequence[IntentLabel]]], vocab: Vocabulary
) -> dict[str, tuple[int, ...]]:
    """Token ids of every utterance text and label surface the (plan, labels)
    pairs lay out, each text tokenized once. Raises what `tokenize` raises."""
    ids: dict[str, tuple[int, ...]] = {}
    for plan, labels in plans:
        text = plan.utterance.text
        if text not in ids:
            ids[text] = tuple(utterance_token_ids(text, vocab))
        for intent in plan.group.slots:
            if intent == PLACEHOLDER:
                continue
            lab = labels[intent]
            if lab.id != intent:
                raise DataError(f"label list out of order at id {intent}")
            if lab.surface not in ids:
                ids[lab.surface] = tuple(vocab.id_of(w) for w in word_tokens(lab.surface))
                if not ids[lab.surface]:
                    raise DataError(f"label {lab.surface!r} has no tokens")
    return ids


def lay_out(
    plan: SequencePlan, labels: Sequence[IntentLabel], word_ids: dict[str, tuple[int, ...]]
) -> TokenizedSequence:
    """One plan as token ids, from `plan_word_ids` of a set of plans that holds it."""
    ids = list(word_ids[plan.utterance.text])
    utterance_span = (0, len(ids))
    spans = []
    for intent in plan.group.slots:
        ids.append(SEP_ID)
        start = len(ids)
        ids += (PLH_ID,) if intent == PLACEHOLDER else word_ids[labels[intent].surface]
        spans.append((start, len(ids)))
    return TokenizedSequence(tuple(ids), utterance_span, tuple(spans), plan.group.slots, plan.gold_slot)


def tokenize(plan: SequencePlan, labels: Sequence[IntentLabel], vocab: Vocabulary) -> TokenizedSequence:
    """Lay out one plan as token ids with utterance/slot spans recorded."""
    return lay_out(plan, labels, plan_word_ids([(plan, labels)], vocab))


@dataclass
class ModelParams:
    """Trainable state: embedding table, shared projector, optional attention."""

    embedding: np.ndarray  # (vocab, d_emb)
    proj_weights: list[np.ndarray]  # layer i: (d_in_i, d_out_i)
    proj_biases: list[np.ndarray]
    attn_q: np.ndarray | None = None  # (d_emb, d_emb), all three set or none
    attn_k: np.ndarray | None = None
    attn_v: np.ndarray | None = None

    def __post_init__(self):
        if not self.proj_weights or len(self.proj_weights) != len(self.proj_biases):
            raise DataError("projector needs matching weight/bias lists")
        d = self.embedding.shape[1]
        for w, b in zip(self.proj_weights, self.proj_biases):
            if w.shape[0] != d or w.shape[1] != b.shape[0]:
                raise DataError(f"projector layer shape mismatch: {w.shape} after dim {d}")
            d = w.shape[1]
        if d < 2:
            raise DataError(f"output dimension must be >= 2, got {d}")
        attn = (self.attn_q, self.attn_k, self.attn_v)
        if any(a is not None for a in attn) and not all(a is not None for a in attn):
            raise DataError("attention needs all of q/k/v weights")

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_emb(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_out(self) -> int:
        return self.proj_weights[-1].shape[1]

    @property
    def has_attention(self) -> bool:
        return self.attn_q is not None

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (shared with gradients)."""
        out = [self.embedding]
        for w, b in zip(self.proj_weights, self.proj_biases):
            out.extend((w, b))
        if self.has_attention:
            out.extend((self.attn_q, self.attn_k, self.attn_v))
        return out

    def _map(self, fn) -> "ModelParams":
        attn = (self.attn_q, self.attn_k, self.attn_v)
        return ModelParams(
            fn(self.embedding),
            [fn(w) for w in self.proj_weights],
            [fn(b) for b in self.proj_biases],
            *(None if a is None else fn(a) for a in attn),
        )

    def copy(self) -> "ModelParams":
        return self._map(np.copy)

    def zeros_like(self) -> "ModelParams":
        return self._map(np.zeros_like)


def init_params(
    vocab_size: int,
    d_emb: int = 64,
    d_hidden: int = 64,
    d_out: int = 64,
    depth: int = 2,
    seed: int = 0,
    attention: bool = False,
) -> ModelParams:
    """Seeded uniform [-0.1, 0.1] initialization."""
    if depth < 1:
        raise DataError(f"projector depth must be >= 1, got {depth}")
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    dims = [d_emb] + [d_hidden] * (depth - 1) + [d_out]
    weights = [u(dims[i], dims[i + 1]) for i in range(depth)]
    biases = [u(dims[i + 1]) for i in range(depth)]
    attn = (u(d_emb, d_emb), u(d_emb, d_emb), u(d_emb, d_emb)) if attention else (None, None, None)
    return ModelParams(u(vocab_size, d_emb), weights, biases, *attn)


@dataclass
class SequenceEmbeddings:
    """Pooled representations before (z) and after (h) the shared projector."""

    z_u: np.ndarray  # (d_emb,)
    z_slots: np.ndarray  # (k, d_emb)
    h_u: np.ndarray  # (d_out,)
    h_slots: np.ndarray  # (k, d_out)
    slot_intents: tuple[int, ...]
    gold_slot: int | None


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _project(params: ModelParams, z: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The shared projector over pooled rows, `z` of shape (..., d_emb).

    Row-exact: each row is multiplied as its own 1-row product, so its output
    has the same bits in a stack of any height, at any position, and alone.
    A single BLAS product over the stack may round a row by its position and
    the stack height, which would let a label's vector depend on its slot.

    Returns each layer's input (kept for backprop) and the output; a
    non-finite output is a NumericError.
    """
    acts = [z]
    h = z
    last = len(params.proj_weights) - 1
    for i, (w, b) in enumerate(zip(params.proj_weights, params.proj_biases)):
        h = (h[..., None, :] @ w)[..., 0, :] + b
        if i < last:
            h = np.tanh(h)
            acts.append(h)
    if not np.isfinite(h).all():
        raise NumericError("non-finite values in encoder output (check parameters)")
    return acts, h


def _pool(x: np.ndarray, spans: Sequence[Sequence[int]]) -> np.ndarray:
    """The mean of the rows of `x` at each span's indices, with `ndarray.mean`'s bits.

    Spans of one length are gathered as one stack and summed along it, then
    divided by the count: a slice mean's bits at any length and width, which
    `np.add.reduceat` does not give. Every encoder path pools through here.
    """
    out = np.empty((len(spans), x.shape[1]))
    by_length: dict[int, list[int]] = {}
    for row, span in enumerate(spans):
        by_length.setdefault(len(span), []).append(row)
    for n, rows in by_length.items():
        out[rows] = x[[spans[r] for r in rows]].sum(axis=1) / n
    return out


def _spans(seq: TokenizedSequence) -> list[tuple[int, int]]:
    return [seq.utterance_span, *seq.slot_spans]


def _row_sums(index: Sequence[int], values: np.ndarray, n_rows: int) -> np.ndarray:
    """The rows of `values` summed by `index` into `n_rows` rows, in one
    `np.bincount`: the bits of ``np.add.at`` on zeros."""
    d = values.shape[1]
    flat = (np.asarray(index)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def _attend(params: ModelParams, x_raw: np.ndarray):
    """Token rows after the optional attention layer, and its backprop cache."""
    if not params.has_attention:
        return x_raw, None
    scale = 1.0 / np.sqrt(params.d_emb)
    q = x_raw @ params.attn_q
    k = x_raw @ params.attn_k
    v = x_raw @ params.attn_v
    att = _softmax_rows((q @ k.T) * scale)
    return x_raw + att @ v, (x_raw, q, k, v, att, scale)


def _attend_backward(params: ModelParams, cache, dx: np.ndarray, grads: ModelParams) -> np.ndarray:
    """Accumulate attention gradients; returns dL/dx_raw from dL/dx."""
    x_raw, q, k, v, att, scale = cache
    da = dx @ v.T
    dv = att.T @ dx
    ds = att * (da - (da * att).sum(axis=1, keepdims=True))
    dq = ds @ k * scale
    dk = ds.T @ q * scale
    grads.attn_q += x_raw.T @ dq
    grads.attn_k += x_raw.T @ dk
    grads.attn_v += x_raw.T @ dv
    return dx + (dq @ params.attn_q.T + dk @ params.attn_k.T + dv @ params.attn_v.T)


def _project_backward(params: ModelParams, acts: list[np.ndarray], g: np.ndarray, grads: ModelParams):
    """Accumulate projector gradients; returns dL/dz from dL/dh over the same rows."""
    for i in range(len(params.proj_weights) - 1, -1, -1):
        x_in = acts[i]
        grads.proj_weights[i] += x_in.T @ g
        grads.proj_biases[i] += g.sum(axis=0)
        g = g @ params.proj_weights[i].T
        if i > 0:
            g = g * (1.0 - x_in * x_in)  # tanh'
    return g


def _pooled(params: ModelParams, seq: TokenizedSequence):
    """A sequence's pooled span rows, utterance first, and its attention cache."""
    x, cache = _attend(params, params.embedding[list(seq.token_ids)])
    return _pool(x, [range(*span) for span in _spans(seq)]), cache


def encode(params: ModelParams, seq: TokenizedSequence) -> SequenceEmbeddings:
    """Span mean pooling over token embeddings, then the shared projector."""
    z, _ = _pooled(params, seq)
    h = _project(params, z)[1]
    return SequenceEmbeddings(z[0], z[1:], h[0], h[1:], seq.slot_intents, seq.gold_slot)


def encode_spans(params: ModelParams, spans: Sequence[Sequence[int]]) -> np.ndarray:
    """Projected representation of each token-id span on its own, for a
    model without attention: each span is mean-pooled as ``encode`` pools a
    sequence's spans, and the row-exact projector gives it the bits
    ``encode`` gives it in any sequence."""
    return _project(params, _pool(params.embedding, spans))[1]


def loss_and_param_grads(
    params: ModelParams, batch: Sequence[TokenizedSequence], cfg: LossConfig
) -> tuple[float, ModelParams]:
    """Batch-mean contrastive loss and its exact gradient w.r.t. all parameters.

    The batch's pooled spans are the rows of one projector pass, one
    `batch_loss` and one backward pass, and the embedding gradient is
    scattered once. Without attention a span's row depends on its token ids
    alone, so each distinct utterance or label is one row however often it
    recurs (keyed by token ids: an intent id names different labels in
    different inventories). With attention each sequence is attended on its
    own and keeps its own rows.
    """
    if not batch:
        raise DataError("empty batch")
    if params.has_attention:
        pooled = [_pooled(params, seq) for seq in batch]
        z = np.concatenate([rows for rows, _ in pooled])
        firsts = np.cumsum([0] + [1 + len(seq.slot_spans) for seq in batch]).tolist()
        span_rows = [range(first, end) for first, end in zip(firsts, firsts[1:])]
        ids = [t for seq in batch for t in seq.token_ids]
    else:
        row_of: dict[tuple[int, ...], int] = {}
        span_rows = [
            [row_of.setdefault(seq.token_ids[s:e], len(row_of)) for s, e in _spans(seq)]
            for seq in batch
        ]
        z = _pool(params.embedding, list(row_of))
        ids = [t for span in row_of for t in span]
    # Each sequence's utterance row, then its slot rows; a sequence with
    # fewer slots is padded with row 0, which its candidate mask leaves out.
    table = np.zeros((len(batch), max(map(len, span_rows))), dtype=np.intp)
    for row, rows in zip(table, span_rows):
        row[: len(rows)] = rows

    acts, h = _project(params, z)
    candidates, gold = loss_targets(batch, cfg)
    loss, dh_u, dh_slots = batch_loss(h[table[:, 0]], h[table[:, 1:]], candidates, gold, cfg)
    dh = np.concatenate([dh_u[:, None], dh_slots], axis=1).reshape(-1, h.shape[1])
    grads = params.zeros_like()
    dz = _project_backward(params, acts, _row_sums(table.ravel(), dh, len(h)), grads)

    if params.has_attention:
        dxs = []
        for seq, (_, cache), first in zip(batch, pooled, firsts):
            dx = np.zeros((len(seq.token_ids), params.d_emb))
            for row, (s, e) in enumerate(_spans(seq), start=first):
                dx[s:e] = dz[row] / (e - s)
            dxs.append(_attend_backward(params, cache, dx, grads))
        dx = np.concatenate(dxs)
    else:
        lengths = [len(span) for span in row_of]
        dx = np.repeat(dz / np.array(lengths)[:, None], lengths, axis=0)
    rows, inverse = np.unique(ids, return_inverse=True)
    grads.embedding[rows] = _row_sums(inverse, dx, len(rows))
    return loss, grads


def grad_check(
    params: ModelParams,
    batch: Sequence[TokenizedSequence],
    tau: float = 0.1,
    eps: float = 1e-4,
    n_coords: int = 200,
    seed: int = 0,
    include_placeholders: bool = False,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples at least `n_coords` parameter coordinates (all of them when the
    model is smaller than that); the relative error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise DataError(f"eps must be positive, got {eps}")
    cfg = LossConfig(tau=tau, include_placeholders=include_placeholders)
    loss0, grads = loss_and_param_grads(params, batch, cfg)
    if not np.isfinite(loss0):
        raise NumericError("loss is non-finite at the evaluation point")

    arrays = params.arrays()
    grad_arrays = grads.arrays()
    sizes = [a.size for a in arrays]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    if total <= n_coords:
        coords = np.arange(total)
    else:
        coords = rng.choice(total, size=n_coords, replace=False)

    offsets = np.cumsum([0] + sizes)
    max_rel = 0.0
    probe = params.copy()
    probe_arrays = probe.arrays()
    for flat in sorted(int(c) for c in coords):
        ai = int(np.searchsorted(offsets, flat, side="right") - 1)
        local = flat - offsets[ai]
        idx = np.unravel_index(local, probe_arrays[ai].shape)
        orig = probe_arrays[ai][idx]
        probe_arrays[ai][idx] = orig + eps
        loss_plus = loss_and_param_grads(probe, batch, cfg)[0]
        probe_arrays[ai][idx] = orig - eps
        loss_minus = loss_and_param_grads(probe, batch, cfg)[0]
        probe_arrays[ai][idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        analytic = grad_arrays[ai][idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel
