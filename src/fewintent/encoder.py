"""Token-level encoder for utterance + candidate-slate sequences.

The backbone is deliberately small and fully differentiable by hand: an
embedding lookup, optional single self-attention layer, span mean pooling, and
a shared MLP projector applied to the utterance span and every label slot.
All gradients are analytic and checked against central finite differences.

This module owns the parameter layout (`param_shapes`): every `ModelParams`
array is a view of one float64 vector, which the optimizer, checkpoints,
`grad_check` and the label index each handle as one array.

Training runs one batch kernel (`loss_and_param_grads`): one projector pass,
array loss, backward pass and embedding scatter per batch, with each distinct
span of an attention-free batch encoded once. Every path pools a span to the
mean of its token rows with `ndarray.mean`'s bits.

The encoder has no positional signal, so equal tokens in a sequence have
equal query rows. Attention therefore runs over a sequence's distinct tokens
as queries and every position as a key and value (`_attended`). Duplicate
keys stay separate columns: merging them with a log-count bias would reorder
each softmax row's sum.

With attention, training, `encode` and prediction (`encode_sequences`)
share one forward pass: each sequence is attended on its own, then the spans
of all the sequences are pooled in one `_pool` call and projected in one
`_project` call (`_forward`). Both are row-exact, so a span's rows have the
same bits in a batch of any size as in its sequence alone. Forward-only
callers drop each sequence's attention backprop cache as they go.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import Dataset, IntentLabel, check_label_ids
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
    pairs lay out, each text tokenized once. Raises what `tokenize` raises;
    each distinct label list must pass `check_label_ids`, and every slot
    must hold `PLACEHOLDER` or an intent id of its own labels."""
    ids: dict[str, tuple[int, ...]] = {}
    checked = None  # the label list last checked; pairs of one inventory come in runs
    for plan, labels in plans:
        if labels is not checked:
            check_label_ids(labels)
            checked = labels
        text = plan.utterance.text
        if text not in ids:
            ids[text] = tuple(utterance_token_ids(text, vocab))
        for intent in plan.group.slots:
            if intent == PLACEHOLDER:
                continue
            if not 0 <= intent < len(labels):
                raise DataError(f"plan slot names intent {intent}, outside its {len(labels)} labels")
            lab = labels[intent]
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


def param_shapes(vocab_size: int, dims: Sequence[int], attention: bool) -> list[tuple[int, ...]]:
    """Each parameter array's shape in `ModelParams.flat` order, from the
    layer widths `dims` (embedding first): the embedding table, each projector
    layer's weights then bias, then with attention the q, k and v weights."""
    if len(dims) < 2 or min(dims) < 1 or dims[-1] < 2:  # cosine needs two output dimensions
        raise DataError(f"layer widths {list(dims)}: need a projector layer, widths >= 1, output >= 2")
    layers = [shape for d_in, d_out in zip(dims, dims[1:]) for shape in ((d_in, d_out), (d_out,))]
    return [(vocab_size, dims[0]), *layers, *[(dims[0], dims[0])] * (3 if attention else 0)]


@dataclass(eq=False)
class ModelParams:
    """Trainable state: embedding table, shared projector, optional attention.
    The constructor copies the arrays into `flat`, one float64 vector, and each
    array is then a view of it (`param_shapes`): edit them in place."""

    embedding: np.ndarray  # (vocab, d_emb)
    proj_weights: tuple[np.ndarray, ...]  # layer i: (d_in_i, d_out_i)
    proj_biases: tuple[np.ndarray, ...]
    attn_q: np.ndarray | None = None  # (d_emb, d_emb), all three set or none
    attn_k: np.ndarray | None = None
    attn_v: np.ndarray | None = None

    def __post_init__(self):
        attn = [a for a in (self.attn_q, self.attn_k, self.attn_v) if a is not None]
        arrays = [self.embedding, *chain.from_iterable(zip(self.proj_weights, self.proj_biases)), *attn]
        dims = [np.shape(a)[-1] for a in (self.embedding, *self.proj_weights)]
        shapes = [np.shape(a) for a in arrays]
        if shapes != param_shapes(len(self.embedding), dims, bool(attn)):
            raise DataError(f"parameter shapes {shapes} do not fit layer widths {dims}")
        flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self._bind(flat, len(self.embedding), dims, bool(attn))

    @classmethod
    def of_flat(cls, flat: np.ndarray, vocab_size: int, dims: Sequence[int], attention: bool) -> ModelParams:
        """Parameters viewing `flat`, of the total size `param_shapes` gives."""
        params = cls.__new__(cls)
        params._bind(flat, vocab_size, dims, attention)
        return params

    def _bind(self, flat: np.ndarray, vocab_size: int, dims: Sequence[int], attention: bool):
        shapes = param_shapes(vocab_size, dims, attention)
        ends = list(accumulate(map(math.prod, shapes), initial=0))
        self.flat, self._views = flat, [flat[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes)]
        self.embedding, *layers = self._views[: len(dims) * 2 - 1]
        self.proj_weights, self.proj_biases = tuple(layers[::2]), tuple(layers[1::2])
        self.attn_q, self.attn_k, self.attn_v = self._views[len(dims) * 2 - 1 :] or (None, None, None)

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
    def dims(self) -> tuple[int, ...]:
        """The layer widths, the embedding width first."""
        return (self.d_emb, *(w.shape[1] for w in self.proj_weights))

    @property
    def has_attention(self) -> bool:
        return self.attn_q is not None

    @property
    def projector(self) -> np.ndarray:
        """The projector's weights and biases: one contiguous view of `flat`."""
        start = self.embedding.size
        return self.flat[start : start + sum(a.size for a in (*self.proj_weights, *self.proj_biases))]

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays, in `flat` order (shared with gradients)."""
        return list(self._views)

    def copy(self) -> ModelParams:
        return ModelParams.of_flat(self.flat.copy(), self.vocab_size, self.dims, self.has_attention)

    def zeros_like(self) -> ModelParams:
        return ModelParams.of_flat(np.zeros_like(self.flat), self.vocab_size, self.dims, self.has_attention)


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
        index = np.fromiter(chain.from_iterable([spans[r] for r in rows]), np.intp, len(rows) * n)
        out[rows] = x[index.reshape(len(rows), n)].sum(axis=1) / n
    return out


def _spans(seq: TokenizedSequence) -> list[tuple[int, int]]:
    return [seq.utterance_span, *seq.slot_spans]


def _row_sums(index: Sequence[int], values: np.ndarray, n_rows: int) -> np.ndarray:
    """The rows of `values` summed by `index` into `n_rows` rows, in one
    `np.bincount`: the bits of ``np.add.at`` on zeros."""
    d = values.shape[1]
    flat = (np.asarray(index)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def _attended(params: ModelParams, token_ids: Sequence[int]):
    """One sequence's distinct token ids (ascending), every position's row
    after the optional attention layer, and the layer's backprop cache.

    The distinct tokens are the queries and every position is a key and a
    value, so each softmax row sums the same T columns in the same order as
    a layer with one query per position.
    """
    ids = sorted(set(token_ids))
    index = dict(zip(ids, range(len(ids))))
    inverse = np.fromiter(map(index.__getitem__, token_ids), np.intp, len(token_ids))
    x = params.embedding.take(ids, axis=0)
    if not params.has_attention:
        return ids, x.take(inverse, axis=0), None
    scale = 1.0 / np.sqrt(params.d_emb)
    q = x @ params.attn_q
    k = (x @ params.attn_k).take(inverse, axis=0)
    v = (x @ params.attn_v).take(inverse, axis=0)
    att = _softmax_rows((q @ k.T) * scale)
    return ids, (x + att @ v).take(inverse, axis=0), (x, inverse, q, k, v, att, scale)


def _attend_backward(params: ModelParams, cache, dy: np.ndarray, grads: ModelParams) -> np.ndarray:
    """Accumulate attention gradients; returns dL/dx over the sequence's
    distinct tokens from dL/dy over its positions."""
    x, inverse, q, k, v, att, scale = cache
    # A product with `onehot` sums each distinct token's position rows:
    # every other position adds an exact zero.
    onehot = np.zeros((len(x), len(inverse)))
    onehot[inverse, np.arange(len(inverse))] = 1.0
    g = onehot @ dy
    da = g @ v.T
    ds = att * (da - (da * att).sum(axis=1, keepdims=True))
    dq = ds @ k * scale
    dk = onehot @ (ds.T @ q * scale)
    dv = onehot @ (att.T @ g)
    grads.attn_q += x.T @ dq
    grads.attn_k += x.T @ dk
    grads.attn_v += x.T @ dv
    return g + (dq @ params.attn_q.T + dk @ params.attn_k.T + dv @ params.attn_v.T)


def _project_backward(params: ModelParams, acts: list[np.ndarray], g: np.ndarray, grads: ModelParams):
    """Accumulate projector gradients; returns dL/dz from dL/dh over the same rows."""
    for i in range(len(params.proj_weights) - 1, -1, -1):
        x_in, dw, db = acts[i], grads.proj_weights[i], grads.proj_biases[i]
        dw += x_in.T @ g
        db += g.sum(axis=0)
        g = g @ params.proj_weights[i].T
        if i > 0:
            g = g * (1.0 - x_in * x_in)  # tanh'
    return g


def _forward(params: ModelParams, seqs: Sequence[TokenizedSequence], rows: Sequence[np.ndarray]):
    """The spans of every sequence pooled in one `_pool` call and projected
    in one `_project` call, from `rows`, each sequence's position rows after
    the optional attention layer (`_attended`, run on each sequence on its
    own). Both calls are row-exact, so a span's rows have the bits they have
    when its sequence runs alone.

    Returns each sequence's first position in the stacked rows followed by
    their total, the spans over those rows (per sequence its utterance, then
    its slots), and `_project`'s layer inputs and output, one row per span.
    """
    starts = np.cumsum([0] + [len(seq.token_ids) for seq in seqs]).tolist()
    spans = [range(start + s, start + e) for seq, start in zip(seqs, starts) for s, e in _spans(seq)]
    acts, h = _project(params, _pool(np.concatenate(rows), spans))
    return starts, spans, acts, h


def _attended_rows(params: ModelParams, seqs: Sequence[TokenizedSequence]) -> list[np.ndarray]:
    """Each sequence's position rows after `_attended`, without the backprop
    caches, which a forward-only caller would otherwise hold for all of them."""
    return [_attended(params, seq.token_ids)[1] for seq in seqs]


def encode(params: ModelParams, seq: TokenizedSequence) -> SequenceEmbeddings:
    """Span mean pooling over token embeddings, then the shared projector."""
    acts, h = _forward(params, [seq], _attended_rows(params, [seq]))[2:]
    z = acts[0]
    return SequenceEmbeddings(z[0], z[1:], h[0], h[1:], seq.slot_intents, seq.gold_slot)


def encode_sequences(params: ModelParams, seqs: Sequence[TokenizedSequence]) -> np.ndarray:
    """The projected rows of many sequences, per sequence its utterance row
    and then its slot rows, each with the bits ``encode`` gives it."""
    return _forward(params, seqs, _attended_rows(params, seqs))[-1]


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
    own, over its distinct tokens, and keeps its own rows; this forward pass
    (`_forward`) is the one `encode` and attention prediction run.
    """
    if not batch:
        raise DataError("empty batch")
    if params.has_attention:
        attended = [_attended(params, seq.token_ids) for seq in batch]
        starts, spans, acts, h = _forward(params, batch, [rows for _, rows, _ in attended])
        firsts = np.cumsum([0] + [1 + len(seq.slot_spans) for seq in batch]).tolist()
        span_rows = [range(first, end) for first, end in zip(firsts, firsts[1:])]
    else:
        row_of: dict[tuple[int, ...], int] = {}
        span_rows = [
            [row_of.setdefault(seq.token_ids[s:e], len(row_of)) for s, e in _spans(seq)]
            for seq in batch
        ]
        spans = list(row_of)
        acts, h = _project(params, _pool(params.embedding, spans))
    # Each sequence's utterance row, then its slot rows; a sequence with
    # fewer slots is padded with row 0, which its candidate mask leaves out.
    table = np.zeros((len(batch), max(map(len, span_rows))), dtype=np.intp)
    for row, rows in zip(table, span_rows):
        row[: len(rows)] = rows

    candidates, gold = loss_targets(batch)
    loss, dh_u, dh_slots = batch_loss(h[table[:, 0]], h[table[:, 1:]], candidates, gold, cfg)
    dh = np.concatenate([dh_u[:, None], dh_slots], axis=1).reshape(-1, h.shape[1])
    grads = params.zeros_like()
    dz = _project_backward(params, acts, _row_sums(table.ravel(), dh, len(h)), grads)

    # Each span entry's share of its row's gradient, and the row of `x` it pooled.
    lengths = [len(span) for span in spans]
    dx = np.repeat(dz / np.array(lengths)[:, None], lengths, axis=0)
    entry_rows = [r for span in spans for r in span]
    if params.has_attention:
        dy = np.zeros((starts[-1], params.d_emb))
        dy[entry_rows] = dx
        dx = np.concatenate([
            _attend_backward(params, cache, dy[start:end], grads)
            for (_, _, cache), start, end in zip(attended, starts, starts[1:])
        ])
        token_ids = [t for distinct_ids, *_ in attended for t in distinct_ids]
    else:
        token_ids = entry_rows  # rows of the embedding table
    rows, inverse = np.unique(token_ids, return_inverse=True)
    grads.embedding[rows] = _row_sums(inverse, dx, len(rows))
    return loss, grads


def grad_check(
    params: ModelParams,
    batch: Sequence[TokenizedSequence],
    tau: float = 0.1,
    eps: float = 1e-4,
    n_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples at least `n_coords` parameter coordinates (all of them when the
    model is smaller than that); the relative error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise DataError(f"eps must be positive, got {eps}")
    cfg = LossConfig(tau=tau)
    loss0, grads = loss_and_param_grads(params, batch, cfg)
    if not np.isfinite(loss0):
        raise NumericError("loss is non-finite at the evaluation point")

    total = params.flat.size
    rng = np.random.default_rng(seed)
    coords = np.arange(total) if total <= n_coords else rng.choice(total, size=n_coords, replace=False)

    max_rel = 0.0
    probe = params.copy()
    for i in sorted(int(c) for c in coords):
        orig = probe.flat[i]
        probe.flat[i] = orig + eps
        loss_plus = loss_and_param_grads(probe, batch, cfg)[0]
        probe.flat[i] = orig - eps
        loss_minus = loss_and_param_grads(probe, batch, cfg)[0]
        probe.flat[i] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        analytic = grads.flat[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel
