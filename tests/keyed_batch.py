"""The attention-free batch kernel that the compiled span table replaced,
kept as the reference it is tested against bit for bit: each batch keys its
spans by token ids in a dict, in order of first appearance, lays out its
loss targets with `loss_targets`, and scatters the embedding gradient over
the batch's distinct token ids."""

import numpy as np

from fewintent.encoder import _padded, _pool, _project, _project_backward, _row_sums, _spans
from fewintent.errors import DataError
from fewintent.objective import batch_loss, loss_targets


def keyed_rows(batch):
    """The batch's distinct spans (token-id tuples) in order of first
    appearance, and each sequence's row of positions in them: its
    utterance, then its slots; a sequence with fewer slots is padded with
    row 0, which its candidate mask leaves out."""
    row_of = {}
    span_rows = [
        [row_of.setdefault(seq.token_ids[s:e], len(row_of)) for s, e in _spans(seq)]
        for seq in batch
    ]
    table = np.zeros((len(batch), max(map(len, span_rows))), dtype=np.intp)
    for row, rows in zip(table, span_rows):
        row[: len(rows)] = rows
    return list(row_of), table


def loss_and_param_grads(params, batch, cfg):
    """Batch-mean loss and parameter gradients of a list of `TokenizedSequence`s,
    for parameters without attention."""
    if not batch:
        raise DataError("empty batch")
    spans, table = keyed_rows(batch)
    acts, h = _project(params, _pool(params.embedding, *_padded(spans)))

    candidates, gold = loss_targets(batch)
    loss, dh_u, dh_slots = batch_loss(h[table[:, 0]], h[table[:, 1:]], candidates, gold, cfg)
    dh = np.concatenate([dh_u[:, None], dh_slots], axis=1).reshape(-1, h.shape[1])
    grads = params.zeros_like()
    dz = _project_backward(params, acts, _row_sums(table.ravel(), dh, len(h)), grads)

    lengths = [len(span) for span in spans]
    dx = np.repeat(dz / np.array(lengths)[:, None], lengths, axis=0)
    rows, inverse = np.unique([t for span in spans for t in span], return_inverse=True)
    grads.embedding[rows] = _row_sums(inverse, dx, len(rows))
    return loss, grads
