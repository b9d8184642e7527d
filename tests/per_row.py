"""The per-row scoring and ranking paths that the blocked `cosine_sim` and
the rankings built on read replaced, kept as the references they are
tested against: one (L, d) product per utterance row, and one `np.lexsort`
per score row, by score descending, then intent id ascending."""

import numpy as np


def cosine_sim(u, v):
    u, v = np.asarray(u), np.asarray(v)
    us, vs = np.atleast_2d(u), np.atleast_2d(v)
    nu = np.sqrt((us * us).sum(axis=-1))
    nv = np.sqrt((vs * vs).sum(axis=-1))
    out = np.empty((len(us), len(vs)))
    for i, row in enumerate(us):
        out[i] = (vs * row).sum(axis=-1)
    out /= nu[:, None] * nv
    scores = np.clip(out, -1.0, 1.0, out=out).reshape(u.shape[:-1] + v.shape[:-1])
    return float(scores) if scores.ndim == 0 else scores


def ranking(ids, row):
    order = np.lexsort((ids, -row))
    return tuple(zip(ids[order].tolist(), row[order].tolist()))
