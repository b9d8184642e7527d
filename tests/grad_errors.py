"""Central-difference gradient errors, relative and absolute.

`encoder.grad_check` reports the worst relative error, whose denominator
has a 1e-8 floor: a coordinate whose gradient is near 1e-9 can read above
1e-4 although analytic and numeric values agree to rounding. `errors`
measures the same coordinates the same way and reports the worst absolute
error beside it, so a test can tell such a reading from a wrong gradient.
"""

import numpy as np

from fewintent.encoder import loss_and_param_grads
from fewintent.objective import LossConfig


def errors(params, batch, tau=0.1, eps=1e-4, n_coords=200, seed=0):
    """(max relative, max absolute) error between the analytic gradient and
    central differences, over the coordinates `grad_check` samples."""
    cfg = LossConfig(tau=tau)
    grads = loss_and_param_grads(params, batch, cfg)[1].flat
    total = params.flat.size
    coords = np.arange(total) if total <= n_coords else np.random.default_rng(seed).choice(
        total, size=n_coords, replace=False)
    probe = params.copy()
    worst_rel = worst_abs = 0.0
    for i in sorted(int(c) for c in coords):
        orig = probe.flat[i]
        probe.flat[i] = orig + eps
        loss_plus = loss_and_param_grads(probe, batch, cfg)[0]
        probe.flat[i] = orig - eps
        loss_minus = loss_and_param_grads(probe, batch, cfg)[0]
        probe.flat[i] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        diff = abs(grads[i] - numeric)
        worst_rel = max(worst_rel, diff / max(abs(grads[i]), abs(numeric), 1e-8))
        worst_abs = max(worst_abs, diff)
    return worst_rel, worst_abs
