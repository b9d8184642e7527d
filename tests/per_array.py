"""The per-array optimizer that the one-vector step replaced, kept as the
reference the trainer's `_Adam` is tested against: the same update, run
array by array over `ModelParams.arrays()`."""

import numpy as np


class Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads):
        arrays = params.arrays()
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for a, g, m, v in zip(arrays, grads.arrays(), self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            a -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
