"""AdamW optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from meshseg.autodiff import Tensor

__all__ = ["AdamW"]


class AdamW:
    """Standard AdamW: bias-corrected Adam step plus decay applied directly
    to the parameters (not through the gradients).

    A step skips every parameter whose ``.grad`` is None, as
    ``torch.optim.AdamW`` does: it gets no moment update and no decay, so
    it does not shrink by ``1 - lr * weight_decay`` either. Its moments are
    allocated on its first gradient; the step counter is shared by all.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 5e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        # first and second moment accumulators of the parameters that have
        # had a gradient, and the shared step counter
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        """Update ``m``, ``v`` and ``p.data`` in place, bit-identical to
        ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps) - (lr * wd) * p``, for
        every parameter that has a gradient."""
        self.t += 1
        t = self.t
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            update = np.multiply(1.0 - self.beta1, g, out=np.empty_like(p.data))
            m *= self.beta1
            m += update
            np.multiply(1.0 - self.beta2, g, out=update)
            update *= g
            v *= self.beta2
            v += update
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bc1, out=update)
            update /= denom
            update *= self.lr
            decay = np.multiply(self.lr * self.weight_decay, p.data, out=denom)
            p.data -= update
            p.data -= decay
