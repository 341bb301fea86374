"""AdamW optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from meshseg.autodiff import Tensor

__all__ = ["AdamW"]

#: Decay rates of the two moment estimates, and the guard of the denominator.
BETAS, EPS = (0.9, 0.999), 1e-8


class AdamW:
    """Standard AdamW: bias-corrected Adam step plus decay applied directly
    to the parameters (not through the gradients), with the moment decay
    rates ``BETAS`` and the guard ``EPS`` of ``torch.optim.AdamW``'s
    defaults.

    A step skips every parameter whose ``.grad`` is None, as
    ``torch.optim.AdamW`` does: it gets no moment update and no decay, so
    it does not shrink by ``1 - lr * weight_decay`` either. Its moments are
    allocated on its first gradient; the step counter is shared by all. A
    step consumes the gradients: each ``.grad`` is None afterwards, and an
    applied gradient is freed before the next parameter's update.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-5, weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
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
        ``p - lr * (m / bc1) / (sqrt(v / bc2) + EPS) - (lr * wd) * p``, for
        every parameter that has a gradient, and leave every ``.grad`` None.

        Each ``.grad`` is set to None as its update starts, so an applied
        gradient is freed before the next parameter's update: the step holds
        the moments, the gradients not yet applied and the one in use."""
        self.t += 1
        t = self.t
        b1, b2 = BETAS
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            p.grad = None
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            update = np.multiply(1.0 - b1, g, out=np.empty_like(p.data))
            m *= b1
            m += update
            np.multiply(1.0 - b2, g, out=update)
            update *= g
            v *= b2
            v += update
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += EPS
            np.divide(m, bc1, out=update)
            update /= denom
            update *= self.lr
            decay = np.multiply(self.lr * self.weight_decay, p.data, out=denom)
            p.data -= update
            p.data -= decay
