"""Concept-gated residual block: forward, exact backward, gradient check.

Forward, for input X (L x d), boost vector M (length L) and parameters
W_g (d x d), b_g (d):

    G = sigmoid(X @ W_g + b_g)          gate activations in (0, 1)
    R = X + G * (X * M[:, None])        boosted residual recalibration

The skip connection keeps an additive path for gradients: dX always contains
the incoming dR term, so the gate cannot silence upstream learning even when
G saturates at 0.  The backward pass below is the exact chain rule through
both the gate and the boosted product; it is verified against central finite
differences by ``gradient_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GateParams:
    w: np.ndarray  # (d, d)
    b: np.ndarray  # (d,)

    def __post_init__(self):
        self.w = np.asarray(self.w)
        self.b = np.asarray(self.b)
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise ValueError(f"gate weight must be square, got {self.w.shape}")
        if self.b.shape != (self.w.shape[0],):
            raise ValueError(f"gate bias shape {self.b.shape} does not match {self.w.shape}")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("gate parameters must be finite")

    @property
    def d(self) -> int:
        return self.w.shape[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), in place in z, as 0.5 + 0.5 tanh(z / 2): no overflow."""
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


def gate_forward(
    x: np.ndarray,
    boost: np.ndarray,
    params: GateParams,
    skip: bool = True,
) -> tuple[np.ndarray, tuple]:
    """Apply the gated residual block; returns ``(R, (X, G, M, skip))``, the
    output and the cache ``gate_backward`` reads: input (L, d), gate
    activations (L, d), boost (L,) and the skip flag.

    ``skip=False`` removes the residual connection (R = G * (X * M)), which
    is the "no residual" ablation path.
    """
    x = np.asarray(x)
    boost = np.asarray(boost)
    if x.ndim != 2:
        raise ValueError(f"input must be (L, d), got shape {x.shape}")
    if x.shape[1] != params.d:
        raise ValueError(f"input width {x.shape[1]} does not match gate dim {params.d}")
    if boost.shape != (x.shape[0],):
        raise ValueError(f"boost length {boost.shape} does not match L={x.shape[0]}")
    if not (1.0 <= boost.min(initial=1.0) and boost.max(initial=1.0) < np.inf):  # NaN fails
        raise ValueError("boost values must be finite and >= 1.0")

    gate = _sigmoid(x @ params.w + params.b)
    boosted = gate * (x * boost[:, None])
    r = x + boosted if skip else boosted
    return r, (x, gate, boost, skip)


def gate_backward(dr: np.ndarray, cache: tuple, params: GateParams) -> tuple:
    """Exact gradients ``(dX, dW_g, db_g)`` of the gated residual block, from
    the cache of ``gate_forward``.

    With U = X * M[:, None] and Z the pre-sigmoid activations:

        dG = dR * U
        dZ = dG * G * (1 - G)
        dX = dR + dR * G * M[:, None] + dZ @ W_g.T
        dW_g = X.T @ dZ
        db_g = sum over rows of dZ

    (the leading dR term in dX is dropped when the cache was built without
    the skip connection).
    """
    dr = np.asarray(dr)
    x, gate, boost, skip = cache
    if dr.shape != x.shape:
        raise ValueError(f"dR shape {dr.shape} does not match cached input {x.shape}")
    if gate.shape[1] != params.d:
        raise ValueError("cache does not match gate parameters")

    u = x * boost[:, None]
    dz = dr * u * gate * (1.0 - gate)
    dx = dr * gate * boost[:, None] + dz @ params.w.T
    if skip:
        dx = dx + dr
    return dx, x.T @ dz, dz.sum(axis=0)


def _relative_error(analytic: float, numeric: float) -> float:
    # absolute comparison below unit scale, relative above: keeps roundoff in
    # the central difference from masquerading as gradient error near zero
    denom = max(abs(analytic), abs(numeric), 1.0)
    return abs(analytic - numeric) / denom


def gradient_check(
    params: GateParams,
    x: np.ndarray,
    boost: np.ndarray,
    epsilon: float = 1e-5,
    skip: bool = True,
    corrupt: float = 0.0,
) -> float:
    """Worst relative error of analytic vs central-difference gradients.

    Uses the scalar loss f = sum(R) and perturbs every entry of X, W_g and
    b_g in turn.  Central differences are second-order accurate, so the
    returned error shrinks roughly like epsilon**2 until roundoff bites.
    ``corrupt`` is a negative-control hook: it offsets every analytic
    gradient so a healthy checker must report failure.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    x = np.asarray(x, dtype=np.float64)
    boost = np.asarray(boost, dtype=np.float64)
    params = GateParams(params.w.astype(np.float64), params.b.astype(np.float64))

    r, cache = gate_forward(x, boost, params, skip=skip)
    grads = [g + corrupt for g in gate_backward(np.ones_like(r), cache, params)]

    def loss(xv, wv, bv):
        out, _ = gate_forward(xv, boost, GateParams(wv, bv), skip=skip)
        return float(out.sum())

    worst = 0.0
    for tensor, analytic in zip((x, params.w, params.b), grads):
        flat = tensor.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = loss(x, params.w, params.b)
            flat[i] = orig - epsilon
            down = loss(x, params.w, params.b)
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            worst = max(worst, _relative_error(float(aflat[i]), numeric))
    return worst
