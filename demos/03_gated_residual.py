"""The concept-gated residual block and its exact gradients.

R = X + sigmoid(X W_g + b_g) * (X * M) amplifies boosted positions while the
skip connection keeps gradients flowing even when the gate saturates.  The
backward pass is the exact chain rule; central finite differences confirm it
to better than 1e-6 relative error.
"""

import numpy as np

from conceptqa import GateParams, gate_backward, gate_forward, gradient_check

rng = np.random.default_rng(0)
dim, seq_len = 6, 4

x = rng.standard_normal((seq_len, dim))
boost = np.array([1.0, 3.0, 1.0, 1.74])  # positions 1 and 3 carry concepts
params = GateParams(rng.standard_normal((dim, dim)) * 0.3, np.zeros(dim))

r, cache = gate_forward(x, boost, params)
print("=== amplification at boosted positions ===")
for i in range(seq_len):
    scale = np.linalg.norm(r[i]) / np.linalg.norm(x[i])
    print(f"  position {i}: M = {boost[i]:.2f}  |R|/|X| = {scale:.3f}")

print("\n=== identity limit: a saturated gate passes X through ===")
closed = GateParams(np.zeros((dim, dim)), np.full(dim, -40.0))
r_closed, _ = gate_forward(x, boost, closed)
print(f"  max |R - X| with b_g = -40: {np.max(np.abs(r_closed - x)):.2e}")

print("\n=== exact backward pass ===")
upstream = np.ones_like(r)
dx, dw, db = gate_backward(upstream, cache, params)
print(f"  dX shape {dx.shape}, dW_g shape {dw.shape}, db_g shape {db.shape}")
print(f"  the skip connection contributes dR unchanged: "
      f"min |dX| = {np.min(np.abs(dx)):.3f} (never vanishes)")

print("\n=== finite-difference verification ===")
for eps in (1e-3, 1e-4, 1e-5):
    err = gradient_check(params, x, boost, epsilon=eps)
    print(f"  epsilon = {eps:.0e}: worst relative error {err:.2e}")
print("the error falls roughly quadratically until roundoff dominates,")
print("which is the signature of a correct analytic gradient.")

print("\n=== the no-residual ablation drops the skip term ===")
r_skip, _ = gate_forward(x, boost, params, skip=True)
r_bare, _ = gate_forward(x, boost, params, skip=False)
print(f"  max |(R_full - R_bare) - X| = {np.max(np.abs(r_skip - r_bare - x)):.2e}")
