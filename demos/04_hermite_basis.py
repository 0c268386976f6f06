"""The Hermite orthonormal basis layer.

Stable evaluation at any order, exact quadrature, projection of test
functions (closed form for Gaussians, quadrature for sampled functions),
and classification of coefficient decay.
"""

import numpy as np

from frameforge import HermiteContext, TestFunction, classify_coefficient_decay, hermite_eval, project

ctx = HermiteContext(nmax=128)
print(f"context: nmax = {ctx.nmax}, quadrature order = {ctx.quad_order}")

# Basis values stay finite at every order and argument; far outside the
# turning point they underflow cleanly to zero.
print(f"h_1(0)   = {hermite_eval(ctx, 1, 0.0):.12f}   (pi^-1/4 = {np.pi ** -0.25:.12f})")
print(f"h_128(40)= {hermite_eval(ctx, 128, 40.0):.3e}")

# Orthonormality under the rule, the whole 128 x 128 Gram at once.
gram = (ctx.basis * ctx.weights[:, None]).T @ ctx.basis
print(f"max |Gram - I| over h_1..h_128: {np.max(np.abs(gram - np.eye(128))):.3e}")

# Projection: a Gaussian's coefficients come from their closed form and
# need no context.  The width-1 Gaussian IS the first basis function (up
# to normalization), so its coefficients are a single spike.
c1 = project(None, TestFunction.gaussian(1.0), 64)
print(f"\ngaussian(1): c_1 = {c1[0]:.12f} (pi^1/4 = {np.pi ** 0.25:.12f}),"
      f" max other = {np.max(np.abs(c1[1:])):.2e}")

# A narrower Gaussian spreads over the even-degree functions with
# geometric decay; the odd-degree coefficients vanish by parity.
c3 = project(None, TestFunction.gaussian(3.0), 64)
print(f"gaussian(3): first coefficients {np.round(c3[:6], 6)}")
print(f"  Parseval: sum c^2 = {np.sum(c3 ** 2):.12f} vs ||f||^2 = {np.sqrt(np.pi / 3):.12f}")

# A sampled function is projected by the context's quadrature, on its nodes.
sampled = TestFunction.sampled(ctx.nodes, np.exp(-1.5 * ctx.nodes ** 2))
print(f"  sampled on the rule: max |quadrature - closed form| = {np.max(np.abs(project(ctx, sampled, 64) - c3)):.1e}")

# Decay classification: a stable polynomial order plus rate fits over a
# grid of sub-exponential orders.
n = np.arange(1, 129, dtype=float)
for label, c in [("1/n^4", 1.0 / n ** 4), ("e^-n", np.exp(-n))]:
    rep = classify_coefficient_decay(c, beta_grid=(0.5, 1.0))
    rates = ", ".join(f"beta={f.beta}: gamma={f.gamma:.3f}" for f in rep.subexp)
    print(f"\n{label:6s} -> poly order {rep.poly_order}; {rates}")
