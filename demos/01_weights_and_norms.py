"""Weights and weighted sequence norms.

Walks through the three weight kinds, the empirical admissibility
certificate, and the l^p / sup-graded norms the rest of the library is
built on.
"""

import numpy as np

from frameforge import Weight, eval_weight, sup_graded_norm, verify_weight_admissibility, weighted_norm

# Three weight kinds: polynomial scale, sub-exponential, exponential.
poly = Weight("moderate", k=2)
subexp = Weight("subexponential", beta=0.5, gamma=1.0)
expw = Weight("exponential", gamma=1.0)

print("mu(x) at x = 3:")
for w in (poly, subexp, expw):
    print(f"  {w.kind:16s} -> {eval_weight(w, 3.0):.6f}")

# Admissibility: the smallest constant C with mu(t+x) <= C env(t) mu(x)
# on a finite grid.  For correctly declared weights it hugs 1.
print("\nempirical admissibility constants (101 x 101 integer lattice):")
for w in (poly, subexp):
    print(f"  {w.kind:16s} -> C_emp = {verify_weight_admissibility(w):.6f}")

# A weight declared with the wrong order is caught by widening the grid:
# e^{|x|} pretending to be beta = 1/2 has an exploding constant.
print("\nmis-declared weight e^{|x|} checked against a beta=1/2 envelope:")
for extent in (5, 10, 20, 40):
    v = np.arange(-extent, extent + 1, dtype=float)
    t, x = np.meshgrid(v, v, indexing="ij")
    log_ratio = np.abs(t + x) - np.abs(t) ** 0.5 - np.abs(x)
    print(f"  grid [-{extent},{extent}]^2  ->  C_emp = {np.exp(log_ratio.max()):.4g}")

# Weighted norms: a term past the double range is formed in log space, so steep weights stay usable.
n = np.arange(1, 101, dtype=float)
c = 1.0 / n ** 2
print("\nnorms of c_n = 1/n^2, n <= 100:")
print(f"  l2 with (1+|x|)^1 weight : {weighted_norm(c, Weight('moderate', k=1), 2):.6f}")
print(f"  sup with (1+|x|)^1       : {weighted_norm(c, Weight('moderate', k=1), np.inf):.6f}")
print(f"  sup-graded poly level 1  : {sup_graded_norm(c, 'poly', 1):.6f}")

# Nested weights give nested norms: the graded ladder.
print("\nnorm ladder across moderate orders k = 0..4:")
ladder = [weighted_norm(c, Weight("moderate", k=k), 2) for k in range(5)]
print("  " + "  ".join(f"{x:.4f}" for x in ladder))
