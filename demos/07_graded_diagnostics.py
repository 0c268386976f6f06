"""Graded-norm diagnostics: the finite proxies for nested smooth spaces.

Norm profiles across grading levels, proven and sampled frame bounds per level,
expansion error curves, and distribution pairings with tail estimates.
"""

import numpy as np

from frameforge import (
    DistributionCoefficients,
    PerturbationSpec,
    build_perturbed_basis,
    expansion_error_curve,
    fframe_bounds,
    fframe_bounds_estimate,
    graded_profile,
    pair_distribution,
    property_pg_check,
    standard_sample_set,
)
from frameforge.hermite import HermiteContext, TestFunction, project

n = 256
ctx = HermiteContext(nmax=n)
system, _ = build_perturbed_basis(PerturbationSpec.constant([0.5], n=n), n)
f = project(ctx, TestFunction.gaussian(3.0), n)

# Norm profile of a rapidly decreasing object: finite at every level.
prof = graded_profile(f, "poly", levels=range(6))
print("graded profile of gaussian(3) coefficients:")
print("  " + "  ".join(f"k={k}: {v:.4g}" for k, v in zip(prof.levels, prof.norms)))

# Two-sided bounds per level: the proven Schur bracket of the graded frame
# bounds, and inside it the ratios reached by sample vectors.
samples = standard_sample_set(ctx, n, count=50, seed=0)
print("\ngraded frame bounds, proven bracket and empirical interval:")
for k in (0, 2, 4):
    lower, upper = fframe_bounds(system, "poly", k)
    lo, hi = fframe_bounds_estimate(system, samples, "poly", k)
    print(f"  level {k}: bracket [{lower:.4f}, {upper:.4f}]  samples [{lo:.4f}, {hi:.4f}]")

# Expansion error across checkpoints, per level: nonincreasing tails and
# exact reproduction at full truncation.
checkpoints = [8, 16, 32, 64, 128, 256]
print("\nexpansion error curves (rows: level k):")
for k in (0, 2, 4):
    errs = expansion_error_curve(f, system, "poly", k, checkpoints)
    print(f"  k={k}: " + "  ".join(f"{e:.2e}" for e in errs))

# Pairing against a polynomially growing functional, with a tail bound
# extrapolated from the classified decay of f.
idx = np.arange(1, n + 1, dtype=float)
b = DistributionCoefficients(b=idx, q=1.0, c=1.0)
out = pair_distribution(b, f, "poly")
print(f"\npairing <F, f> with F_n = n: value = {out.value.real:.10f}, tail bound = {out.tail_bound:.2e}")

# Decay-class transfer: analysis against a localized system preserves the
# coefficient decay class.
rep = property_pg_check(system, "subexp", trials=10, seed=1, beta=1.0)
print(f"\ndecay-class transfer check: {rep.matched}/{rep.total} classes preserved")
