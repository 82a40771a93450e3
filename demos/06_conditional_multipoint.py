"""Conditional multipoint distributions as finite Fredholm Pfaffians.

Conditioned on seeing exactly N particles at time t, the joint law of any
subset of particle positions is Pf(J - chi K chi) for an explicit 2x2-block
kernel K built from skew-biorthogonal polynomials.  The threshold projection
chi makes the Pfaffian finite.  This demo builds the polynomial families,
evaluates conditional probabilities against the exact Markov oracle, and
runs the full-space reduction where the Pfaffian becomes a determinant.
"""

import numpy as np

from hsep.conditional import (
    build_skew_biorthogonal,
    conditional_distribution,
    fullspace_distribution,
)
from hsep.kernels import ModelParams
from hsep.markov_oracle import conditional_event_probability, oracle_distribution

params = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)

# The polynomial families: Phi solve a skew-biorthogonality against the
# universal kernel, Upsilon a biorthogonality against the initial-data
# kernels; the builder verifies every pairing and records the residuals.
fam = build_skew_biorthogonal(4, 2, (9, 7), params)
print("family residuals (N=4, M=2, y=(9,7)):", fam.residuals)
# the families are real polynomials carried in complex arithmetic
sites = range(1, 5)
print("Phi_1 values:", [round(fam.phi_value(1, x).real, 6) for x in sites])
print("Upsilon_3 values:", [round(fam.upsilon_value(1, x).real, 6) for x in sites])

# Conditional probabilities for empty initial data, N = 2.
dist = oracle_distribution((), 1.0, params, s_max=17)
print("\nP[X(p) > a | |X_t| = 2], empty initial data:")
for labels, thresholds in (((1,), (3,)), ((2,), (1,)), ((1, 2), (4, 2))):
    f = conditional_distribution(labels, thresholds, 2, 0, (), 1.0, params)
    o, _ = conditional_event_probability(dist, 2, labels, thresholds)
    print(f"  p={labels} a={thresholds}: pfaffian {f:.10f} oracle {o:.10f}")

# The odd case N = 3, M = 1 works through the same kernels.
dist31 = oracle_distribution((6,), 1.0, params, s_max=17)
print("\nN=3, M=1, y=(6):")
for labels, thresholds in (((2,), (2,)), ((2, 3), (4, 1))):
    f = conditional_distribution(labels, thresholds, 3, 1, (6,), 1.0, params)
    o, _ = conditional_event_probability(dist31, 3, labels, thresholds)
    print(f"  p={labels} a={thresholds}: pfaffian {f:.10f} oracle {o:.10f}")

# Thresholds at zero give probability 1, and the law is monotone in each a.
print(
    "\na = 0 normalization:",
    conditional_distribution((2,), (0,), 2, 0, (), 1.0, params),
)
vals = [
    conditional_distribution((2,), (a,), 2, 0, (), 1.0, params) for a in range(5)
]
print("monotone in a:", all(u >= v for u, v in zip(vals, vals[1:])), vals)

# With M = N the 22-block of the kernel vanishes and the Fredholm Pfaffian
# collapses to a Fredholm determinant: full-space TASEP.  The conditional
# law is then alpha-free (injection is conditioned away).
y = (5, 3)
det_path = fullspace_distribution((1, 2), (6, 4), 2, y, 1.0)
for alpha in (0.0, 0.5):
    p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=1.0)
    pf_path = conditional_distribution((1, 2), (6, 4), 2, 2, y, 1.0, p)
    print(f"\nM=N at alpha={alpha}: Pf path {pf_path:.12f} det path {det_path:.12f}")

# Full-space initial data may live anywhere on Z; the law is translation
# covariant.
v1 = fullspace_distribution((1, 2), (6, 4), 2, (5, 3), 1.0)
v2 = fullspace_distribution((1, 2), (-1, -3), 2, (-2, -4), 1.0)
print("\ntranslation covariance check:", abs(v1 - v2))
