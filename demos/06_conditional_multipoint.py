"""Conditional multipoint distributions as finite Fredholm Pfaffians.

Conditioned on seeing exactly N particles at time t, the joint law of any
subset of particle positions is Pf(J - chi K chi) for an explicit 2x2-block
kernel K.  Its finite-rank part depends on the kernel pairings only through
the inverse of their bordered Gram matrix G, so it is one linear solve; the
paper's skew-biorthogonal polynomials are one factorization of G^-1.  The
threshold projection chi makes the Pfaffian finite.  The library's
`conditional_distribution` evaluates the same law as a ratio of two joint
distributions, each one Pfaffian; it needs no G and covers every parity of
N + M.  This demo prints the Gram certificate, compares kernel blocks with a
brute-force construction, evaluates conditional probabilities on both paths
against the exact Markov oracle, and runs the full-space reduction where the
Pfaffian becomes a determinant.
"""

import numpy as np

from hsep.conditional import (
    build_skew_biorthogonal,
    conditional_distribution,
    conditional_kernel,
    correlation_kernel_bruteforce,
    fullspace_distribution,
    moment_matrix,
)
from hsep.kernels import ModelParams
from hsep.markov_oracle import conditional_event_probability, oracle_distribution
from hsep.pfaffian import skew_borel

params = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)

# The bordered Gram matrix G = [[N, P], [-P^T, 0]] of the Psi pairings
# (script-N) and the initial-data pairings (script-P).  The condition number
# of its equilibrated form is the certificate, and an ill-conditioned G is
# refused.
gram = build_skew_biorthogonal(4, 2, (9, 7), params)
print("Gram certificate (N=4, M=2, y=(9,7)):", gram.residuals)
p04 = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=0.4)
try:
    build_skew_biorthogonal(4, 0, (), p04)
except ArithmeticError as exc:
    print("N=4, M=0, t=0.4 refused:", exc)
print(
    "  the ratio there, P[X(1) > 4 | |X_t| = 4]:",
    conditional_distribution((1,), (4,), 4, 0, (), 0.4, p04),
)

# At M = 0, G is the moment matrix script-N.  Its skew-Borel factorization
# N = R J R^T gives N^-1 = R^-T J^-1 R^-1: the rows of R^-1 are the
# skew-biorthogonal Phi, one way to factor the inverse the kernel solves with.
nmat = moment_matrix(4, params)
fac = skew_borel(nmat)
rinv = np.linalg.inv(fac.r)
via_phi = rinv.T @ np.linalg.inv(fac.j) @ rinv
ninv = np.linalg.inv(nmat)
print(
    "max |R^-T J^-1 R^-1 - N^-1| / max |N^-1| =",
    np.max(np.abs(via_phi - ninv)) / np.max(np.abs(ninv)),
)

# A kernel block against the dense (J + L)^-1 of the point process on a
# cut lattice, at M = N where every particle is in the initial data.
kern = conditional_kernel(2, 2, (5, 3), params)
brute = correlation_kernel_bruteforce(2, 2, (5, 3), params, 20)
blk, blk_brute = kern.block(1, 4, 2, 6), brute.kernel_block(1, 4, 2, 6)
print("K(1, 4; 2, 6), N=M=2, y=(5,3):\n", np.round(blk, 10))
print("largest difference from brute force:", np.max(np.abs(blk - blk_brute)))

# Conditional probabilities for empty initial data, N = 2.
dist = oracle_distribution((), 1.0, params, s_max=17)
print("\nP[X(p) > a | |X_t| = 2], empty initial data:")
kern20 = conditional_kernel(2, 0, (), params)
for labels, thresholds in (((1,), (3,)), ((2,), (1,)), ((1, 2), (4, 2))):
    f = conditional_distribution(labels, thresholds, 2, 0, (), 1.0, params)
    k = kern20.gap_probability(labels, thresholds)
    o, _ = conditional_event_probability(dist, 2, labels, thresholds)
    print(f"  p={labels} a={thresholds}: ratio {f:.10f} fredholm {k:.10f} oracle {o:.10f}")

# The odd case N = 3, M = 1 works through the same kernels.
dist31 = oracle_distribution((6,), 1.0, params, s_max=17)
kern31 = conditional_kernel(3, 1, (6,), params)
print("\nN=3, M=1, y=(6):")
for labels, thresholds in (((2,), (2,)), ((2, 3), (4, 1))):
    f = conditional_distribution(labels, thresholds, 3, 1, (6,), 1.0, params)
    k = kern31.gap_probability(labels, thresholds)
    o, _ = conditional_event_probability(dist31, 3, labels, thresholds)
    print(f"  p={labels} a={thresholds}: ratio {f:.10f} fredholm {k:.10f} oracle {o:.10f}")

# With N + M odd the kernel is not built; the ratio still answers.
dist30 = oracle_distribution((), 1.0, params, s_max=14)
print("\nN=3, M=0 (N + M odd):")
for labels, thresholds in (((1,), (4,)), ((2, 3), (4, 2))):
    f = conditional_distribution(labels, thresholds, 3, 0, (), 1.0, params)
    o, _ = conditional_event_probability(dist30, 3, labels, thresholds)
    print(f"  p={labels} a={thresholds}: ratio {f:.10f} oracle {o:.10f}")

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
det_path = fullspace_distribution((1, 2), (6, 4), y, 1.0)
for alpha in (0.0, 0.5):
    p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=1.0)
    pf_path = conditional_kernel(2, 2, y, p).gap_probability((1, 2), (6, 4))
    ratio = conditional_distribution((1, 2), (6, 4), 2, 2, y, 1.0, p)
    print(
        f"\nM=N at alpha={alpha}: Pf path {pf_path:.12f} ratio {ratio:.12f} "
        f"det path {det_path:.12f}"
    )

# Full-space initial data may live anywhere on Z; the law is translation
# covariant.
v1 = fullspace_distribution((1, 2), (6, 4), (5, 3), 1.0)
v2 = fullspace_distribution((1, 2), (-1, -3), (-2, -4), 1.0)
print("\ntranslation covariance check:", abs(v1 - v2))
