"""The finite-q transition probability as a nested multiple contour integral.

At general left-jump rate q the transition probability is an N-fold integral
over nested circles around w = 1 of a factorized integrand times the
hyperoctahedral symmetrization F_y.  This demo evaluates it by trapezoid
quadrature on a ladder of node counts (factor 1.5 per pass), verifies the eigenvector relation that makes the
formula solve the Kolmogorov equation, and checks the t = 0 orthogonality
and the vanishing permutation sum behind the initial condition.
"""

import numpy as np

from hsep.asep_integral import (
    V_constant,
    asep_transition_batch,
    eval_F,
    test_eigenvector_relation,
    test_tw_vanishing_sum,
)
from hsep.kernels import ModelParams
from hsep.markov_oracle import oracle_distribution

params = ModelParams(q=0.4, alpha=0.7, gamma=0.0, t=0.6)

# The symmetrized function F_y at a random complex alphabet: for empty data
# it collapses to alpha^N, and at y = (1) it has a one-line closed form.
rng = np.random.default_rng(2)
w = 0.3 + 0.25 * rng.normal(size=3) + 0.25j * rng.normal(size=3)
print("F_empty(w) - alpha^3 =", abs(eval_F((), w, params) - params.alpha**3))
closed = params.alpha**2 * sum(
    (1 - params.q) ** 2 * wi / ((1 - wi) * (1 - params.q * wi)) for wi in w
)
print("F_(1)(w) - closed form =", abs(eval_F((1,), w, params) - closed))
print("V_1 =", V_constant(1, params.q), "(= 1/2 for every q)")

# The eigenvector relation with the Markov generator is what propagates the
# integral in time; the residual is zero to solver precision.
for y in ((), (3, 2), (2, 1)):
    res = test_eigenvector_relation(y, list(w[: max(len(y), 2)]) + [0.4], params)
    print(f"generator eigenvector residual at y={y}: {res:.2e}")

# Transition probabilities for every 2-particle target at once, against the
# exact uniformization oracle.
dist = oracle_distribution((3, 1), 0.6, params, s_max=14)
xs = [(x1, x2) for x1 in range(2, 6) for x2 in range(1, x1)]
vals, diag = asep_transition_batch((3, 1), 2, xs, 0.6, params, nodes=24, tol=1e-8)
print(f"\nP((3,1) -> x) at q=0.4 ({diag['nodes']} nodes/dim):")
worst = 0.0
for x in xs:
    worst = max(worst, abs(vals[x] - dist.probability(x)))
    if x in ((4, 2), (5, 3), (2, 1)):
        print(f"  x={x}: integral {vals[x]:.10f} oracle {dist.probability(x):.10f}")
print("worst |integral - oracle| over all targets:", f"{worst:.2e}")

# At t = 0 the integral is the Kronecker delta in (x, y): the orthogonality
# that seeds the Kolmogorov equation.
p0 = ModelParams(q=0.4, alpha=0.7, gamma=0.0, t=0.0)
vals, _ = asep_transition_batch((3, 1), 2, xs, 0.0, p0, nodes=24, tol=1e-9)
print("\nt=0 orthogonality:")
print("  at x=y=(3,1):", vals[(3, 1)])
print("  off-diagonal max:", max(abs(v) for x, v in vals.items() if x != (3, 1)))

# Behind that orthogonality sits a genuinely nonzero-term permutation sum
# that vanishes identically (the Tracy-Widom mechanism).
for n, q in ((2, 0.4), (3, 0.2)):
    x = tuple(range(2 * n, 0, -2))
    y = tuple(v + 1 for v in x)
    s = test_tw_vanishing_sum(x, y, ModelParams(q=q, alpha=0.7, gamma=0.0, t=1.0))
    print(f"vanishing sum over S_{n} minus identity: {s:.2e}")
