"""The transition probability as a point process on interlacing arrays.

The q = 0 Pfaffian unfolds into a sum of Pfaffian weights over
Gelfand-Tsetlin patterns anchored at the target configuration; assigning
each pattern its weight defines a measure on triangular arrays that a dense
(J + L) matrix represents as a conditional Pfaffian L-ensemble.  This demo
walks the chain: patterns -> weights -> L-ensemble -> correlation kernel.
"""

import numpy as np

from hsep.conditional import correlation_kernel_bruteforce, conditional_kernel
from hsep.kernels import ModelParams
from hsep.pfaffian import pfaffian
from hsep.tasep_formulas import (
    enumerate_gt_patterns,
    gt_pattern_sum,
    tasep_transition_probability,
    w_measure,
)

params = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=0.8)

# Patterns with left edge (3, 1): row k has k entries, rows interlace.
pats = list(enumerate_gt_patterns((3, 1), 12))
print(f"GT patterns with left edge (3,1), entries <= 12: {len(pats)}")
print("first three:", [p.rows for p in pats[:3]])

# Summing the Pfaffian weights over all patterns recovers the one-shot
# Pfaffian transition probability (even, odd, and initial-data cases).
for (x, y) in (((3, 1), ()), ((4, 2, 1), ()), ((5, 2), (6, 4))):
    v, remainder = gt_pattern_sum(x, y, 0.8, params)
    f = tasep_transition_probability(y, x, 0.8, params)
    print(
        f"GT sum x={x} y={y}: {v:.12f} vs pfaffian {f:.12f} "
        f"(truncation remainder {remainder:.1e})"
    )

# The measure on triangular arrays vanishes off the interlacing set and
# equals the top-row Pfaffian weight on it.
print("\nW-measure on a non-interlacing array:", w_measure([(3,), (2, 2)], (), 2, params))
print("W-measure on a pattern:", w_measure([(3,), (1, 5)], (), 2, params))

# The dense L-ensemble represents the same measure: restricted Pfaffians of
# L are proportional to W across every configuration (wrong fiber counts
# vanish identically), and the correlation kernel comes from (J + L)^{-1}.
ens = correlation_kernel_bruteforce(2, 0, (), params, 6)
ratios = []
for rows in ([(3,), (1, 4)], [(3,), (2, 5)], [(4,), (1, 6)]):
    a = [(1, rows[0][0]), (2, rows[1][0]), (2, rows[1][1])]
    ratios.append(ens.pf_l_restricted(a) / w_measure(rows, (), 2, params))
print("\nPf[L|_(V u A)] / W over three patterns:", [f"{r:.6f}" for r in ratios])
print("wrong fiber count:", ens.pf_l_restricted([(1, 2), (1, 3), (2, 4)]))

# Correlation functions of the normalized measure are Pfaffians of the
# kernel K = J + (J+L)^{-1}|_XX; the analytic four-part kernel agrees.
kern = conditional_kernel(2, 0, (), params)
z1, z2 = (1, 2), (2, 3)
blk = np.zeros((4, 4))
for a, za in enumerate((z1, z2)):
    for b, zb in enumerate((z1, z2)):
        blk[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = ens.kernel_block(*za, *zb)
blk = (blk - blk.T) / 2
points = [(i, x) for i in (1, 2) for x in range(1, 7)]
from itertools import combinations

rho = 0.0
for r in range(len(points) + 1):
    for sub in combinations(points, r):
        if z1 in sub and z2 in sub:
            rho += ens.measure(list(sub))
print(f"\ncorrelation rho(z1, z2): brute {rho:.10f} vs Pf[K] {pfaffian(blk):.10f}")
wide = correlation_kernel_bruteforce(2, 0, (), params, 16)
print(
    "analytic kernel block matches brute force:",
    np.max(np.abs(wide.kernel_block(1, 2, 2, 3) - kern.block(1, 2, 2, 3))),
)
