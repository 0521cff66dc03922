"""
Exact reduced-process tables
============================

The reduced process Z(m, n) counts the generation-m individuals with
descendants alive at generation n.  Its pmf has the closed form

    P(Z(m, n) = j) = (1 - q_{n-m})^j / j! * f_m^{(j)}(q_{n-m}),

which is the s^j coefficient of f_m(q + (1-q)s), q = q_{n-m}: m series
composition steps give a whole row, at any order.  Joining it with a
small terminal population {0 < Z(n) <= C} only needs truncated
convolutions on top of the same rows.  All three quantities below are
exact up to the requested truncation error.
"""

import numpy as np

from gwreduced import (
    bounded_survival_prob,
    conditional_reduced_pmf,
    joint_reduced_bounded,
    make_builtin,
    mrca_distance_cdf,
    reduced_pmf,
)

law = make_builtin("ternary_uniform")
n, m, C = 200, 100, 12

# Unconditional reduced pmf at the halfway generation.  Tables store
# pmf[j-1] = P(count = j) for j = 1..j_max, where j_max is the first
# order whose rows hold all but epsilon of the mass; prob(j) is the
# accessor.  The first six rows:
table = reduced_pmf(law, m, n)
print(f"P(Z({m},{n}) = j), j = 1..6 of {table.j_max}:")
print(np.array2string(table.pmf[:6], precision=8))
print(f"mass accounted (against survival): {table.mass_accounted:.8f}")

# Joint with a bounded positive terminal size: P(Z(m,n)=j, 0<Z(n)<=C).
joint = joint_reduced_bounded(law, m, n, C)
print(f"\nP(Z({m},{n}) = j, 0 < Z({n}) <= {C}), j = 1..6 of {joint.j_max}:")
print(np.array2string(joint.pmf[:6], precision=8))

# The joint rows sum over j to the bare event probability, which is a
# useful internal consistency check.
H = bounded_survival_prob(law, n, C)
print(f"\nsum_j joint = {joint.pmf.sum():.12f}")
print(f"P(0 < Z({n}) <= {C}) = {H:.12f}")

# Conditioning on the event normalizes the row.
cond = conditional_reduced_pmf(law, m, n, C)
print(f"\nP(Z({m},{n}) = j | 0 < Z({n}) <= {C}), j = 1..6 of {cond.j_max}:")
print(np.array2string(cond.pmf[:6], precision=6))

# Distance to the most recent common ancestor of the survivors: the
# cdf of n - (last generation where the reduced process is still 1).
dist = np.arange(0, n + 1, 25)
cdf = mrca_distance_cdf(law, n, C, dist)
print(f"\nP(mrca distance <= u | 0 < Z({n}) <= {C}):")
for u, p in zip(dist, cdf):
    print(f"  u={u:<4d} {p:.6f}")
