"""
Conditioned simulation against the exact tables
===============================================

The simulator grows forests under the offspring law, keeps replicates
that land in {0 < Z(n) <= C}, and records the terminal size, the
distance to the most recent common ancestor, and the reduced-process
count at requested generations.  Everything is reproducible from a
single seed and independent of the worker count.
"""

import numpy as np

from gwreduced import (
    bounded_survival_prob,
    conditional_reduced_pmf,
    empirical_pmf,
    make_builtin,
    run_conditioned_batch,
    tv_distance,
)

law = make_builtin("ternary_uniform")
n, C, m = 60, 15, 30

# Draw until 4000 replicates satisfy the conditioning event.
batch = run_conditioned_batch(law, n, C, (m,), target_accepted=4000, seed=7)
print(f"accepted {batch.accepted} of {batch.replicates} attempts")
print(f"acceptance rate {batch.acceptance_rate:.6f}")
print(f"exact event prob {bounded_survival_prob(law, n, C):.6f}")

# Empirical reduced-process pmf at generation m vs the exact table.
exact = conditional_reduced_pmf(law, m, n, C)
emp = empirical_pmf(batch.reduced_counts[:, 0], exact.j_max)
print(f"\nP(Z({m},{n}) = j | event), exact vs empirical:")
for j in range(1, 7):
    print(f"  j={j}  {exact.prob(j):.5f}  {emp[j - 1]:.5f}")
print(f"tv distance {tv_distance(emp, exact.pmf):.5f}")

# Terminal sizes respect the band by construction.
sizes = batch.terminal_sizes
print(f"\nterminal sizes: min={sizes.min()} max={sizes.max()} "
      f"mean={sizes.mean():.3f}")

# Ancestor distances concentrate deep in the tree for a tall band.
dist = batch.mrca_distances
print(f"mrca distance quartiles: {np.percentile(dist, [25, 50, 75])}")

# The same seed gives the same replicates regardless of how the work is
# chunked across workers.
again = run_conditioned_batch(law, n, C, (m,), target_accepted=4000, seed=7,
                              workers=3)
same = (np.array_equal(batch.terminal_sizes, again.terminal_sizes)
        and np.array_equal(batch.reduced_counts, again.reduced_counts))
print(f"\nworkers=1 and workers=3 agree replicate by replicate: {same}")
