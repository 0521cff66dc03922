"""
Limiting laws of the conditioned reduced process
================================================

Two scaling regimes admit explicit limits for Z(m, n) conditioned on a
small positive terminal population.  With a sublinear window phi(n) and
m = n - x*phi(n), the limit depends only on x; with m = t*n and a bound
C = a*B*n, it depends on (t, a).  Both laws come as pmfs and as
generating functions, and the two representations agree term by term.
"""

import numpy as np

from gwreduced import (
    LimitQuery,
    Regime,
    classical_reduced_gf,
    tv_distance,
)

# Sublinear-window regime, indexed by the look-back factor x.  The
# value arrays start at j = 1 (a conditioned count is never zero).
small = LimitQuery(Regime.SMALL_PHI, x=1.0)
pmf = small.pmf_values()
print("sublinear window, x = 1:")
print("  p_1..p_6 =", np.round(pmf[:6], 6))
print("  mass kept =", f"{pmf.sum():.12f}")

# Duality: summing j -> s^j * p_j reproduces the closed-form gf.
s = 0.7
series = float(sum(s**j * p for j, p in enumerate(pmf, start=1)))
print(f"  gf(0.7) closed form {small.gf(s):.12f}  vs series {series:.12f}")

# Linear-band regime, indexed by time fraction t and band height a.
band = LimitQuery(Regime.LINEAR_BAND, t=0.5, a=1.0)
pmf_band = band.pmf_values()
print("\nlinear band, t = 0.5, a = 1:")
print("  p_1..p_6 =", np.round(pmf_band[:6], 6))
series = float(sum(s**j * p for j, p in enumerate(pmf_band, start=1)))
print(f"  gf(0.7) closed form {band.gf(s):.12f}  vs series {series:.12f}")

# As the band height a grows the conditioning event approaches plain
# survival, and the band gf collapses to the classical reduced-process
# limit E[s^{Z(tn,n)} | Z(n) > 0].
wide = LimitQuery(Regime.LINEAR_BAND, t=0.5, a=50.0)
print("\nband gf at a = 50 vs classical survival-conditioned gf:")
for s in (0.2, 0.5, 0.9):
    print(f"  s={s}: {wide.gf(s):.10f} vs {classical_reduced_gf(s, 0.5):.10f}")

# The two regimes meet where their parameters overlap: a tall band at
# early t looks nothing like a thin window, as the tv distance shows.
print("\ntv distance between the two x/t=0.5 laws:",
      round(tv_distance(small.pmf_values(),
                        LimitQuery(Regime.LINEAR_BAND, t=0.5, a=1.0).pmf_values()), 4))

# Limiting distances to the most recent common ancestor, one per regime.
# The ancestor is within look-back u exactly when a single reduced line
# is left there, so the cdf at u is p_1 of the law at that look-back:
# x = u in the window, t = 1 - u in the band.
print("\nmrca limit cdfs:")
print("  sublinear x=1   :", round(small.pmf(1), 6))
print("  band t=0.5, a=1 :", round(band.pmf(1), 6))
