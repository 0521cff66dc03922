"""
Most recent common ancestor of a small surviving population
===========================================================

Conditioned on 0 < Z(n) <= C, the distance from generation n back to
the most recent common ancestor of the survivors has an exact cdf
computable from the reduced-process tables, and explicit limits in both
scaling regimes.  The ancestor is within look-back u exactly when a
single reduced line is left there, so each limit is the single-line
probability p_1 of the limit law at that look-back.  This script shows
the exact curve marching onto the limit as n grows.
"""

import numpy as np

from gwreduced import LimitQuery, Regime, make_builtin, mrca_distance_cdf

law = make_builtin("linear_fractional")
B = law.half_variance

# Sublinear-window regime: C = B*phi(n) with phi(n) = ceil(sqrt(n)),
# distances measured in units of phi(n).  The limit is p_1 of the window
# law at x, x*(1 - e^{-1/x}).
print("window regime, u = x * phi(n), phi = ceil(sqrt(n)):")
print("n      x=0.5      x=1.0      x=2.0")
for n in (200, 800, 3200):
    phi = int(np.ceil(np.sqrt(n)))
    C = int(B * phi)
    xs = np.array([0.5, 1.0, 2.0])
    cdf = mrca_distance_cdf(law, n, C, (xs * phi).astype(int))
    print(f"{n:<6d} " + "  ".join(f"{v:.6f}" for v in cdf))
limit = [LimitQuery(Regime.SMALL_PHI, x=x).pmf(1) for x in (0.5, 1.0, 2.0)]
print("limit  " + "  ".join(f"{v:.6f}" for v in limit))

# Linear-band regime: C = a*B*n, distances u = t*n.  The limit is p_1 of
# the band law at time fraction 1 - t, t*(1 - e^{-a/t}) / (1 - e^{-a}).
a = 1.0
print("\nband regime, u = t * n, C = a*B*n, a = 1:")
print("n      t=0.25     t=0.50     t=0.75")
for n in (100, 400, 1600):
    C = int(a * B * n)
    ts = np.array([0.25, 0.5, 0.75])
    cdf = mrca_distance_cdf(law, n, C, (ts * n).astype(int))
    print(f"{n:<6d} " + "  ".join(f"{v:.6f}" for v in cdf))
limit = [LimitQuery(Regime.LINEAR_BAND, t=1.0 - t, a=a).pmf(1)
         for t in (0.25, 0.5, 0.75)]
print("limit  " + "  ".join(f"{v:.6f}" for v in limit))

# Reading: with a bounded terminal population the ancestor sits a
# macroscopic fraction of n back, essentially uniform on (0, n) once
# the band is tall, and pinned near n*(1 - o(1)) when the window is
# thin, in distance units of phi(n).
