"""
Iterated generating functions and survival decay
================================================

The population at generation n has generating function f_n, the n-fold
composition of the offspring pgf.  The series engine tracks truncated
power-series coefficients of f_n exactly, which gives extinction
probabilities, population pmfs, and high-order derivatives at interior
points without any sampling.
"""

import numpy as np

from gwreduced import extinction_prob, make_builtin, pmf_Zn
from gwreduced.series import iterates

law = make_builtin("poisson")
B = law.half_variance

# Extinction q_n = P(Z(n) = 0) climbs to 1; survival Q(n) = 1 - q_n
# decays like 1/(Bn) for every critical law with finite variance.
print("n     Q(n)        Q(n)*B*n")
for n in (10, 100, 1000):
    Q = 1.0 - extinction_prob(law, n)
    print(f"{n:<5d} {Q:.6e} {Q * B * n:.4f}")

# The population pmf at a fixed generation: coefficients c_k of f_n
# are P(Z(n) = k); whatever they miss of total mass one lies beyond
# degree K.
n = 50
series = pmf_Zn(law, n, 8)
print(f"\nP(Z({n}) = k) for k = 0..8:")
print(np.array2string(series.coeffs, precision=6, suppress_small=False))
print(f"mass beyond k=8: {1.0 - series.coeffs.sum():.6f}")

# Conditioned on survival the mass spreads out: the conditional mean
# of Z(n) grows like Bn (exponential limit of Z(n)/(Bn)).
for n in (100, 200, 400):
    K = int(20 * B * n)
    pmf = pmf_Zn(law, n, K).coeffs
    ks = np.arange(K + 1)
    mean_surviving = float(pmf[1:] @ ks[1:]) / float(pmf[1:].sum())
    print(f"n={n:<5d} E[Z(n) | Z(n)>0] / (Bn) = {mean_surviving / (B * n):.4f}")

# Derivatives at an extinction point q = q_r, streamed over all
# m = 0..n in one pass: the coefficients of f_m(q + (1-q)s) are
# (1-q)^k f_m^{(k)}(q) / k!, the reduced rows, and row k for k >= 1 is
# the chance of k lines at m with descendants r generations later.
q = extinction_prob(law, 20)
rows = list(iterates(law, 10, 3, q, 1.0 - q))
print(f"\n(1-q)^k f_m^(k)(q) / k! at q = q_20, m = 0, 5, 10 (columns k = 0..3):")
for m in (0, 5, 10):
    print(f"  m={m:<3d}", np.round(rows[m], 6))
