"""
Offspring laws: built-ins and custom distributions
==================================================

Every computation in the package starts from a critical offspring law:
mean exactly 1, finite variance 2B.  Three built-ins cover the usual
test cases, and any finite-support pmf with unit mean works as a
custom law.
"""

import numpy as np

from gwreduced import make_builtin, make_custom, pgf_derivatives, pgf_value

# The three built-ins.  half_variance is B = Var(offspring)/2, the only
# constant the asymptotic formulas need.
for name in ("linear_fractional", "poisson", "ternary_uniform"):
    law = make_builtin(name)
    print(f"{law.label:20s} B={law.half_variance}")

# The generating function f(s) = E[s^children] evaluated pointwise.
lf = make_builtin("linear_fractional")
print("\nf(s) for the geometric-type law, f(s) = 1/(2-s):")
for s in (0.0, 0.5, 0.9):
    print(f"  f({s}) = {pgf_value(lf, s):.6f}")

# Derivatives of f at a point, orders 1..J in one call.
derivs = pgf_derivatives(lf, 0.5, 4)
print("\nf', f'', f''', f'''' at s=0.5:", np.round(derivs[1:], 4))

# A custom finite-support law: weights must sum to 1 and average to 1.
custom = make_custom([0.35, 0.35, 0.25, 0.05])
print(f"\ncustom law {custom.label}")
print(f"  B = {custom.half_variance:.4f}, max support = {len(custom.support_pmf) - 1}")

# Criticality is enforced: a supercritical pmf is rejected up front.
try:
    make_custom([0.2, 0.3, 0.5])
except Exception as exc:
    print(f"\nrejected non-critical pmf: {exc}")
