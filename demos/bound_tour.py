"""A guided tour of every bound on one small, fully visible input.

Two vectors in the plane plus a coefficient pair — small enough to check
each number by hand, rich enough that every bound family produces a
distinct ceiling.  Run it, read the table, and compare the slack columns:
the Gram-flavored ceilings are never looser than the norm-flavored ones,
and the classical max-row bound loses to the Frobenius one here.
"""

import math

from grambounds import (
    Vector,
    VectorFamily,
    bessel_sum,
    bessel_sum_bound,
    bombieri_bound,
    combination_norm_sq,
    combo_bound,
    frobenius_bound,
    power_mean_bound,
    refinement_chain,
    span_bound,
)

x = Vector([0.8, 0.6])
family = VectorFamily([[1.0, 0.0], [0.7, 0.7]])
coeffs = [1.0, -0.5]
P_VALUES = (1.0, 1.5, 2.0, math.inf)


def show(result):
    p = "-" if result.p is None else f"{result.p:g}"
    flavor = result.flavor or "-"
    slack = result.value - result.lhs
    print(f"  {result.bound_id:<12} p={p:<4} {flavor:<6} "
          f"lhs={result.lhs:10.6f}  value={result.value:10.6f}  slack={slack:9.6f}")


print("input: x =", x.coords.real, " family rows =")
print(family.vectors.real)
print()

print("combination ceilings for ||a1*y1 + a2*y2||^2, a =", coeffs)
print(f"  exact lhs = {combination_norm_sq(coeffs, family):.6f}")
for p in P_VALUES:
    show(span_bound(coeffs, family, p, "gram"))
    show(span_bound(coeffs, family, p, "norms"))
print()

mid, outer = refinement_chain(coeffs, family)
print("refinement chain: lhs <= middle <= outer")
print(f"  {combination_norm_sq(coeffs, family):.6f} <= {mid.value:.6f} <= {outer.value:.6f}")
print()

print("weighted-sum ceilings for |c1*(x,y1) + c2*(x,y2)|^2")
for p in P_VALUES:
    show(combo_bound(x, family, coeffs, p, "gram"))
print()

print(f"Bessel-sum ceilings for sum |(x,y_i)|^2 = {bessel_sum(x, family):.6f}")
show(bombieri_bound(x, family))
show(frobenius_bound(x, family))
for p in P_VALUES:
    show(bessel_sum_bound(x, family, p))
for p in (1.1, 1.5, 2.0):
    show(power_mean_bound(x, family, p))
print()
print("note: power-mean at p=2 reproduces the Frobenius value exactly —")
print("      same formula, same arithmetic path, same float.")
