"""Quotient-fan combinatorics through the rank-2 Gale criterion.

The quotient fans live in dimension n-2, but their maximal cones are
decided entirely downstairs: dropping a column pair of the Gale matrix
spans a maximal cone exactly when the chamber point lies in the relative
interior of the cone over the matching weight columns. Inserting the ray
through the sum of the last block's columns then refines the fan.
"""

import itertools

from coxpres import Params, Fan, GalePair, gale_cone_test, gale_matrix_P, \
    stellar_subdivide, weight_matrices
from coxpres.collineation import barycenter_ray

p = Params(3, 3)
q, _ = weight_matrices(p)
pm = gale_matrix_P(p)
n = p.n

# GalePair checks P @ Q^T = 0 once; every cone test below relies on it
gale = GalePair(pm, q)
print(f"Gale matrix: {pm.rows} x {pm.cols}, with P @ Q^T = 0 (checked once)")

pairs = list(itertools.combinations(range(n), 2))
acc1 = [pr for pr in pairs if gale_cone_test(gale, (2, 1), pr)]
acc2 = [pr for pr in pairs if gale_cone_test(gale, (2, -1), pr)]
print(f"column pairs tested: {len(pairs)}")
print(f"maximal cones of the first quotient fan:  {len(acc1)} "
      f"(= a+ * (a0 + a-) = {p.a_plus * (p.a_zero + p.a_minus)})")
print(f"maximal cones of the second quotient fan: {len(acc2)} "
      f"(= a- * (a0 + a+) = {p.a_minus * (p.a_zero + p.a_plus)})")

fan1 = Fan(n - 2, tuple(pm.columns()),
           tuple(tuple(i for i in range(n) if i not in pr) for pr in acc1),
           simplicial=True)
fan1.validate()

rho = barycenter_ray(p)
print(f"\ninserted ray (sum of the last {p.a_minus} columns): {rho}")
sub = stellar_subdivide(fan1, tuple(range(n - p.a_minus, n)), rho)
untouched = p.a_plus * p.a_minus
split = p.a_plus * p.a_zero * p.a_minus
print(f"after subdivision: {len(sub.maximal_cones)} maximal cones "
      f"(= {untouched} untouched + {p.a_plus * p.a_zero} x {p.a_minus} split "
      f"= {untouched + split})")
sub.validate()
print("subdivided fan is simplicial and validates")
