"""Exact Groebner checks behind the presentation at (c, d) = (3, 3).

Runs the ideal-theoretic skeleton: dimension counts, saturation by the
blow-up variable, the toric kernel of the Segre-type monomial map, and the
renaming that turns both generator blocks into quadratic relations of
smaller Grassmannian cones. Saturation is shown twice: by Bayer's
criterion on one weighted basis, the route `coxpres verify` takes, and by
the auxiliary-variable elimination.
"""

from time import perf_counter

from coxpres import (Ideal, Params, cox_presentation, ideal_equal,
                     krull_dimension, normal_form, plucker_relations,
                     proof_ideals, saturate, segre_map, toric_kernel,
                     weighted_basis)

p = Params(3, 3)
pres = cox_presentation(p)
ring = pres.ring
ideal = Ideal(ring, pres.relations)

t0 = perf_counter()
gb = ideal.groebner()
print(f"reduced Groebner basis of the relation ideal: "
      f"{len(gb)} elements ({perf_counter() - t0:.2f}s)")

print(f"dimension of the zero set: {krull_dimension(ideal)} "
      f"(expected 2(c+d)-2 = {2 * (p.c + p.d) - 2})")

with_tinf = Ideal(ring, pres.relations + (ring.var('Tinf'),))
print(f"dimension after adding Tinf: {krull_dimension(with_tinf)} "
      f"(expected 2(c+d)-3 = {2 * (p.c + p.d) - 3})")

print(f"Tinf lies outside the ideal: "
      f"{bool(normal_form(ring.var('Tinf'), gb))}")

t0 = perf_counter()
# weights 2*row1 + row2 + row3 of the degree matrix, under which every
# relation is homogeneous; Tinf is the smallest variable of the basis
weights = [2 * a + b + c for a, b, c in pres.grading.matrix.columns()]
wb = weighted_basis(ideal, weights, "Tinf")
bayer = not any(g.leading_exps()[0] for g in wb)
print(f"saturation by Tinf returns the same ideal, by Bayer's criterion "
      f"(no leading term contains Tinf): {bayer} ({perf_counter() - t0:.2f}s)")

t0 = perf_counter()
sat = saturate(ideal, ring.var("Tinf"))
print(f"saturation by Tinf returns the same ideal, by elimination: "
      f"{ideal_equal(sat, ideal)} ({perf_counter() - t0:.2f}s)")

pi = proof_ideals(p)
sigma = segre_map(p)
t0 = perf_counter()
kernel = toric_kernel(sigma.exponent_matrix(), ring=sigma.source)
print(f"kernel of the Segre-type monomial map equals the "
      f"{len(pi.g)} split binomials: "
      f"{ideal_equal(kernel, Ideal(sigma.source, pi.g))} "
      f"({perf_counter() - t0:.2f}s)")

bp = Ideal(pi.b_prime_ring, pi.b_prime)
print(f"first generator block: dimension {krull_dimension(bp)} over "
      f"{pi.b_prime_ring.nvars} variables (cone over G(2,{p.c + 1}))")
renamed_ok = set(pi.b_prime_renamed) == set(
    plucker_relations(p.c + 1, pi.b_prime_renamed_ring))
print(f"after renaming, the block is exactly the quadratic relation set "
      f"of G(2,{p.c + 1}): {renamed_ok}")
