import itertools
from fractions import Fraction

import pytest

from coxpres import checks, collineation
from coxpres.collineation import (Params, TINF, WitnessPoint,
                                  block_pairs, cox_presentation,
                                  expected_sigma_image, gale_matrix_P,
                                  laurent_degree, local_equation_exponents,
                                  local_equation_invariance, orbit_cone,
                                  pair_name, plucker_relations, plucker_ring,
                                  plucker_residuals, proof_ideals,
                                  pullback_and_cancel, pullback_map,
                                  segre_grading, segre_map,
                                  weight_matrices, witness_points)
from coxpres.geometry import Cone
from coxpres.intlinalg import kernel_basis, rank, row_space_hnf
from coxpres.polyring import multidegree


def comb(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_params_validation():
    with pytest.raises(ValueError):
        Params(1, 3)
    with pytest.raises(ValueError):
        Params(3, 1)
    p = Params(4, 3)
    assert p.a_plus + p.a_zero + p.a_minus == p.n


@pytest.mark.parametrize("c,d,regime", [
    (3, 3, "general"), (5, 4, "general"), (3, 2, "c2"), (2, 4, "d2"),
    (2, 2, "p3"),
])
def test_regimes(c, d, regime):
    assert Params(c, d).regime == regime


# -- Pluecker relations


def test_plucker_m4():
    ring = plucker_ring(4)
    rels = plucker_relations(4, ring)
    assert rels == [ring.parse("T_1_2*T_3_4 - T_1_3*T_2_4 + T_1_4*T_2_3")]


@pytest.mark.parametrize("m,count", [(3, 0), (4, 1), (5, 5), (6, 15)])
def test_plucker_counts(m, count):
    assert len(plucker_relations(m)) == count


# -- presentation


def test_presentation_3_3_shape():
    pres = cox_presentation(Params(3, 3))
    assert len(pres.variables) == 16
    assert len(pres.relations) == 15
    tpos = pres.ring.index[TINF]
    with_factor = [r for r in pres.relations if any(e[tpos] for e, _ in r.terms)]
    assert len(with_factor) == 9
    assert pres.class_group_rank == 3
    ring = pres.ring
    assert pres.grading.degree_of_var(ring.index["T_1_2"]) == (1, 1, -1)
    assert pres.grading.degree_of_var(ring.index["T_4_5"]) == (1, -1, 0)
    assert pres.grading.degree_of_var(ring.index[TINF]) == (0, 0, 1)


def test_presentation_3_3_factor_pairs():
    pres = cox_presentation(Params(3, 3))
    ring = pres.ring
    tpos = ring.index[TINF]
    pairs = set()
    for r in pres.relations:
        lead = [e for e, _ in r.terms if e[tpos]]
        if lead:
            names = frozenset(nm for nm, k in zip(ring.names, lead[0])
                              if k and nm != TINF)
            pairs.add(names)
    expected = {frozenset({pair_name(i, j), pair_name(k, l)})
                for (i, j) in [(1, 2), (1, 3), (2, 3)]
                for (k, l) in [(4, 5), (4, 6), (5, 6)]}
    assert pairs == expected


def test_presentation_split_relation_example():
    pres = cox_presentation(Params(3, 3))
    rel = pres.ring.parse("Tinf*T_1_2*T_4_5 - T_1_4*T_2_5 + T_1_5*T_2_4")
    assert rel in set(pres.relations)


def test_presentation_counts_general():
    for c, d in [(3, 3), (3, 4), (4, 4), (5, 3)]:
        p = Params(c, d)
        pres = cox_presentation(p)
        assert len(pres.relations) == comb(c + d, 4)
        tpos = pres.ring.index[TINF]
        split = [r for r in pres.relations if any(e[tpos] for e, _ in r.terms)]
        assert len(split) == comb(c, 2) * comb(d, 2)


def test_presentation_homogeneous():
    for c, d in [(3, 3), (4, 3), (3, 5)]:
        pres = cox_presentation(Params(c, d))
        for r in pres.relations:
            assert multidegree(r, pres.grading) is not None


def test_presentation_p3():
    pres = cox_presentation(Params(2, 2))
    assert pres.variables == ("T_0", "T_1", "T_2", "T_3")
    assert pres.relations == ()
    assert pres.class_group_rank == 1
    assert all(pres.grading.degree_of_var(i) == (1,) for i in range(4))


def test_presentation_c2_is_plucker_with_weight_grading():
    p = Params(3, 2)
    pres = cox_presentation(p)
    assert pres.regime == "c2"
    assert len(pres.variables) == 10
    assert set(pres.relations) == set(plucker_relations(5, pres.ring))
    q, _ = weight_matrices(p)
    assert pres.grading.matrix == q
    assert pres.class_group_rank == 2


def test_presentation_d2_mirror():
    pres = cox_presentation(Params(2, 3))
    assert pres.regime == "d2"
    assert set(pres.relations) == set(plucker_relations(5, pres.ring))


# -- weight matrices and Gale matrix


def test_weight_matrix_blocks():
    p = Params(3, 3)
    q, qinf = weight_matrices(p)
    assert q.cols == 15 and qinf.cols == 16
    assert q.columns() == [(1, 1)] * 3 + [(1, 0)] * 9 + [(1, -1)] * 3
    assert all(x == 1 for x in q.row(0))
    assert qinf.col(15) == (0, 0, 1)


def test_weight_matrix_consistency_with_grading():
    for c, d in [(3, 3), (4, 5)]:
        p = Params(c, d)
        pres = cox_presentation(p)
        _, qinf = weight_matrices(p)
        assert pres.grading.matrix == qinf
        q, _ = weight_matrices(p)
        # first two rows of the 3-row matrix restrict to the 2-row one
        for j in range(p.n):
            assert qinf.col(j)[:2] == q.col(j)


def test_gale_matrix_properties():
    for c, d in [(3, 3), (4, 3), (5, 5), (2, 3)]:
        p = Params(c, d)
        q, _ = weight_matrices(p)
        pm = gale_matrix_P(p)
        assert (pm.rows, pm.cols) == (p.n - 2, p.n)
        assert (pm @ q.transpose()).is_zero()
        assert rank(pm) == p.n - 2
        assert row_space_hnf(pm) == row_space_hnf(kernel_basis(q))
        s = [0] * pm.rows
        for j in range(p.n - p.a_minus, p.n):
            for i, x in enumerate(pm.col(j)):
                s[i] += x
        assert s == [0] * (pm.rows - 1) + [1]


def test_gale_bottom_row_orthogonality():
    # closing row against the two weight rows: 1 - 2 + 1 and 1 + 0 - 1
    pm = gale_matrix_P(Params(3, 3))
    bottom = pm.row(pm.rows - 1)
    q, _ = weight_matrices(Params(3, 3))
    assert sum(b * x for b, x in zip(bottom, q.row(0))) == 0
    assert sum(b * x for b, x in zip(bottom, q.row(1))) == 0


# -- pullback and cancellation


def test_pullback_mixed_quadruple_keeps_factor():
    p = Params(3, 3)
    eps, r = pullback_and_cancel(p, (1, 2, 4, 5))
    assert eps == 0
    assert r == cox_presentation(p).ring.parse(
        "Tinf*T_1_2*T_4_5 - T_1_4*T_2_5 + T_1_5*T_2_4")


def test_pullback_pure_d_quadruple_unchanged():
    p = Params(3, 3)
    eps, r = pullback_and_cancel(p, (3, 4, 5, 6))
    assert eps == 0
    assert r == cox_presentation(p).ring.parse(
        "T_3_4*T_5_6 - T_3_5*T_4_6 + T_3_6*T_4_5")


def test_pullback_three_small_indices_cancels_once():
    p = Params(3, 3)
    eps, r = pullback_and_cancel(p, (1, 2, 3, 4))
    assert eps == 1
    assert r == cox_presentation(p).ring.parse(
        "T_1_2*T_3_4 - T_1_3*T_2_4 + T_1_4*T_2_3")


def test_pullback_four_small_indices_cancels_twice():
    p = Params(4, 3)
    eps, r = pullback_and_cancel(p, (1, 2, 3, 4))
    assert eps == 2
    assert r == cox_presentation(p).ring.parse(
        "T_1_2*T_3_4 - T_1_3*T_2_4 + T_1_4*T_2_3")


def test_pullback_invalid_quadruple():
    with pytest.raises(ValueError):
        pullback_and_cancel(Params(3, 3), (1, 1, 2, 3))


def test_pullback_set_equals_relations():
    for c, d in [(3, 3), (3, 4), (4, 4)]:
        p = Params(c, d)
        pres = cox_presentation(p)
        phi = pullback_map(p)
        cancelled = []
        for quad in itertools.combinations(range(1, c + d + 1), 4):
            eps, r = pullback_and_cancel(p, quad, _map=phi)
            t = sum(1 for x in quad if x <= c)
            assert eps == {4: 2, 3: 1}.get(t, 0)
            cancelled.append(r)
        assert set(cancelled) == set(pres.relations)
        assert len(cancelled) == len(pres.relations)


# -- Segre factorization


def test_segre_variable_images():
    sigma = segre_map(Params(3, 3))
    src, dst = sigma.source, sigma.target
    assert sigma(src.var("T_1_4")) == dst.parse("S_1*S_4")
    assert sigma(src.var("T_1_2")) == dst.var("S_1_2")
    assert sigma(src.var("T_4_5")) == dst.var("S_4_5")


def test_segre_kills_split_binomial():
    p = Params(3, 3)
    sigma = segre_map(p)
    src = sigma.source
    g = src.parse("T_1_5*T_2_4 - T_1_4*T_2_5")
    assert not sigma(g)


def test_segre_images_in_degree_zero():
    p = Params(3, 3)
    sigma = segre_map(p)
    grading = segre_grading(p)
    for name in sigma.source.names:
        img = sigma(sigma.source.var(name))
        assert multidegree(img, grading) == (0,)


def test_sigma_h_1234_image():
    p = Params(3, 3)
    pi = proof_ideals(p)
    idx = pi.h_quadruples.index((1, 2, 3, 4))
    dst = segre_map(p).target
    expected = dst.parse(
        "S_4*S_1_2*S_3 - S_4*S_1_3*S_2 + S_4*S_1*S_2_3")
    assert pi.sigma_images[idx] == expected


def test_sigma_table_all_cases():
    for c, d in [(3, 3), (4, 3), (3, 4), (4, 4)]:
        p = Params(c, d)
        pi = proof_ideals(p)
        sigma = segre_map(p)
        for f in pi.g:
            assert not sigma(f)
        for quad, img in zip(pi.h_quadruples, pi.sigma_images):
            assert img == expected_sigma_image(p, quad)


def test_relation_split_counts():
    p = Params(4, 4)
    pi = proof_ideals(p)
    assert len(pi.g) == comb(4, 2) * comb(4, 2)
    assert len(pi.g) + len(pi.h) == comb(8, 4)


def test_renamed_blocks_are_plucker():
    for c, d in [(3, 3), (4, 3), (3, 4)]:
        p = Params(c, d)
        pi = proof_ideals(p)
        assert set(pi.b_prime_renamed) == set(
            plucker_relations(c + 1, pi.b_prime_renamed_ring))
        assert set(pi.b_second_renamed) == set(
            plucker_relations(d + 1, pi.b_second_renamed_ring))


def test_proof_ideals_rejects_degenerate():
    with pytest.raises(ValueError):
        proof_ideals(Params(2, 3))


def test_b_gens_split_into_blocks():
    p = Params(3, 3)
    pi = proof_ideals(p)
    assert len(pi.b_gens) == len(pi.b_prime) + len(pi.b_second)


# -- witness points


def test_witness_points_vanish_and_span_chambers():
    for c, d in [(2, 2), (3, 3), (4, 5)]:
        p = Params(c, d)
        x1, x2, w1, w2 = witness_points(p)
        assert all(r == 0 for r in plucker_residuals(p, x1))
        assert all(r == 0 for r in plucker_residuals(p, x2))
        assert w1 == Cone.from_generators(2, [(1, 1), (1, 0)])
        assert w2 == Cone.from_generators(2, [(1, 0), (1, -1)])


class _CountingPoly:
    def __init__(self, poly, log):
        self.poly, self.log = poly, log

    def evaluate(self, values):
        self.log.append(self.poly)
        return self.poly.evaluate(values)


def test_gitfan_builds_the_relations_once_and_evaluates_each_point_once(monkeypatch):
    p = Params(3, 3)
    built, evaluated = [], []

    def counting_relations(m, ring=None):
        built.append(m)
        return [_CountingPoly(f, evaluated) for f in plucker_relations(m, ring)]

    monkeypatch.setattr(collineation, "plucker_relations", counting_relations)
    expected, actual = checks.check_gitfan(p, 0)
    assert actual == expected
    assert built == [6]
    assert len(evaluated) == 2 * comb(6, 4)


def test_gitfan_residuals_come_from_an_evaluation(monkeypatch):
    # one extra relation that the witness points do not satisfy
    p = Params(3, 3)

    def with_bad_relation(m, ring=None):
        rels = plucker_relations(m, ring)
        return rels + [rels[0].ring.var(pair_name(1, m))]

    monkeypatch.setattr(collineation, "plucker_relations", with_bad_relation)
    expected, actual = checks.check_gitfan(p, 0)
    assert expected["witness_residuals_zero"]
    assert not actual["witness_residuals_zero"]
    with pytest.raises(RuntimeError, match="construction bug"):
        witness_points(p)


def test_orbit_cone_of_custom_point():
    p = Params(3, 3)
    x = WitnessPoint.of({(1, 2): 1})
    assert orbit_cone(p, x) == Cone.from_generators(2, [(1, 1)])


# -- invariant local equation


def test_local_equation_invariance_by_table():
    p = Params(3, 3)
    exps = local_equation_exponents(p)
    # oracle: (0,0,1) + (1,1,-1) - 2*(1,0,0) + (1,-1,0) = (0,0,0)
    assert laurent_degree(p, exps) == (0, 0, 0)
    assert local_equation_invariance(p)


def test_local_equation_perturbed_fails():
    p = Params(3, 3)
    exps = dict(local_equation_exponents(p))
    exps[pair_name(p.c, p.c + 1)] = -1
    assert laurent_degree(p, exps) == (1, 0, 0)


@pytest.mark.parametrize("c,d", [(3, 3), (3, 4), (4, 4), (5, 3), (5, 5)])
def test_local_equation_invariance_any_params(c, d):
    assert local_equation_invariance(Params(c, d))


def test_block_pairs_order():
    p = Params(3, 3)
    pairs = block_pairs(p)
    assert pairs[:3] == [(1, 2), (1, 3), (2, 3)]
    assert pairs[3:12] == [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    assert pairs[12:] == [(4, 5), (4, 6), (5, 6)]


def monomial_build(p):
    """The presentation's relations built as monomial - monomial + monomial,
    with Tinf on the first term of a split quadruple."""
    ring = cox_presentation(p).ring
    if p.regime == "p3":
        return ()
    rels = []
    for i, j, k, l in itertools.combinations(range(1, p.c + p.d + 1), 4):
        extra = {TINF: 1} if p.regime == "general" and j <= p.c < k else {}
        rels.append(ring.monomial({**extra, pair_name(i, j): 1, pair_name(k, l): 1})
                    - ring.monomial({pair_name(i, k): 1, pair_name(j, l): 1})
                    + ring.monomial({pair_name(i, l): 1, pair_name(j, k): 1}))
    return tuple(rels)


@pytest.mark.parametrize("c,d", [(2, 2), (2, 4), (4, 2), (3, 3), (3, 4), (5, 5)])
def test_relations_equal_monomial_build(c, d):
    p = Params(c, d)
    rels = cox_presentation(p).relations
    assert rels == monomial_build(p)
    assert all(type(x) is Fraction for f in rels for _, x in f.terms)
