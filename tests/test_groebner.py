import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxpres import groebner, polyring
from coxpres.collineation import (Params, ambient_ring, cox_presentation,
                                  plucker_relations, plucker_ring,
                                  proof_ideals, segre_map)
from coxpres.groebner import (BudgetExceeded, Ideal, eliminate, groebner_basis,
                              ideal_equal, krull_dimension, normal_form,
                              s_polynomial, saturate, toric_kernel,
                              weighted_basis)
from coxpres.intlinalg import IntMatrix, kernel_basis
from coxpres.polyring import (GREVLEX, LEX, EliminationBlock, PolyRing,
                              Polynomial, _merge, divides, exps_sub)


@pytest.fixture(scope="module")
def pres33():
    return cox_presentation(Params(3, 3))


@pytest.fixture(scope="module")
def ideal33(pres33):
    ideal = Ideal(pres33.ring, pres33.relations)
    ideal.groebner()
    return ideal


def test_normal_form_self_reduction():
    ring = plucker_ring(4)
    p = plucker_relations(4, ring)[0]
    assert not normal_form(p, [p])


def test_normal_form_simple():
    ring = PolyRing(("x",))
    assert not normal_form(ring.parse("x^2"), [ring.var("x")])


def test_normal_form_keeps_unreducible_terms():
    ring = PolyRing(("x", "y"))
    r = normal_form(ring.parse("x^2*y + y^2 + 1"), [ring.parse("x^2")])
    assert r == ring.parse("y^2 + 1")


def reference_normal_form(f, basis):
    """The division before divisor masks: a plain `divides` scan of the
    basis for each head, taking the first divisor in basis order."""
    ring = f.ring
    key = ring.order.key
    red = [(g.leading_exps(), g.leading_coeff(), g) for g in basis if g]
    if len(red) != len(basis):
        raise ValueError("zero polynomial in divisor list")
    work = f.terms
    rem = []
    while work:
        e, c = work[0]
        hit = next(((le, lc, g) for le, lc, g in red if divides(le, e)), None)
        if hit is None:
            rem.append((e, c))
            work = work[1:]
            continue
        le, lc, g = hit
        work = _merge(key, work, g.term_mul(exps_sub(e, le), -c / lc).terms)
    return Polynomial(ring, tuple(rem))


def polys(ring, max_terms):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.integers(-3, 3))
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda ts: ring.from_terms([(e, Fraction(c)) for e, c in ts]))


@pytest.mark.parametrize("order", [GREVLEX, LEX, EliminationBlock(2)],
                         ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_normal_form_matches_reference(order, data):
    ring = PolyRing(("w", "x", "y", "z"), order)
    f = data.draw(polys(ring, 6))
    basis = data.draw(st.lists(polys(ring, 3).filter(bool),
                               min_size=1, max_size=4))
    assert normal_form(f, basis) == reference_normal_form(f, basis)


def rational_polys(ring, max_terms):
    # denominators up to 7 (3/2, -5/7, ...), so that the integer division
    # rescales rows and tracks the scale of its remainder
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars), coeff)
    return st.lists(term, min_size=1, max_size=max_terms).map(ring.from_terms)


@pytest.mark.parametrize("order", [GREVLEX, LEX, EliminationBlock(2)],
                         ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_normal_form_matches_reference_on_rational_coefficients(order, data):
    ring = PolyRing(("w", "x", "y", "z"), order)
    f = data.draw(rational_polys(ring, 6))
    basis = data.draw(st.lists(rational_polys(ring, 3).filter(bool),
                               min_size=1, max_size=4))
    assert normal_form(f, basis) == reference_normal_form(f, basis)


def test_normal_form_is_the_exact_remainder():
    # x > y: x^2 - (x/2 - 3y/4)(2x + 3y) = 9/4 y^2, not a multiple of it
    ring = PolyRing(("y", "x"))
    r = normal_form(ring.parse("x^2"), [ring.parse("2*x + 3*y")])
    assert r == ring.monomial({"y": 2}, Fraction(9, 4))
    f = ring.from_terms([((0, 2), Fraction(3, 2)), ((1, 0), Fraction(-5, 7))])
    r = normal_form(f, [ring.parse("2*x + 3*y")])
    assert r == ring.from_terms([((2, 0), Fraction(27, 8)),
                                 ((1, 0), Fraction(-5, 7))])


def test_normal_form_rejects_another_ring():
    small, big = PolyRing(("x", "y")), PolyRing(("x", "y", "z"))
    f = big.parse("x*y*z + z^2")
    with pytest.raises(ValueError, match="mismatched ambient rings"):
        normal_form(f, (small.parse("x*y"),))
    with pytest.raises(ValueError, match="mismatched ambient rings"):
        normal_form(small.parse("x*y"), (big.parse("x*y"),))
    # also when f reaches a basis that was grown as a divisor table
    gb = groebner_basis([big.parse("x*y - z")])
    with pytest.raises(ValueError, match="mismatched ambient rings"):
        normal_form(small.parse("x^2*y"), gb)


def test_saturate_rejects_another_ring():
    small, big = PolyRing(("x", "y")), PolyRing(("x", "y", "z"))
    with pytest.raises(ValueError, match="mismatched ambient rings"):
        saturate(Ideal(small, [small.parse("x*y")]), big.var("z"))


def count_pairs(monkeypatch, run):
    """S-pairs reduced and their zero remainders during `run()`."""
    counts = {"spairs": 0, "zero": 0}
    last = []
    s_poly, nf = groebner.s_polynomial, groebner.normal_form

    def counting_s_poly(f, g):
        counts["spairs"] += 1
        last[:] = [s_poly(f, g)]
        return last[0]

    def counting_nf(f, basis):
        r = nf(f, basis)
        if last and f is last[0]:
            counts["zero"] += not r
            last.clear()
        return r

    with monkeypatch.context() as m:
        m.setattr(groebner, "s_polynomial", counting_s_poly)
        m.setattr(groebner, "normal_form", counting_nf)
        run()
    return counts


def test_pair_sequence_pinned(pres33, monkeypatch):
    # the counts of the plain-scan engine: the divisor masks and the lcm
    # kept with each pair must not change which S-pairs are reduced
    relations = list(pres33.relations)
    assert count_pairs(monkeypatch, lambda: groebner_basis(
        relations, pres33.ring)) == {"spairs": 75, "zero": 68}
    ideal = Ideal(pres33.ring, relations)
    tinf = pres33.ring.var("Tinf")
    assert count_pairs(monkeypatch, lambda: saturate(ideal, tinf)) == {
        "spairs": 150, "zero": 125}
    pres34 = cox_presentation(Params(3, 4))
    assert count_pairs(monkeypatch, lambda: groebner_basis(
        list(pres34.relations), pres34.ring)) == {"spairs": 367, "zero": 342}


def test_factor_variable_not_in_ideal(ideal33):
    tinf = ideal33.ring.var("Tinf")
    assert normal_form(tinf, ideal33.groebner())
    assert not ideal33.contains(tinf)


def test_buchberger_single_plucker_quadric():
    ring = plucker_ring(4)
    p = plucker_relations(4, ring)[0]
    gb = groebner_basis([p])
    assert gb == (p.monic(),)
    assert gb[0].leading_coeff() == 1


def test_buchberger_lex_example():
    ring = PolyRing(("x", "y"), LEX)
    gb = groebner_basis([ring.parse("x - 1"), ring.parse("y - x")])
    assert set(gb) == {ring.parse("x - 1"), ring.parse("y - 1")}


def test_buchberger_relations_give_finite_basis(ideal33):
    gb = ideal33.groebner()
    assert gb
    # reduced: every element monic, no head divides another head
    for g in gb:
        assert g.leading_coeff() == 1
    heads = [g.leading_exps() for g in gb]
    for a, b in itertools.combinations(heads, 2):
        assert not all(x <= y for x, y in zip(a, b))
        assert not all(x >= y for x, y in zip(a, b))


def test_reduced_basis_unique_under_permutation(pres33):
    gens = list(pres33.relations)
    expected = groebner_basis(gens, pres33.ring)
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(gens)
        assert groebner_basis(gens, pres33.ring) == expected


def test_ideal_equal_generator_order():
    ring = PolyRing(("x", "y"))
    a = Ideal(ring, [ring.parse("x^2"), ring.parse("x*y")])
    b = Ideal(ring, [ring.parse("x*y"), ring.parse("x^2")])
    assert ideal_equal(a, b)


def test_ideal_equal_distinguishes_powers():
    ring = PolyRing(("x", "y"))
    assert not ideal_equal(Ideal(ring, [ring.var("x")]),
                           Ideal(ring, [ring.parse("x^2")]))


def test_ideal_equal_ambient_mismatch():
    r1, r2 = PolyRing(("x",)), PolyRing(("y",))
    with pytest.raises(ValueError):
        ideal_equal(Ideal(r1, [r1.var("x")]), Ideal(r2, [r2.var("y")]))


def test_eliminate_rabinowitsch():
    ring = PolyRing(("w", "x", "y"))
    ideal = Ideal(ring, [ring.parse("w*x - 1"), ring.parse("w*y")])
    out = eliminate(ideal, 1)
    assert [str(g) for g in out.gens] == ["y"]


def test_eliminate_parabola():
    ring = PolyRing(("t", "x", "y"))
    ideal = Ideal(ring, [ring.parse("x - t"), ring.parse("y - t^2")])
    out = eliminate(ideal, 1)
    assert set(out.gens) == {out.ring.parse("x^2 - y")}


def test_eliminate_zero_ideal():
    ring = PolyRing(("t", "x"))
    out = eliminate(Ideal(ring, []), 1)
    assert not out.gens


def test_saturate_strips_factor():
    ring = PolyRing(("x", "Tinf"))
    out = saturate(Ideal(ring, [ring.parse("Tinf*x")]), ring.var("Tinf"))
    assert [str(g) for g in out.gens] == ["x"]


def test_saturate_no_op():
    ring = PolyRing(("x", "y"))
    ideal = Ideal(ring, [ring.parse("x^2")])
    assert ideal_equal(saturate(ideal, ring.var("y")), ideal)


def test_saturate_contains_and_idempotent():
    ring = PolyRing(("x", "y"))
    ideal = Ideal(ring, [ring.parse("x^2*y - x*y")])
    once = saturate(ideal, ring.var("x"))
    for g in ideal.gens:
        assert once.contains(g)
    assert ideal_equal(saturate(once, ring.var("x")), once)


def test_saturation_of_relations_is_identity(ideal33):
    sat = saturate(ideal33, ideal33.ring.var("Tinf"))
    assert ideal_equal(sat, ideal33)


def test_krull_zero_ideal():
    ring = PolyRing(("x", "y", "z"))
    assert krull_dimension(Ideal(ring, [])) == 3


def test_krull_hypersurface():
    ring = plucker_ring(4)
    ideal = Ideal(ring, plucker_relations(4, ring))
    assert krull_dimension(ideal) == 5


def test_krull_whole_ring_raises():
    ring = PolyRing(("x",))
    with pytest.raises(ValueError):
        krull_dimension(Ideal(ring, [ring.one()]))


def test_krull_dimensions_at_3_3(ideal33):
    ring = ideal33.ring
    assert krull_dimension(ideal33) == 10
    j = Ideal(ring, ideal33.gens + (ring.var("Tinf"),))
    assert krull_dimension(j) == 9


def test_krull_dimension_leaves_no_cyclic_garbage(ideal33):
    # the hitting-set memo must be freed on return, not by a later
    # cyclic collection, or peak memory depends on when that runs
    gc.collect()
    assert krull_dimension(ideal33) == 10
    assert gc.collect() == 0


def test_krull_invariance():
    ring = PolyRing(("x", "y", "z"))
    gens = [ring.parse("x*y - z^2"), ring.parse("x^2")]
    base = krull_dimension(Ideal(ring, gens))
    assert krull_dimension(Ideal(ring, gens[::-1])) == base
    redundant = gens + [ring.parse("x^2*y - x*z^2")]
    assert krull_dimension(Ideal(ring, redundant)) == base


def test_toric_kernel_conic():
    e = IntMatrix.from_rows([[2, 1, 0], [0, 1, 2]])
    out = toric_kernel(e)
    ring = out.ring
    assert ideal_equal(out, Ideal(ring, [ring.parse("x2^2 - x1*x3")]))


def test_toric_kernel_identity_is_zero():
    assert not toric_kernel(IntMatrix.identity(3)).gens


def test_toric_kernel_output_is_binomial():
    e = IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    out = toric_kernel(e)
    for g in out.groebner():
        assert len(g.terms) == 2
        assert sorted(c for _, c in g.terms) == [-1, 1]


def test_toric_kernel_matches_binomial_generators():
    p = Params(3, 3)
    pi = proof_ideals(p)
    kernel = toric_kernel(segre_map(p).exponent_matrix(), ring=ambient_ring(p))
    assert ideal_equal(kernel, Ideal(ambient_ring(p), pi.g))


def elimination_toric_kernel(e, ring, budget=groebner.DEFAULT_PAIR_BUDGET):
    """The lattice ideal by the elimination route: the kernel-basis
    binomials saturated by each variable they touch through `saturate`."""
    gens = []
    for row in kernel_basis(e).entries:
        plus = tuple(max(x, 0) for x in row)
        minus = tuple(max(-x, 0) for x in row)
        gens.append(ring.from_terms([(plus, Fraction(1)), (minus, Fraction(-1))]))
    ideal = Ideal(ring, gens)
    for i in sorted({i for g in ideal.gens for i in g.support_vars()}):
        ideal = saturate(ideal, ring.var(ring.names[i]), budget=budget)
    return ideal


def counted_saturations(run):
    """The result of `run()` and the number of `saturate` calls it made
    through the groebner module."""
    real = groebner.saturate
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    groebner.saturate = counting
    try:
        return run(), len(calls)
    finally:
        groebner.saturate = real


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 2), cols=st.integers(2, 4), data=st.data())
def test_toric_kernel_by_bayer_matches_elimination(rows, cols, data):
    # entries from -2 to 2 give zero and negative column sums too, which
    # must take the elimination route
    m = IntMatrix.from_rows([[data.draw(st.integers(-2, 2)) for _ in range(cols)]
                             for _ in range(rows)])
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(cols)))
    try:
        out, saturations = counted_saturations(
            lambda: toric_kernel(m, ring, budget=20000))
        reference = elimination_toric_kernel(m, ring, budget=20000)
    except BudgetExceeded:
        assume(False)
    assert out.ring == ring
    assert out.groebner() == reference.groebner()
    if kernel_basis(m).entries:
        weights = [sum(col) for col in m.columns()]
        assert (saturations > 0) == (min(weights) < 1)
        # the Bayer route returns the reduced basis as its generators
        if min(weights) >= 1:
            assert out.gens == groebner_basis(out.gens, ring)


def test_toric_kernel_falls_back_on_a_zero_column_sum():
    # column sums (1, 0, 1): no positive grading, so elimination
    m = IntMatrix.from_rows([[1, -1, 0], [0, 1, 1]])
    ring = PolyRing(("x1", "x2", "x3"))
    out, saturations = counted_saturations(lambda: toric_kernel(m, ring))
    assert saturations == 3
    assert ideal_equal(out, Ideal(ring, [ring.parse("x1*x2 - x3")]))


@pytest.mark.parametrize("c,d", [(3, 3), (3, 4), (4, 4)])
def test_toric_kernel_by_bayer_matches_elimination_on_segre(c, d):
    p = Params(c, d)
    ring = ambient_ring(p)
    e = segre_map(p).exponent_matrix()
    out, saturations = counted_saturations(lambda: toric_kernel(e, ring))
    assert saturations == 0
    assert out.gens == groebner_basis(out.gens, ring)
    assert out.groebner() == elimination_toric_kernel(e, ring).groebner()


def test_membership_of_random_combinations(ideal33):
    rng = random.Random(11)
    ring = ideal33.ring
    gens = ideal33.gens
    for _ in range(5):
        f = ring.zero()
        for g in rng.sample(gens, 3):
            mult = ring.monomial({rng.choice(ring.names): rng.randint(0, 2)},
                                 rng.randint(-3, 3))
            f = f + mult * g
        assert ideal33.contains(f)


def test_exponent_past_headroom_raises(monkeypatch):
    # under lex, y - x^2 turns y^2 - 1 into x^4 - 1: exponent 4 needs one
    # bit more than the inputs' largest degree, 2
    ring = PolyRing(("x", "y"), LEX)
    gens = [ring.parse("y - x^2"), ring.parse("y^2 - 1")]
    assert set(groebner_basis(gens)) == {ring.parse("x^4 - 1"),
                                         ring.parse("y - x^2")}
    # grevlex: no exponent passes 3, but basis leads reach degree 5, and
    # the keys read the degree of an lcm modulo 2**3 - 1; unchecked, this
    # run returned a 9-element basis instead of the 7-element one
    ring4 = PolyRing(("w", "x", "y", "z"))
    gens4 = [ring4.parse("w^2*x - w*y*z"), ring4.parse("x*z^2 - w*z^2"),
             ring4.parse("w*y*z + y")]
    assert len(groebner_basis(gens4)) == 7
    monkeypatch.setattr(polyring, "PACK_HEADROOM", 0)
    for g in (gens, gens4):
        with pytest.raises(ValueError, match="exponent overflow"):
            groebner_basis(g)
    with pytest.raises(ValueError, match="exponent overflow"):
        normal_form(ring.parse("y^2"), [ring.parse("y - x^2")])


def test_eliminate_and_saturate_keep_their_basis(ideal33):
    tinf = ideal33.ring.var("Tinf")
    for out in (saturate(ideal33, tinf), eliminate(ideal33, 2)):
        assert out.ring.order == GREVLEX
        assert out.groebner() == groebner_basis(out.gens, out.ring)
        assert out.groebner() == out.gens


def test_saturate_under_lex_recomputes_its_basis():
    # the kept part of the elimination basis is the grevlex basis, which
    # here is not the lex one
    ring = PolyRing(("x", "y", "z"), LEX)
    ideal = Ideal(ring, [ring.parse("x*z^2 - x*y"), ring.parse("x*y^2 - x*z")])
    sat = saturate(ideal, ring.var("x"))
    expected = groebner_basis([ring.parse("z^2 - y"), ring.parse("y^2 - z")])
    assert sat.gens != expected
    assert sat.groebner() == expected


def reference_min_hitting_set(sets):
    """The search before bitmasks, on frozensets of frozensets."""
    return _reference_hitting(frozenset(sets), {})


def _reference_hitting(remaining, memo):
    if not remaining:
        return 0
    got = memo.get(remaining)
    if got is not None:
        return got
    pivot = min(remaining, key=len)
    out = min(1 + _reference_hitting(
        frozenset(s for s in remaining if v not in s), memo) for v in sorted(pivot))
    memo[remaining] = out
    return out


@settings(max_examples=150, deadline=None)
@given(supports=st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=3),
                         min_size=1, max_size=9))
def test_hitting_set_matches_reference(supports):
    sets = [frozenset(s) for s in supports]
    masks = [sum(1 << i for i in s) for s in supports]
    assert groebner._min_hitting_set(masks) == reference_min_hitting_set(sets)
    # through krull_dimension: the leads of a squarefree monomial ideal's
    # basis are its minimal generators
    ring = PolyRing(tuple(f"x{i}" for i in range(7)))
    gens = [ring.monomial({f"x{i}": 1 for i in s}) for s in supports]
    minimal = {s for s in sets if not any(t < s for t in sets)}
    assert (krull_dimension(Ideal(ring, gens))
            == 7 - reference_min_hitting_set(list(minimal)))


@settings(max_examples=100, deadline=None)
@given(supports=st.lists(st.sets(st.integers(0, 13), min_size=1, max_size=4),
                         min_size=1, max_size=20))
def test_hitting_set_matches_reference_wide(supports):
    masks = [sum(1 << i for i in s) for s in supports]
    assert groebner._min_hitting_set(masks) == reference_min_hitting_set(
        [frozenset(s) for s in supports])


@st.composite
def weighted_ideals(draw):
    """Ideals of 1 to 3 generators in 3 to 5 variables, each generator
    homogeneous for weights drawn from 1 to 3."""
    n = draw(st.integers(3, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 5))
        monomials = [e for e in itertools.product(range(degree + 1), repeat=n)
                     if sum(w * x for w, x in zip(weights, e)) == degree]
        if not monomials:
            continue
        chosen = draw(st.lists(st.sampled_from(monomials), min_size=1,
                               max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-2, 2).filter(bool),
                               min_size=len(chosen), max_size=len(chosen)))
        gens.append(ring.from_terms([(e, Fraction(c))
                                     for e, c in zip(chosen, coeffs)]))
    return Ideal(ring, gens), weights


@settings(max_examples=60, deadline=None)
@given(weighted_ideals())
def test_bayer_criterion_matches_elimination(case):
    ideal, weights = case
    ring = ideal.ring
    for var in ring.names:
        basis = weighted_basis(ideal, weights, var)
        bayer = not any(g.leading_exps()[0] for g in basis)
        assert bayer == ideal_equal(saturate(ideal, ring.var(var)), ideal)


def test_weighted_basis_is_the_image_of_the_weighted_basis():
    # weights (1, 2): x^2 - y is homogeneous, and in the image ring y
    # (moved first, so smallest) reads y^2
    ring = PolyRing(("x", "y"))
    basis = weighted_basis(Ideal(ring, [ring.parse("x^2 - y")]), [1, 2], "y")
    (g,) = basis
    assert g.ring.names == ("y", "x")
    assert g == g.ring.parse("x^2 - y^2")


def test_weighted_basis_refuses_bad_input():
    ring = PolyRing(("x", "y", "z"))
    ideal = Ideal(ring, [ring.parse("x*y - z")])
    with pytest.raises(ValueError, match="homogeneous"):
        weighted_basis(ideal, [1, 1, 1], "z")
    assert weighted_basis(ideal, [1, 1, 2], "z")
    with pytest.raises(ValueError, match="positive weight"):
        weighted_basis(ideal, [1, 1, 0], "z")
    with pytest.raises(ValueError, match="positive weight"):
        weighted_basis(ideal, [1, 1], "z")
    with pytest.raises(ValueError, match="unknown variable"):
        weighted_basis(ideal, [1, 1, 2], "w")


def test_pair_budget_guard(pres33):
    with pytest.raises(BudgetExceeded):
        groebner_basis(list(pres33.relations), pres33.ring, budget=1)


def test_s_polynomial_is_the_monic_forms_s_polynomial():
    # rational coefficients and a negative leading coefficient
    ring = PolyRing(("y", "x"))
    f = ring.from_terms([((0, 2), Fraction(-3, 2)), ((1, 0), Fraction(5, 7))])
    g = ring.from_terms([((1, 1), Fraction(2, 3)), ((0, 0), Fraction(-4))])
    lcm = (1, 2)
    expected = (f.monic().term_mul(exps_sub(lcm, f.leading_exps()), Fraction(1))
                - g.monic().term_mul(exps_sub(lcm, g.leading_exps()), Fraction(1)))
    assert s_polynomial(f, g) == expected


def test_s_polynomial_cancels_heads():
    ring = PolyRing(("x", "y"))
    f, g = ring.parse("x^2 + y"), ring.parse("x*y + 1")
    s = s_polynomial(f, g)
    lcm = (2, 1)
    assert all(e != lcm for e, _ in s.terms)
