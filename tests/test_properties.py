"""Randomized invariant suites for the engine layers."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxpres.geometry import (Cone, GalePair, gale_cone_test, git_fan,
                              stellar_subdivide)
from coxpres.groebner import (BudgetExceeded, Ideal, groebner_basis,
                              normal_form, saturate, toric_kernel)
from coxpres.intlinalg import (IntMatrix, hermite_normal_form, kernel_basis,
                               primitive, rank)
from coxpres.polyring import (GREVLEX, LEX, EliminationBlock, PolyRing,
                              RingMap, divides)

RING2 = PolyRing(("x", "y"))
RING3 = PolyRing(("x", "y", "z"))

BASE = settings(max_examples=200, deadline=None)


def poly_strategy(ring, max_terms=3, max_exp=2, max_coeff=3):
    term = st.tuples(
        st.tuples(*([st.integers(0, max_exp)] * ring.nvars)),
        st.integers(-max_coeff, max_coeff))
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda ts: ring.from_terms([(e, Fraction(c)) for e, c in ts]))


def nonzero_polys(ring, **kw):
    return poly_strategy(ring, **kw).filter(bool)


# ---------------------------------------------------------------------------
# Groebner engine invariants


@BASE
@given(gens=st.lists(nonzero_polys(RING2), min_size=1, max_size=3),
       perm=st.randoms(use_true_random=False))
def test_reduced_basis_unique_under_permutation(gens, perm):
    try:
        expected = groebner_basis(gens, RING2, budget=4000)
    except BudgetExceeded:
        assume(False)
    shuffled = list(gens)
    perm.shuffle(shuffled)
    assert groebner_basis(shuffled, RING2, budget=4000) == expected


@BASE
@given(gens=st.lists(nonzero_polys(RING2), min_size=1, max_size=2),
       mults=st.lists(poly_strategy(RING2, max_terms=2), min_size=2, max_size=2))
def test_membership_soundness(gens, mults):
    try:
        gb = groebner_basis(gens, RING2, budget=4000)
    except BudgetExceeded:
        assume(False)
    combo = RING2.zero()
    for q, g in zip(mults, gens):
        combo = combo + q * g
    r = normal_form(combo, gb)
    assert not r
    # remainders never keep a reducible term
    probe = mults[0] + RING2.one()
    rem = normal_form(probe, gb)
    heads = [g.leading_exps() for g in gb]
    for e, _ in rem.terms:
        assert not any(divides(h, e) for h in heads)


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(nonzero_polys(RING2, max_exp=2), min_size=1, max_size=2))
def test_saturation_grows_and_is_idempotent(gens):
    ideal = Ideal(RING2, gens)
    x = RING2.var("x")
    try:
        once = saturate(ideal, x, budget=4000)
        twice = saturate(once, x, budget=4000)
    except BudgetExceeded:
        assume(False)
    for g in ideal.gens:
        assert once.contains(g)
    assert once.groebner() == twice.groebner()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 2), cols=st.integers(2, 4), data=st.data())
def test_toric_kernel_is_binomial(rows, cols, data):
    entries = [[data.draw(st.integers(0, 2)) for _ in range(cols)]
               for _ in range(rows)]
    m = IntMatrix.from_rows(entries)
    out = toric_kernel(m, budget=20000)
    for g in out.groebner():
        assert len(g.terms) == 2
        assert sorted(c for _, c in g.terms) == [-1, 1]


# ---------------------------------------------------------------------------
# monomial orders


@BASE
@given(a=st.tuples(*([st.integers(0, 5)] * 4)),
       b=st.tuples(*([st.integers(0, 5)] * 4)),
       t=st.tuples(*([st.integers(0, 5)] * 4)))
def test_orders_total_and_multiplicative(a, b, t):
    for order in (GREVLEX, LEX, EliminationBlock(2)):
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        if ka < kb:
            at = tuple(x + y for x, y in zip(a, t))
            bt = tuple(x + y for x, y in zip(b, t))
            assert order.key(at) < order.key(bt)
        if divides(a, b):
            assert ka <= kb


# ---------------------------------------------------------------------------
# term merge (the one routine behind +, - and normal-form reduction)


MERGE_RINGS = [PolyRing(("x", "y", "z"), order)
               for order in (GREVLEX, LEX, EliminationBlock(2))]


@BASE
@given(ring=st.sampled_from(MERGE_RINGS), data=st.data())
def test_merge_sum_and_difference(ring, data):
    f = data.draw(poly_strategy(ring, max_terms=5))
    g = data.draw(poly_strategy(ring, max_terms=5))
    assert (f - g) + g == f
    assert not f - f
    assert f + g == g + f
    # from_terms sorts a dict, a route independent of the merge
    assert f + g == ring.from_terms(f.terms + g.terms)
    key = ring.order.key
    for h in (f + g, f - g, g - f):
        keys = [key(e) for e, _ in h.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert all(c != 0 for _, c in h.terms)


# ---------------------------------------------------------------------------
# ring map homomorphism


@BASE
@given(images=st.lists(poly_strategy(RING2, max_terms=2), min_size=3, max_size=3),
       f=poly_strategy(RING3), g=poly_strategy(RING3))
def test_apply_map_is_homomorphism(images, f, g):
    phi = RingMap(RING3, RING2, images)
    assert phi(f + g) == phi(f) + phi(g)
    assert phi(f * g) == phi(f) * phi(g)


# ---------------------------------------------------------------------------
# chamber fans


@BASE
@given(cols=st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)),
                     min_size=1, max_size=6),
       coeffs=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       pick=st.data())
def test_chamber_cover(cols, coeffs, pick):
    q = IntMatrix.from_cols(cols)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fan = git_fan(q)
    i = pick.draw(st.integers(0, len(cols) - 1))
    j = pick.draw(st.integers(0, len(cols) - 1))
    a, b = coeffs
    w = (a * cols[i][0] + b * cols[j][0], a * cols[i][1] + b * cols[j][1])
    if w == (0, 0):
        assume(False)
    chambers = [fan.cone(mc) for mc in fan.maximal_cones]
    assert any(ch.contains(w) for ch in chambers)
    if len(fan.rays) == 1:
        r = fan.rays[0]
        assert w[0] * r[1] - w[1] * r[0] == 0
        return
    on_wall = any(w[0] * r[1] - w[1] * r[0] == 0 for r in fan.rays)
    strict = sum(1 for ch in chambers if ch.contains(w, relative_interior=True))
    assert strict == (0 if on_wall else 1)


@BASE
@given(raw=st.lists(st.tuples(st.integers(1, 4), st.integers(-4, 4)),
                    min_size=2, max_size=5, unique=True),
       weights=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       pick=st.data())
def test_stellar_subdivision_preserves_support(raw, weights, pick):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fan = git_fan(IntMatrix.from_cols(raw))
    assume(len(fan.rays) >= 2)
    idx = pick.draw(st.integers(0, len(fan.maximal_cones) - 1))
    target = fan.maximal_cones[idx]
    u, v = fan.rays[target[0]], fan.rays[target[1]]
    new_ray = (u[0] + v[0], u[1] + v[1])
    if primitive(new_ray) in fan.rays:
        assume(False)
    out = stellar_subdivide(fan, target, new_ray)
    assert len(out.maximal_cones) == len(fan.maximal_cones) + 1
    a, b = weights
    w = (a * u[0] + b * v[0], a * u[1] + b * v[1])
    hits = [mc for mc in out.maximal_cones if out.cone(mc).contains(w)]
    assert hits
    strict = [mc for mc in out.maximal_cones
              if out.cone(mc).contains(w, relative_interior=True)]
    assert len(strict) <= 1


# ---------------------------------------------------------------------------
# integer linear algebra


@BASE
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), data=st.data())
def test_hnf_and_kernel_invariants(rows, cols, data):
    entries = [[data.draw(st.integers(-9, 9)) for _ in range(cols)]
               for _ in range(rows)]
    m = IntMatrix.from_rows(entries)
    h, u = hermite_normal_form(m)
    assert u @ m == h
    h2, _ = hermite_normal_form(h)
    assert h2 == h
    kb = kernel_basis(m)
    assert rank(m) + kb.rows == cols
    if kb.rows:
        assert (m @ kb.transpose()).is_zero()


# ---------------------------------------------------------------------------
# closed-form Gale test against the general cone route


SMALL = st.integers(-3, 3)


@st.composite
def gale_cases(draw):
    """A 2-row Q (zero, parallel and antiparallel columns drawn on
    purpose), a `removed` list of 0-4 indices with repeats, and a w that is
    0 about a fifth of the time."""
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["free", "zero", "multiple"]))
        if kind == "zero" or (kind == "multiple" and not cols):
            col = (0, 0) if kind == "zero" else (draw(SMALL), draw(SMALL))
        elif kind == "multiple":
            base = draw(st.sampled_from(cols))
            k = draw(st.sampled_from([-3, -2, -1, 2, 3]))
            col = (k * base[0], k * base[1])
        else:
            col = (draw(SMALL), draw(SMALL))
        cols.append(col)
    q = IntMatrix.from_cols(cols)
    removed = draw(st.lists(st.integers(0, len(cols) - 1), max_size=4))
    w = draw(st.one_of(st.just((0, 0)), st.tuples(SMALL, SMALL)))
    return q, removed, w


@settings(max_examples=1000, deadline=None)
@given(case=gale_cases())
def test_gale_closed_form_matches_cone_contains(case):
    q, removed, w = case
    gale = GalePair(IntMatrix.from_rows([[0] * q.cols]), q)
    cone = Cone.from_generators(2, [q.col(j) for j in removed])
    assert gale_cone_test(gale, w, removed) == cone.contains(
        w, relative_interior=True)
