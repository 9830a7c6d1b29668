import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxpres.collineation import (Params, cox_presentation, pullback_map,
                                  segre_map, weight_matrices)
from coxpres.intlinalg import IntMatrix
from coxpres.polyring import (GREVLEX, LEX, EliminationBlock, Grading,
                              PolyRing, RingMap, divides, multidegree)


@pytest.fixture
def xy():
    return PolyRing(("x", "y"))


def test_add_cancels(xy):
    x, y = xy.gens()
    assert (x + y) + (-x) == y


def test_product_of_conjugates(xy):
    x, y = xy.gens()
    assert (x - y) * (x + y) == x * x - y * y


def test_product_with_last_variable():
    ring = cox_presentation(Params(3, 3)).ring
    f = ring.parse("T_1_3*T_2_4") * ring.var("Tinf")
    assert f == ring.parse("Tinf*T_1_3*T_2_4")
    # Tinf is the largest variable, so it leads the term ordering
    assert f.leading_exps()[ring.index["Tinf"]] == 1


def test_mismatched_rings_raise(xy):
    other = PolyRing(("x", "z"))
    with pytest.raises(ValueError):
        xy.var("x") + other.var("z")


def test_pullback_image_of_plus_block_variable():
    phi = pullback_map(Params(3, 3))
    t12 = phi.source.var("T_1_2")
    assert phi(t12) == phi.target.parse("Tinf*T_1_2")


def test_segre_image_of_mixed_variable():
    sigma = segre_map(Params(3, 3))
    assert sigma(sigma.source.var("T_1_4")) == sigma.target.parse("S_1*S_4")


def test_identity_map(xy):
    ident = RingMap(xy, xy, xy.gens())
    f = xy.parse("x^2*y - 3*y + 1")
    assert ident(f) == f


def test_multidegree_of_split_relation():
    p = Params(3, 3)
    pres = cox_presentation(p)
    _, qinf = weight_matrices(p)
    f = pres.ring.parse("Tinf*T_1_2*T_4_5 - T_1_4*T_2_5 + T_1_5*T_2_4")
    # oracle: sum the degree columns of one term by hand
    cols = [qinf.col(pres.ring.index[n]) for n in ("Tinf", "T_1_2", "T_4_5")]
    expected = tuple(sum(c[r] for c in cols) for r in range(3))
    assert expected == (2, 0, 0)
    assert multidegree(f, pres.grading) == expected


def test_multidegree_inhomogeneous():
    p = Params(3, 3)
    pres = cox_presentation(p)
    f = pres.ring.parse("T_1_2 + T_4_5")
    assert multidegree(f, pres.grading) is None


def test_multidegree_constant_and_zero():
    ring = PolyRing(("x",))
    grading = Grading(IntMatrix.from_cols([(1, 2)]))
    assert multidegree(ring.one(), grading) == (0, 0)
    with pytest.raises(ValueError):
        multidegree(ring.zero(), grading)


def test_multidegree_additive_on_products():
    ring = PolyRing(("x", "y", "z"))
    grading = Grading(IntMatrix.from_cols([(1, 0), (0, 1), (1, 1)]))
    f = ring.parse("x*z + x^2*y")
    g = ring.parse("y*z")
    df, dg = multidegree(f, grading), multidegree(g, grading)
    assert df is not None and dg is not None
    assert multidegree(f * g, grading) == tuple(a + b for a, b in zip(df, dg))


def test_parse_round_trip():
    ring = PolyRing(("T_1_2", "T_3_4", "Tinf"))
    f = ring.parse("2*T_1_2^3*Tinf - T_3_4 + 5")
    assert ring.parse(str(f)) == f
    assert ring.parse("-T_1_2 + T_1_2") == ring.zero()


def test_parse_rejects_unknown_variable(xy):
    with pytest.raises(ValueError):
        xy.parse("x + q")


def test_order_keys_are_orders():
    e1, e2, e3 = (2, 0, 0), (0, 1, 1), (1, 1, 0)
    for order in (GREVLEX, LEX, EliminationBlock(1)):
        k = order.key
        assert len({k(e1), k(e2), k(e3)}) == 3
        # divisibility refinement
        assert k((0, 1, 0)) < k((1, 1, 0)) and k((1, 1, 0)) < k((1, 2, 0))


def test_grevlex_last_variable_largest():
    ring = PolyRing(("a", "b"))
    f = ring.parse("a + b")
    assert f.leading_exps() == (0, 1)


def test_elimination_block_beats_degree():
    # any power of the eliminated variable outranks the rest
    order = EliminationBlock(1)
    assert order.key((1, 0, 0)) > order.key((0, 9, 9))


def test_evaluate():
    ring = PolyRing(("x", "y"))
    f = ring.parse("x^2*y - 2*y + 7")
    assert f.evaluate({"x": Fraction(2), "y": Fraction(3)}) == 12 - 6 + 7
    assert f.evaluate({}) == 7


# ---------------------------------------------------------------------------
# packed monomials


PACK_ORDERS = [GREVLEX, LEX, EliminationBlock(2)]
NPACK = 5


@st.composite
def fitting_exps(draw, vbits):
    """Exponent tuples whose total degree is below 2**vbits, the monomials
    a packing holds as basis leads."""
    e = draw(st.lists(st.integers(0, (1 << vbits) - 1), min_size=NPACK,
                      max_size=NPACK))
    while sum(e) >= 1 << vbits:
        e[e.index(max(e))] -= 1
    return tuple(e)


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("order", PACK_ORDERS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_key_order_matches_order_key(order, data):
    vbits = data.draw(st.integers(1, 4))
    a, b, c = (data.draw(fitting_exps(vbits)) for _ in range(3))
    pk = order.packing(NPACK, vbits)
    key = order.key
    da, db, dc = (pk.pack(e) for e in (a, b, c))
    assert _sign(pk.key(da) - pk.key(db)) == _sign(
        (key(a) > key(b)) - (key(a) < key(b)))
    # keys add under products, and products keep the order
    ab = tuple(x + y for x, y in zip(a, b))
    assert pk.key(da) + pk.key(db) == pk.key(da + db)
    kab, kc = pk.key(da) + pk.key(db), pk.key(dc)
    assert _sign(kab - kc) == _sign((key(ab) > key(c)) - (key(ab) < key(c)))


@pytest.mark.parametrize("order", PACK_ORDERS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_summed_keys_order_any_carry_free_monomial(order, data):
    # reduction shifts keys by differences, so any monomial whose fields
    # stay below 2**(vbits+1) gets the sum of its variables' keys
    vbits = data.draw(st.integers(1, 4))
    pk = order.packing(NPACK, vbits)
    units = [pk.key(pk.pack(tuple(int(i == j) for j in range(NPACK))))
             for i in range(NPACK)]
    exps = st.tuples(*[st.integers(0, 2 * pk.half - 1)] * NPACK)
    a, b = data.draw(exps), data.draw(exps)
    # a's first two exponents swapped and the rest at their largest: the
    # same degree in the first block, where the second must not outweigh it
    c = (a[1], a[0]) + (2 * pk.half - 1,) * (NPACK - 2)
    key = order.key
    for x, y in ((a, b), (a, c)):
        kx, ky = (sum(n * u for n, u in zip(e, units)) for e in (x, y))
        assert _sign(kx - ky) == _sign((key(x) > key(y)) - (key(x) < key(y)))


@pytest.mark.parametrize("order", PACK_ORDERS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_divides_and_lcm_match_tuples(order, data):
    vbits = data.draw(st.integers(1, 4))
    a, b, c = (data.draw(fitting_exps(vbits)) for _ in range(3))
    pk = order.packing(NPACK, vbits)
    da, db, dc = (pk.pack(e) for e in (a, b, c))
    assert (not (db - da) & pk.guard) == divides(a, b)
    assert pk.unpack(pk.lcm(da, db)) == tuple(max(x, y) for x, y in zip(a, b))
    # a product may set guard bits, but a passed test is never wrong
    if not (db + dc - da) & pk.guard:
        assert divides(a, tuple(x + y for x, y in zip(b, c)))


@pytest.mark.parametrize("order", PACK_ORDERS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pack_unpack_round_trip(order, data):
    vbits = data.draw(st.integers(0, 4))
    e = data.draw(fitting_exps(vbits))
    pk = order.packing(NPACK, vbits)
    d = pk.pack(e)
    assert pk.fits(d)
    assert pk.unpack(d) == e
    assert pk.unpack_terms(pk.pack_terms([(e, Fraction(3))])) == ((e, 3),)
    with pytest.raises(ValueError, match="packed fields"):
        pk.pack(e[:-1] + (e[-1] + (1 << vbits) - sum(e),))


class RecordingValues(dict):
    """A point that records the names `evaluate` looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = set()

    def get(self, name, default=None):
        self.asked.add(name)
        return super().get(name, default)


def test_evaluate_looks_up_only_the_variables_in_use():
    ring = PolyRing(tuple(f"x{i}" for i in range(10)))
    f = ring.parse("x1^2*x3 - 3*x7 + 1")
    point = RecordingValues({"x1": Fraction(1, 2), "x3": 4, "x9": 5, "w": 2})
    # x7 is unlisted, so it counts as zero
    assert f.evaluate(point) == 1 - 0 + 1
    assert point.asked == {"x1", "x3", "x7"}
    assert ring.parse("x0*x1 + x2").evaluate({"x1": 3, "x2": 2}) == 2
    assert ring.zero().evaluate({"x1": 3}) == 0


# ---------------------------------------------------------------------------
# the term-cost paths against the constructions they replaced


@settings(max_examples=200, deadline=None)
@given(e=st.lists(st.integers(0, 6), max_size=12).map(tuple),
       block=st.integers(0, 12))
def test_order_keys_equal_generator_built_tuples(e, block):
    assert GREVLEX.key(e) == (sum(e), tuple(-x for x in e))
    assert LEX.key(e) == tuple(x for x in reversed(e))
    head, tail = e[:block], e[block:]
    assert EliminationBlock(block).key(e) == (
        sum(head), tuple(-x for x in head), sum(tail), tuple(-x for x in tail))


def substitute(f, images, target):
    """f with each variable replaced by its image, by Polynomial arithmetic."""
    out = target.zero()
    for e, c in f.terms:
        t = target.const(c)
        for g, k in zip(images, e):
            t = t * g ** k
        out = out + t
    return out


COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(5, 7))


@st.composite
def monomial_maps(draw):
    """A monomial map between small rings, its images drawn with repeats
    allowed, and a polynomial of its source."""
    ns, nt = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    source = PolyRing(tuple(f"x{i}" for i in range(ns)))
    target = PolyRing(tuple(f"y{j}" for j in range(nt)))
    image = st.tuples(st.tuples(*[st.integers(0, 3)] * nt), st.sampled_from(COEFFS))
    images = [target.from_terms([t]) for t in draw(st.lists(
        image, min_size=ns, max_size=ns))]
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * ns), st.sampled_from(COEFFS))
    f = source.from_terms(draw(st.lists(term, max_size=5)))
    return RingMap(source, target, images), f


@settings(max_examples=200, deadline=None)
@given(case=monomial_maps())
def test_monomial_ring_map_equals_substitution(case):
    phi, f = case
    assert phi._monomial
    assert phi(f) == substitute(f, phi.images, phi.target)


def test_monomial_ring_map_repeated_targets_and_coefficients():
    src, dst = PolyRing(("a", "b", "c")), PolyRing(("u", "v", "w"))
    images = [dst.parse("2*u*w"), dst.parse("2*u*w"),
              dst.const(Fraction(-1, 3)) * dst.parse("w^2")]
    phi = RingMap(src, dst, images)
    f = src.parse("a^2*c - 3*a*b*c + b^2*c + 4*c^3 - b")
    assert phi._monomial
    assert phi(f) == substitute(f, images, dst)
    # a and b share an image, so a^2*c, a*b*c and b^2*c collect into one term
    assert phi(src.parse("a^2*c - 2*a*b*c + b^2*c")) == dst.zero()


def test_from_terms_drops_cancelled_terms(xy):
    x, y = (1, 0), (0, 1)
    f = xy.from_terms([(x, Fraction(1)), (y, Fraction(2)), (x, Fraction(-1)),
                       (y, Fraction(1, 2)), ((0, 0), Fraction(3)),
                       ((0, 0), Fraction(-3))])
    assert f.terms == ((y, Fraction(5, 2)),)
    assert xy.from_terms([(x, Fraction(1)), (x, Fraction(-1))]).terms == ()
    # int coefficients are read as Fractions
    g = xy.from_terms([(x, 1), (y, -1), (y, 3)])
    assert g.terms == ((y, Fraction(2)), (x, Fraction(1)))
    assert all(type(c) is Fraction for _, c in g.terms)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_degree_of_exps_equals_dense_sum(data):
    rows, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
    entries = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                 min_size=rows, max_size=rows))
    e = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple))
    grading = Grading(IntMatrix.from_rows(entries))
    assert grading.degree_of_exps(e) == tuple(
        sum(row[i] * e[i] for i in range(n)) for row in entries)


# ---------------------------------------------------------------------------
# operators on mixed operands


@pytest.mark.parametrize("other", [0.5, "a", None], ids=repr)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=lambda op: op.__name__)
def test_unsupported_operands_raise_type_error(xy, op, other):
    x = xy.var("x")
    with pytest.raises(TypeError):
        op(x, other)
    with pytest.raises(TypeError):
        op(other, x)


def test_numbers_on_the_left(xy):
    x, y = xy.gens()
    assert 1 + x == x + 1 == xy.parse("x + 1")
    assert 1 - x == xy.parse("1 - x")
    assert Fraction(1, 2) + x == x + Fraction(1, 2)
    assert Fraction(1, 2) - x == xy.const(Fraction(1, 2)) - x
    assert 0 - x == -x and 3 - xy.const(3) == xy.zero()
    assert sum([x, y]) == x + y
    assert 2 * x == x * 2 == x + x
