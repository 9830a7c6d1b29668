"""Cross-validation of the Buchberger engine against an independent
implementation (sympy), on random ideals and on the relation ideal."""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from coxpres.collineation import Params, cox_presentation
from coxpres.groebner import groebner_basis
from coxpres.polyring import PolyRing


def to_sympy(f, symbols):
    out = 0
    for e, c in f.terms:
        t = sp.Rational(c.numerator, c.denominator)
        for name, k in zip(f.ring.names, e):
            if k:
                t *= symbols[name] ** k
        out += t
    return out


def crosscheck(ring, gens):
    symbols = {n: sp.Symbol(n) for n in ring.names}
    # sympy ranks the first symbol largest; our table ranks the last largest
    ordered = [symbols[n] for n in reversed(ring.names)]
    mine = {sp.expand(to_sympy(f, symbols))
            for f in groebner_basis(gens, ring, budget=50_000)}
    theirs = sp.groebner([to_sympy(f, symbols) for f in gens], *ordered,
                         order="grevlex")
    # sympy clears denominators; reduced bases are monic by convention.
    # Divide by the grevlex leading coefficient via sp.LC: Poly rejects an
    # order= keyword, and Poly.monic() would divide by the lex one.
    monic = {sp.expand(e / sp.LC(e, *ordered, order="grevlex"))
             for e in theirs.exprs}
    assert mine == monic


def test_relation_ideal_basis_matches_sympy():
    pres = cox_presentation(Params(3, 3))
    crosscheck(pres.ring, list(pres.relations))


def test_random_ideals_match_sympy():
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(20240817)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = [(tuple(rng.randint(0, 2) for _ in range(3)),
                      Fraction(rng.choice([-2, -1, 1, 2, 3])))
                     for _ in range(rng.randint(1, 3))]
            f = ring.from_terms(terms)
            if f:
                gens.append(f)
        if gens:
            crosscheck(ring, gens)


def test_random_rational_ideals_match_sympy():
    # non-integral coefficients: the engine clears denominators on the way
    # in and divides by the leading coefficients on the way out
    ring = PolyRing(("w", "x", "y"))
    coeffs = [Fraction(3, 2), Fraction(-5, 7), Fraction(1, 3), Fraction(-7, 4),
              Fraction(-2), Fraction(1)]
    rng = random.Random(20261018)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = [(tuple(rng.randint(0, 2) for _ in range(3)), rng.choice(coeffs))
                     for _ in range(rng.randint(1, 3))]
            f = ring.from_terms(terms)
            if f:
                gens.append(f)
        if gens:
            crosscheck(ring, gens)
