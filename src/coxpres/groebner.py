"""Buchberger-based ideal arithmetic.

Normal forms, reduced Groebner bases, ideal equality, elimination,
saturation, Krull dimension and toric (lattice) kernels of monomial maps.
All computations are exact over the rationals and deterministic. The
Buchberger core computes on integer coefficients: a packed polynomial is
integer rows over one common denominator, and Fractions appear only where
Polynomials are packed and unpacked.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .intlinalg import IntMatrix, kernel_basis
from .polyring import (GREVLEX, EliminationBlock, Packing, Polynomial,
                       PolyRing, merge_rows)

DEFAULT_PAIR_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a Groebner run consumes more S-pairs than allowed."""

    def __init__(self, pairs: int, budget: int):
        super().__init__(
            f"Groebner pair budget exhausted: {pairs} pairs processed, budget {budget}; "
            f"raise the budget to continue")
        self.pairs = pairs
        self.budget = budget


def _overflow(packing: Packing) -> ValueError:
    return ValueError(f"exponent overflow: a monomial outgrew the "
                      f"{packing.vbits}-bit packed fields")


class _Packed:
    """A polynomial in packed form: rows (key, packed exponents, integer
    coefficient) of one packing, strictly descending by key, standing for
    the rows divided by the nonzero integer `den`."""

    __slots__ = ("packing", "terms", "den")

    def __init__(self, packing: Packing, terms: list, den: int = 1):
        self.packing = packing
        self.terms = terms
        self.den = den

    def __bool__(self):
        return bool(self.terms)


def _pack(packing: Packing, f: Polynomial) -> _Packed:
    """f with its denominators cleared: integer rows over their lcm."""
    den = lcm(*[c.denominator for _, c in f.terms])
    return _Packed(packing, packing.pack_terms(
        [(e, c.numerator * (den // c.denominator)) for e, c in f.terms]), den)


def _unpack(ring: PolyRing, f: _Packed) -> Polynomial:
    return Polynomial(ring, f.packing.unpack_terms(f.terms, f.den))


def _primitive(rows: list) -> list:
    """The rows divided by the gcd of their coefficients, signed so that
    the leading coefficient is positive."""
    g = gcd(*[c for _, _, c in rows])
    if rows[0][2] < 0:
        g = -g
    if g == 1:
        return rows
    return [(k, d, c // g) for k, d, c in rows]


class _Divisors:
    """Divisor table of a basis, in basis order.

    One entry (leading packed exponents, leading key, leading coeff, tail
    rows, packed polynomial) per element, each element kept in primitive
    form, which generates the same ideal. A leading monomial divides d
    when d minus it has no guard bit set; for a d with a guard bit of its
    own the test can miss, and `_reduce` then refuses the remainder.
    """

    __slots__ = ("packing", "entries")

    def __init__(self, packing: Packing):
        self.packing = packing
        self.entries: list = []

    def add(self, g: _Packed) -> None:
        if not g:
            raise ValueError("zero polynomial in divisor list")
        rows = _primitive(g.terms)
        k, d, c = rows[0]
        # the lcm of two leads must keep its degree below the modulus
        if not self.packing.fits(d):
            raise _overflow(self.packing)
        self.entries.append((d, k, c, rows[1:], _Packed(self.packing, rows)))


def _shift(rows, k: int, d: int, c: int) -> list:
    """The rows multiplied by the term with key k, exponents d, coeff c."""
    if c == 1:
        return [(tk + k, td + d, tc) for tk, td, tc in rows]
    if c == -1:
        return [(tk + k, td + d, -tc) for tk, td, tc in rows]
    return [(tk + k, td + d, tc * c) for tk, td, tc in rows]


def _scale(rows, m: int) -> list:
    return [(k, d, c * m) for k, d, c in rows]


def _reduce(work: list, table: _Divisors) -> tuple[list, int]:
    """(r, m) with r equal to m times the full remainder of packed rows on
    division by the table, m >= 1; each head is divided by the first
    element whose leading term divides it.

    A head c*x^d over a lead lc*x^dl, with g = gcd(c, lc), turns the work
    into (lc/g)*work - (c/g)*x^(d-dl)*element: a multiple of the rational
    step, so the heads, and with them the divisor choices, are the same.
    """
    guard = table.packing.guard
    entries = table.entries
    rem: list = []
    m = 1
    i = 0
    while i < len(work):
        k, d, c = work[i]
        for entry in entries:
            if not (d - entry[0]) & guard:
                break
        else:
            i += 1
            continue
        # the shifted element's head cancels work[i] by construction
        dl, kl, lc, tail, _ = entry
        rem += work[:i]
        rest = work[i + 1:]
        if lc != 1:
            g = gcd(c, lc)
            if g != lc:
                m *= lc // g
                rem = _scale(rem, lc // g)
                rest = _scale(rest, lc // g)
            c //= g
        work = merge_rows(rest, _shift(tail, k - kl, d - dl, -c))
        i = 0
    rem += work
    # a guard bit on a kept term means a divisor test may have missed
    for t in rem:
        if t[1] & guard:
            raise _overflow(table.packing)
    return rem, m


def _remainder(f: _Packed, table: _Divisors) -> _Packed:
    rows, m = _reduce(f.terms, table)
    return _Packed(f.packing, rows, f.den * m)


def normal_form(f: Polynomial | _Packed,
                basis: Sequence[Polynomial] | _Divisors) -> Polynomial | _Packed:
    """Full remainder of f on division by `basis`.

    No term of the result is divisible by any leading term of the basis,
    and f minus the result lies in the ideal the basis generates. Each
    head is divided by the first basis element whose leading term
    divides it. The division runs on integer coefficients, and the
    result is the exact remainder of f, not a multiple of it. Takes a
    Polynomial and a sequence of Polynomials, or within `groebner_basis`
    a packed polynomial and its divisor table.
    """
    if isinstance(basis, _Divisors):
        if f.packing is not basis.packing:
            raise ValueError("mismatched packings")
        return _remainder(f, basis)
    ring = f.ring
    if any(g.ring != ring for g in basis):
        raise ValueError("mismatched ambient rings")
    packing = ring.packing([f, *basis])
    table = _Divisors(packing)
    for g in basis:
        table.add(_pack(packing, g))
    return _unpack(ring, _remainder(_pack(packing, f), table))


def _spoly(f: _Packed, g: _Packed) -> _Packed:
    """S-polynomial of the monic forms of two packed polynomials."""
    packing = f.packing
    (kf, df, cf), (kg, dg, cg) = f.terms[0], g.terms[0]
    l = packing.lcm(df, dg)
    kl = packing.key(l)
    # (cg/h)*x^(l-df)*f - (cf/h)*x^(l-dg)*g: the heads cancel, and the
    # result is cf*cg/h times the S-polynomial of the monic forms
    h = gcd(cf, cg)
    return _Packed(packing, merge_rows(_shift(f.terms[1:], kl - kf, l - df, cg // h),
                                       _shift(g.terms[1:], kl - kg, l - dg, -cf // h)),
                   cf * cg // h)


def s_polynomial(f: Polynomial | _Packed,
                 g: Polynomial | _Packed) -> Polynomial | _Packed:
    """Monic S-polynomial of two Polynomials, or of two packed
    polynomials of one packing within `groebner_basis`."""
    if isinstance(f, _Packed):
        if f.packing is not g.packing:
            raise ValueError("mismatched packings")
        return _spoly(f, g)
    if f.ring != g.ring:
        raise ValueError("mismatched ambient rings")
    if not f or not g:
        raise ValueError("zero polynomial has no leading term")
    packing = f.ring.packing((f, g))
    return _unpack(f.ring, _spoly(_pack(packing, f), _pack(packing, g)))


def groebner_basis(gens: Iterable[Polynomial], ring: Optional[PolyRing] = None,
                   budget: int = DEFAULT_PAIR_BUDGET) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis by Buchberger's algorithm.

    Normal selection strategy (smallest lcm first) with the product and
    chain criteria; the result is monic, pairwise tail-reduced and unique
    for the ring's order. Raises BudgetExceeded past `budget` S-pairs, and
    ValueError if an exponent outgrows the packed fields.
    """
    gens = [g for g in gens if g]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from empty generator list")
        ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators span several rings")
    if not gens:
        return ()
    packing = ring.packing(gens)
    guard, lcm, key, degree = packing.guard, packing.lcm, packing.key, packing.degree

    table = _Divisors(packing)
    entries = table.entries
    leads: list[int] = []
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def add(r):
        table.add(r)
        j = len(leads)
        dj = entries[j][0]
        for i, di in enumerate(leads):
            l = lcm(di, dj)
            # (i, j) is unique, so the lcm riding last is never compared
            heapq.heappush(heap, (degree(l), key(l), i, j, l))
            pending.add((i, j))
        leads.append(dj)

    def chain(i, j, l):
        # some k divides the lcm and both companion pairs were treated
        for k, dk in enumerate(leads):
            if (not (l - dk) & guard and k != i and k != j
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    for g in sorted((_pack(packing, g) for g in gens), key=lambda p: p.terms[0][0]):
        r = normal_form(g, table) if entries else g
        if r:
            add(r)

    processed = 0
    while heap:
        _, _, i, j, l = heapq.heappop(heap)
        pending.discard((i, j))
        # product criterion: coprime leading monomials
        if l == leads[i] + leads[j] or chain(i, j, l):
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceeded(processed, budget)
        r = normal_form(s_polynomial(entries[i][4], entries[j][4]), table)
        if r:
            add(r)

    return _reduce_basis(ring, table)


def _reduce_basis(ring: PolyRing, table: _Divisors) -> tuple[Polynomial, ...]:
    packing = table.packing
    guard = packing.guard
    # minimal: ascending by leading monomial, keep only fresh leads
    keep = _Divisors(packing)
    for entry in sorted(table.entries, key=lambda t: t[1]):
        d = entry[0]
        if not any(not (d - e[0]) & guard for e in keep.entries):
            keep.entries.append(entry)
    if len(keep.entries) == 1:
        return (_unpack(ring, _Packed(packing, keep.entries[0][4].terms,
                                      keep.entries[0][2])),)
    # reduced: tail-reduce every survivor against the others. A head
    # divides no smaller monomial, so no element ever reduces its own
    # tail, and the whole table gives the same remainder as the others.
    # The monic element is x^d plus the tail's remainder over lc.
    out = []
    for d, k, lc, tail, _ in keep.entries:
        r = normal_form(_Packed(packing, tail), keep)
        out.append(Polynomial(ring, packing.unpack_terms([(k, d, 1)])
                              + packing.unpack_terms(r.terms, lc * r.den)))
    return tuple(out)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Ideal presentation: ambient ring, generators, cached reduced basis."""

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator outside ambient ring")
        self._gb: Optional[tuple[Polynomial, ...]] = None

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"

    def groebner(self, budget: int = DEFAULT_PAIR_BUDGET) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = groebner_basis(self.gens, self.ring, budget=budget)
        return self._gb

    def contains(self, f: Polynomial, budget: int = DEFAULT_PAIR_BUDGET) -> bool:
        return not normal_form(f, self.groebner(budget)) if f else True


def ideal_equal(a: Ideal, b: Ideal, budget: int = DEFAULT_PAIR_BUDGET) -> bool:
    """Whether two presentations generate the same ideal."""
    if a.ring != b.ring:
        raise ValueError("ambient mismatch")
    return a.groebner(budget) == b.groebner(budget)


def eliminate(a: Ideal, k: int, budget: int = DEFAULT_PAIR_BUDGET) -> Ideal:
    """Intersect with the subring that omits the first k variables.

    The variables to eliminate must occupy the first k table positions.
    The result lives in the smaller ring under the default grevlex order,
    with its reduced basis known.
    """
    ring = a.ring
    if not 0 <= k <= ring.nvars:
        raise ValueError("bad elimination block size")
    elim_ring = PolyRing(ring.names, EliminationBlock(k))
    gb = groebner_basis([elim_ring.from_terms(g.terms) for g in a.gens],
                        elim_ring, budget=budget)
    sub = PolyRing(ring.names[k:], GREVLEX)
    kept = []
    for g in gb:
        if all(all(x == 0 for x in e[:k]) for e, _ in g.terms):
            kept.append(sub.from_terms([(e[k:], c) for e, c in g.terms]))
    return _with_basis(sub, kept)


def _with_basis(ring: PolyRing, basis: list[Polynomial]) -> Ideal:
    """The ideal of a reduced basis, cached as its own: the part of a
    reduced elimination basis free of the eliminated variables is the
    reduced basis of the elimination ideal under grevlex, which is what
    EliminationBlock orders the remaining variables by."""
    ideal = Ideal(ring, basis)
    ideal._gb = ideal.gens
    return ideal


def saturate(a: Ideal, f: Polynomial, budget: int = DEFAULT_PAIR_BUDGET) -> Ideal:
    """Saturation a : f^infinity via one auxiliary-variable elimination.

    Under a grevlex ring the result comes with its reduced basis known."""
    if not f:
        raise ValueError("cannot saturate by zero")
    ring = a.ring
    if f.ring != ring:
        raise ValueError("mismatched ambient rings")
    aux = "_w"
    while aux in ring.index:
        aux = "_" + aux
    big = PolyRing((aux,) + ring.names, EliminationBlock(1))

    def lift(p: Polynomial) -> Polynomial:
        return big.from_terms([((0,) + e, c) for e, c in p.terms])

    gens = [lift(g) for g in a.gens]
    gens.append(big.one() - big.var(aux) * lift(f))
    gb = groebner_basis(gens, big, budget=budget)
    kept = []
    for g in gb:
        if all(e[0] == 0 for e, _ in g.terms):
            kept.append(ring.from_terms([(e[1:], c) for e, c in g.terms]))
    return _with_basis(ring, kept) if ring.order == GREVLEX else Ideal(ring, kept)


def krull_dimension(a: Ideal, budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Dimension of the affine zero set.

    Equals the largest number of variables independent modulo the leading
    term ideal: no leading monomial of the reduced basis may be supported
    inside the chosen variable set.
    """
    return monomial_dimension(a.ring.nvars,
                              [g.leading_exps() for g in a.groebner(budget)])


def monomial_dimension(nvars: int, exps: Iterable[Sequence[int]]) -> int:
    """Dimension of the zero set of the monomial ideal generated by the
    monomials with exponent vectors `exps` in `nvars` variables: nvars
    minus the fewest variables that meet every support (Kredel and
    Weispfenning, J. Symbolic Comput. 6, 1988). A leading term ideal has
    the dimension of its ideal, under any monomial order."""
    supports = [sum(1 << i for i, x in enumerate(e) if x) for e in exps]
    if 0 in supports:
        raise ValueError("empty variety")
    return nvars - _min_hitting_set(supports)


def _min_hitting_set(sets: list[int]) -> int:
    """Smallest number of elements meeting every set, each set a nonzero
    bitmask (branch and bound over the minimal sets)."""
    sets = _minimal(sets)
    return _hitting(sets, len(sets))


def _minimal(sets: Iterable[int]) -> list[int]:
    """The sets that contain no other set of the family, each once."""
    out: list[int] = []
    for s in sorted(set(sets), key=int.bit_count):
        if all(t & ~s for t in out):
            out.append(s)
    return out


def _hitting(sets: list[int], bound: int) -> int:
    """min(bound, smallest hitting set) of a family of minimal sets.

    A module-level function, not a closure: a closure that calls itself
    is a reference cycle, which would keep its frames alive until the
    cyclic collector happens to run.
    """
    # the element of a singleton is in every hitting set
    forced = 0
    while True:
        single = 0
        for s in sets:
            if not s & (s - 1):
                single |= s
        if not single:
            break
        forced += single.bit_count()
        sets = [s for s in sets if not s & single]
    if not sets or forced >= bound:
        return min(forced, bound)
    # pairwise disjoint sets each need an element of their own
    used = packed = 0
    for s in sorted(sets, key=int.bit_count):
        if not s & used:
            used |= s
            packed += 1
    if forced + packed >= bound:
        return bound
    union = 0
    for s in sets:
        union |= s
    bit, most = 0, 0
    while union:
        b = union & -union
        union ^= b
        k = sum(1 for s in sets if s & b)
        if k > most:
            bit, most = b, k
    # take the most frequent element, or drop it from every set; no set
    # is a singleton now, so none becomes empty
    rest = bound - forced
    best = 1 + _hitting([s for s in sets if not s & bit], rest - 1)
    best = _hitting(_minimal([s & ~bit for s in sets]), best)
    return forced + best


def weighted_basis(a: Ideal, weights: Sequence[int], var: str,
                   budget: int = DEFAULT_PAIR_BUDGET) -> tuple[Polynomial, ...]:
    """Reduced basis of a w-homogeneous ideal under the w-weighted grevlex
    order with `var` smallest, given as its image under x_i -> x_i**w_i.

    The image lives in the grevlex ring of the same names with `var` moved
    to table position 0, the grevlex-smallest place; the substitution keeps
    both the order and divisibility, so Buchberger on the image is the
    weighted computation. Bayer's criterion (Bayer 1982; Eisenbud,
    Commutative Algebra, Prop. 15.12) reads off the result: a : var**inf
    equals a exactly when no leading term contains `var`, and
    in(a + (var)) = in(a) + (var). Raises ValueError unless every weight is
    positive and every generator is w-homogeneous, which the criterion
    needs.
    """
    ring = a.ring
    if len(weights) != ring.nvars or any(w < 1 for w in weights):
        raise ValueError("need one positive weight per variable")
    if var not in ring.index:
        raise ValueError(f"unknown variable {var!r}")
    v = ring.index[var]
    perm = [v] + [i for i in range(ring.nvars) if i != v]
    image = PolyRing(tuple(ring.names[i] for i in perm), GREVLEX)
    gens = []
    for g in a.gens:
        if len({sum(w * x for w, x in zip(weights, e)) for e, _ in g.terms}) > 1:
            raise ValueError(f"generator not homogeneous for the weights: {g}")
        gens.append(image.from_terms(
            [(tuple(e[i] * weights[i] for i in perm), c) for e, c in g.terms]))
    return groebner_basis(gens, image, budget=budget)


def toric_kernel(e: IntMatrix, ring: Optional[PolyRing] = None,
                 budget: int = DEFAULT_PAIR_BUDGET) -> Ideal:
    """Kernel ideal of the monomial map whose exponent matrix is `e`.

    Column j of `e` is the exponent vector of the image of source
    variable j. The result is the lattice ideal: binomials from a kernel
    basis, saturated by every source variable in turn, with its reduced
    basis known. When every column sum w_j is positive the binomials are
    w-homogeneous, and each saturation is one weighted basis read by
    Bayer's criterion (Sturmfels, Groebner Bases and Convex Polytopes,
    Alg. 12.3; Hosten and Sturmfels, IPCO 1995); otherwise each is an
    elimination (`saturate`).
    """
    m = e.cols
    if ring is None:
        ring = PolyRing(tuple(f"x{i+1}" for i in range(m)))
    if ring.nvars != m:
        raise ValueError("ring size does not match exponent matrix")
    kb = kernel_basis(e)
    gens = []
    for row in kb.entries:
        plus = tuple(x if x > 0 else 0 for x in row)
        minus = tuple(-x if x < 0 else 0 for x in row)
        gens.append(ring.from_terms([(plus, Fraction(1)), (minus, Fraction(-1))]))
    ideal = Ideal(ring, [g for g in gens if g])
    if not ideal.gens:
        return ideal
    touched = sorted({i for g in ideal.gens for i in g.support_vars()})
    weights = [sum(col) for col in e.columns()]
    if min(weights) < 1:
        for i in touched:
            ideal = saturate(ideal, ring.var(ring.names[i]), budget=budget)
        return ideal
    for i in touched:
        ideal = Ideal(ring, _saturate_weighted(ideal, weights, i, budget))
    return _with_basis(ring, list(groebner_basis(ideal.gens, ring, budget=budget)))


def _saturate_weighted(a: Ideal, weights: Sequence[int], i: int,
                       budget: int) -> list[Polynomial]:
    """Generators of a : x_i**inf for a w-homogeneous ideal: the weighted
    basis with x_i smallest, each element divided by its largest power of
    x_i and mapped back to the ring of `a`."""
    ring = a.ring
    out = []
    for g in weighted_basis(a, weights, ring.names[i], budget=budget):
        # the image ring puts x_i first and keeps the other names in order
        src = [ring.index[n] for n in g.ring.names]
        low = min(x[0] for x, _ in g.terms)
        terms = []
        for x, c in g.terms:
            y = [0] * ring.nvars
            for p, j in enumerate(src):
                y[j] = x[p] // weights[j]
            y[i] -= low // weights[i]
            terms.append((tuple(y), c))
        out.append(ring.from_terms(terms))
    return out
