"""Buchberger-based ideal arithmetic.

Normal forms, reduced Groebner bases, ideal equality, elimination,
saturation, Krull dimension and toric (lattice) kernels of monomial maps.
All computations are exact over the rationals and deterministic.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .intlinalg import IntMatrix, kernel_basis
from .polyring import (EliminationBlock, Polynomial, PolyRing, _merge,
                       divides, exps_lcm, exps_sub)

DEFAULT_PAIR_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a Groebner run consumes more S-pairs than allowed."""

    def __init__(self, pairs: int, budget: int):
        super().__init__(
            f"Groebner pair budget exhausted: {pairs} pairs processed, budget {budget}; "
            f"raise the budget to continue")
        self.pairs = pairs
        self.budget = budget


def _support_mask(e) -> int:
    """Bit i set when variable i occurs in the monomial with exponents e."""
    mask = 0
    for i, x in enumerate(e):
        if x:
            mask |= 1 << i
    return mask


class _Divisors:
    """Divisor table of a basis, in basis order.

    One entry (mask, leading exps, leading coeff, polynomial) per element.
    A leading monomial divides a monomial only if its support mask has no
    bit outside the monomial's, so one AND rejects most candidates before
    the exact `divides` (Roune-Stillman divisibility masks).
    """

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PolyRing, basis: Iterable[Polynomial] = ()):
        self.ring = ring
        self.entries: list = []
        for g in basis:
            self.add(g)

    def add(self, g: Polynomial) -> None:
        if not g:
            raise ValueError("zero polynomial in divisor list")
        if g.ring != self.ring:
            raise ValueError("mismatched ambient rings")
        e, c = g.terms[0]
        self.entries.append((_support_mask(e), e, c, g))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of f on division by `basis`.

    No term of the result is divisible by any leading term of the basis,
    and f minus the result lies in the ideal the basis generates. Each
    head is divided by the first basis element whose leading term
    divides it.
    """
    ring = f.ring
    if isinstance(basis, _Divisors):
        if ring != basis.ring:
            raise ValueError("mismatched ambient rings")
        table = basis
    else:
        table = _Divisors(ring, basis)
    key = ring.order.key
    entries = table.entries
    work = f.terms
    rem: list = []
    while work:
        e, c = work[0]
        outside = ~_support_mask(e)
        for mask, le, lc, g in entries:
            if not mask & outside and divides(le, e):
                break
        else:
            rem.append((e, c))
            work = work[1:]
            continue
        # adding -(c/lc)·shift·g cancels the head by construction
        work = _merge(key, work, g.term_mul(exps_sub(e, le), -c / lc).terms)
    return Polynomial(ring, tuple(rem))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    l = exps_lcm(ef, eg)
    return (f.term_mul(exps_sub(l, ef), 1 / cf)
            - g.term_mul(exps_sub(l, eg), 1 / cg))


def groebner_basis(gens: Iterable[Polynomial], ring: Optional[PolyRing] = None,
                   budget: int = DEFAULT_PAIR_BUDGET) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis by Buchberger's algorithm.

    Normal selection strategy (smallest lcm first) with the product and
    chain criteria; the result is monic, pairwise tail-reduced and unique
    for the ring's order. Raises BudgetExceeded past `budget` S-pairs.
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
    key = ring.order.key

    table = _Divisors(ring)
    entries = table.entries
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def add(r):
        table.add(r.monic())
        j = len(entries) - 1
        ej = entries[j][1]
        for i in range(j):
            l = exps_lcm(entries[i][1], ej)
            # (i, j) is unique, so the lcm riding last is never compared
            heapq.heappush(heap, (sum(l), key(l), i, j, l))
            pending.add((i, j))

    for g in sorted(gens, key=lambda p: key(p.leading_exps())):
        r = normal_form(g, table) if entries else g
        if r:
            add(r)

    processed = 0
    while heap:
        _, _, i, j, l = heapq.heappop(heap)
        pending.discard((i, j))
        mi, mj = entries[i][0], entries[j][0]
        # product criterion: coprime leading monomials
        if not mi & mj:
            continue
        # chain criterion: some k divides the lcm and both companion
        # pairs were already treated; the lcm's support is mi | mj
        outside = ~(mi | mj)
        if any(not mk & outside and k != i and k != j and divides(lk, l)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, (mk, lk, _, _) in enumerate(entries)):
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceeded(processed, budget)
        r = normal_form(s_polynomial(entries[i][3], entries[j][3]), table)
        if r:
            add(r)

    return _reduce_basis(table)


def _reduce_basis(table: _Divisors) -> tuple[Polynomial, ...]:
    ring = table.ring
    key = ring.order.key
    # minimal: ascending by leading monomial, keep only fresh leads
    keep = _Divisors(ring)
    for entry in sorted(table.entries, key=lambda t: key(t[1])):
        outside = ~entry[0]
        if not any(not mk & outside and divides(lk, entry[1])
                   for mk, lk, _, _ in keep.entries):
            keep.entries.append(entry)
    if len(keep.entries) == 1:
        return (keep.entries[0][3],)
    # reduced: tail-reduce every survivor against the others. A head
    # divides no smaller monomial, so no element ever reduces its own
    # tail, and the whole table gives the same remainder as the others.
    out = []
    for _, _, _, g in keep.entries:
        r = normal_form(Polynomial(ring, g.terms[1:]), keep)
        out.append(Polynomial(ring, g.terms[:1] + r.terms))
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

    def is_whole_ring(self, budget: int = DEFAULT_PAIR_BUDGET) -> bool:
        gb = self.groebner(budget)
        return len(gb) == 1 and sum(gb[0].leading_exps()) == 0


def ideal_equal(a: Ideal, b: Ideal, budget: int = DEFAULT_PAIR_BUDGET) -> bool:
    """Whether two presentations generate the same ideal."""
    if a.ring != b.ring:
        raise ValueError("ambient mismatch")
    return a.groebner(budget) == b.groebner(budget)


def eliminate(a: Ideal, k: int, budget: int = DEFAULT_PAIR_BUDGET) -> Ideal:
    """Intersect with the subring that omits the first k variables.

    The variables to eliminate must occupy the first k table positions.
    The result lives in the smaller ring under the default grevlex order.
    """
    from .polyring import GREVLEX
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
    return Ideal(sub, kept)


def saturate(a: Ideal, f: Polynomial, budget: int = DEFAULT_PAIR_BUDGET) -> Ideal:
    """Saturation a : f^infinity via one auxiliary-variable elimination."""
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
    return Ideal(ring, kept)


def krull_dimension(a: Ideal, budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Dimension of the affine zero set.

    Equals the largest number of variables independent modulo the leading
    term ideal: no leading monomial of the reduced basis may be supported
    inside the chosen variable set.
    """
    gb = a.groebner(budget)
    n = a.ring.nvars
    if len(gb) == 1 and sum(gb[0].leading_exps()) == 0:
        raise ValueError("empty variety")
    supports = []
    for g in gb:
        s = frozenset(i for i, x in enumerate(g.leading_exps()) if x)
        supports.append(s)
    # minimal supports only
    supports = [s for s in supports
                if not any(t < s for t in supports)]
    supports = list(set(supports))
    return n - _min_hitting_set(supports)


def _min_hitting_set(sets: list[frozenset]) -> int:
    """Smallest number of elements meeting every set (memoized search)."""
    return _hitting(frozenset(sets), {})


def _hitting(remaining: frozenset, memo: dict) -> int:
    # A module-level function, not a closure over `memo`: a closure that
    # calls itself is a reference cycle, which would keep the memo (about
    # 21 MB at (4,4)) alive until the cyclic collector happens to run.
    if not remaining:
        return 0
    got = memo.get(remaining)
    if got is not None:
        return got
    pivot = min(remaining, key=len)
    out = min(1 + _hitting(frozenset(s for s in remaining if v not in s), memo)
              for v in sorted(pivot))
    memo[remaining] = out
    return out


def toric_kernel(e: IntMatrix, ring: Optional[PolyRing] = None,
                 budget: int = DEFAULT_PAIR_BUDGET) -> Ideal:
    """Kernel ideal of the monomial map whose exponent matrix is `e`.

    Column j of `e` is the exponent vector of the image of source
    variable j. The result is the lattice ideal: binomials from a kernel
    basis, saturated by every source variable in turn.
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
    for i in touched:
        ideal = saturate(ideal, ring.var(ring.names[i]), budget=budget)
    return ideal
