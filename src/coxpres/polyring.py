"""Multivariate polynomials over exact rationals.

A ring fixes an ordered variable table and a monomial order; polynomials
are immutable term tuples (exponent tuple, Fraction), sorted descending.
Ring maps substitute a target polynomial for every source variable.
Each order also packs exponent tuples into ints (`Packing`), the form
the Buchberger engine computes in.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Optional

from .intlinalg import Frozen, IntMatrix

Exps = tuple[int, ...]
Term = tuple[Exps, Fraction]

# bits of growth a packed field allows above the inputs' largest total degree
PACK_HEADROOM = 8
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """A total order on exponent tuples, given by a sort key.

    Keys compare tuple-lexicographically; larger key = larger monomial.
    All orders here refine divisibility and are compatible with
    multiplication, which keeps merged term lists sorted.
    """

    name = "order"

    def key(self, e: Exps):
        raise NotImplementedError

    def packing(self, nvars: int, vbits: int) -> "Packing":
        """The packing of this order for `nvars` variables, each exponent
        held in `vbits` bits below its field's guard bit."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self):
        return self.name


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic; the last table variable is largest."""

    name = "grevlex"

    def key(self, e: Exps):
        return (sum(e), tuple(map(neg, e)))

    def packing(self, nvars, vbits):
        # var 0 in the top field: among equal degrees, a smaller packed
        # value is the larger monomial
        m = (1 << (vbits + 1)) - 1
        top = nvars * (vbits + 1)
        return Packing(vbits, range(nvars - 1, -1, -1),
                       lambda d: ((d % m) << top) - d)


class Lex(MonomialOrder):
    """Lexicographic; the last table variable is most significant."""

    name = "lex"

    def key(self, e: Exps):
        return tuple(reversed(e))

    def packing(self, nvars, vbits):
        # var n-1 in the top field: the packed value is the key
        return Packing(vbits, range(nvars), lambda d: d)


class EliminationBlock(MonomialOrder):
    """Eliminates the first `block` variables: any monomial touching the
    block beats any monomial outside it; grevlex inside each part."""

    def __init__(self, block: int):
        self.block = block
        self.name = f"elim({block})"

    def key(self, e: Exps):
        head, tail = e[: self.block], e[self.block :]
        return (sum(head), tuple(map(neg, head)), sum(tail), tuple(map(neg, tail)))

    def packing(self, nvars, vbits):
        # the grevlex layout: the head block's fields sit above the tail's,
        # and each block's grevlex key is its degree over its fields. The
        # tail key is below 2**low, since a tail field never exceeds m.
        w = vbits + 1
        m = (1 << w) - 1
        k = min(self.block, nvars)
        t = nvars - k
        hbits, tbits = k * w, t * w
        low = tbits + w + t.bit_length()
        tmask = (1 << tbits) - 1

        def key(d):
            h, tl = d >> tbits, d & tmask
            return ((((h % m) << hbits) - h) << low) + ((tl % m) << tbits) - tl

        return Packing(vbits, range(nvars - 1, -1, -1), key)


GREVLEX = Grevlex()
LEX = Lex()


class Packing:
    """Exponent tuples packed into ints, laid out for one monomial order.

    Each variable owns a field of vbits + 1 bits whose top bit is a guard
    bit; a packed value is guard-clear when every exponent is below
    `half` = 2**vbits. Guard-clear values add without a carry between
    fields, so a monomial product is one addition, and d1 divides d2
    exactly when d2 - d1 has no guard bit set. `key(d)` is an int whose
    order is the order's `key` order and which adds under products; it
    reads degrees as d % (2**(vbits+1) - 1), exact while the degree is
    below that modulus, which holds for the lcm of two `fits` values.
    A packing remembers the exponent tuples it packs and unpacks, so that
    equal monomials of its inputs and outputs share one tuple; unit
    coefficients, most of those of a reduced basis, share one Fraction.
    Rows carry whatever coefficients they are given; the Buchberger core
    gives them integers.
    """

    __slots__ = ("vbits", "half", "guard", "shifts", "fmask", "key", "_exps")

    def __init__(self, vbits: int, fields: Iterable[int], key):
        w = vbits + 1
        self.vbits = vbits
        self.half = 1 << vbits
        self.fmask = (1 << w) - 1
        self.shifts = tuple(f * w for f in fields)
        self.guard = sum(self.half << s for s in self.shifts)
        self.key = key
        self._exps: dict[int, Exps] = {}

    def pack(self, e: Exps) -> int:
        """The packed value of a monomial of degree below `half`, the
        monomials whose `key` the modulus reads right."""
        if sum(e) >= self.half:
            raise ValueError(f"degree {sum(e)} beyond {self.vbits}-bit packed fields")
        return sum(x << s for x, s in zip(e, self.shifts))

    def unpack(self, d: int) -> Exps:
        # from a list, not a generator, for an exact-size tuple
        fmask = self.fmask
        return tuple([(d >> s) & fmask for s in self.shifts])

    def degree(self, d: int) -> int:
        return d % self.fmask

    def fits(self, d: int) -> bool:
        """Guard-clear with total degree below `half`."""
        return not d & self.guard and sum(self.unpack(d)) < self.half

    def lcm(self, a: int, b: int) -> int:
        # the guard bit of each field of (a | guard) - b stays set where
        # a's exponent is at least b's; spread it over the field below
        g = ((a | self.guard) - b) & self.guard
        g -= g >> self.vbits
        return (a & g) | (b & ~g)

    def pack_terms(self, terms: Iterable[Term]) -> list:
        """(key, packed exponents, coefficient) rows of a term list."""
        key, pack, seen = self.key, self.pack, self._exps
        rows = []
        for e, c in terms:
            d = pack(e)
            seen[d] = e
            rows.append((key(d), d, c))
        return rows

    def unpack_terms(self, rows, den: int = 1) -> tuple[Term, ...]:
        """The terms of rows whose coefficients are divided by `den`."""
        seen, unpack = self._exps, self.unpack
        out = []
        for _, d, c in rows:
            e = seen.get(d)
            if e is None:
                e = seen[d] = unpack(d)
            out.append((e, _ONE if c == den else _MINUS_ONE if c == -den
                        else Fraction(c, den)))
        return tuple(out)


# ---------------------------------------------------------------------------
# rings


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*|\+|-)")


class PolyRing:
    """Polynomial ring Q[variables] with a fixed monomial order."""

    def __init__(self, names: Iterable[str], order: MonomialOrder = GREVLEX):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.order = order
        self.index = {n: i for i, n in enumerate(self.names)}
        self.nvars = len(self.names)
        self._zero_exps = (0,) * self.nvars

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.names == other.names
                and self.order == other.order)

    def __hash__(self):
        return hash((self.names, self.order))

    def __repr__(self):
        return f"PolyRing({len(self.names)} vars, {self.order!r})"

    def packing(self, polys: Iterable["Polynomial"]) -> Packing:
        """The order's packing whose fields hold every monomial of `polys`
        with PACK_HEADROOM bits to spare; a field's width is set by the
        largest total degree, which bounds every exponent."""
        top = max((sum(e) for p in polys for e, _ in p.terms), default=0)
        return self.order.packing(self.nvars, top.bit_length() + PACK_HEADROOM)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, ((self._zero_exps, c),))

    def var(self, name: str) -> "Polynomial":
        e = [0] * self.nvars
        e[self.index[name]] = 1
        return Polynomial(self, ((tuple(e), Fraction(1)),))

    def gens(self) -> list["Polynomial"]:
        return [self.var(n) for n in self.names]

    def monomial(self, exps_by_name: dict[str, int], coeff=1) -> "Polynomial":
        e = [0] * self.nvars
        for n, k in exps_by_name.items():
            e[self.index[n]] += k
        c = Fraction(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, ((tuple(e), c),))

    def from_terms(self, terms: Iterable[Term]) -> "Polynomial":
        """The sum of the terms; an int coefficient becomes a Fraction."""
        acc: dict[Exps, Fraction] = {}
        for e, c in terms:
            if c.__class__ is not Fraction:
                c = Fraction(c)
            acc[e] = acc[e] + c if e in acc else c
        return self._from_dict(acc)

    def _from_dict(self, acc: dict[Exps, Fraction]) -> "Polynomial":
        key = self.order.key
        items = sorted(((e, c) for e, c in acc.items() if c != 0),
                       key=lambda t: key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def parse(self, text: str) -> "Polynomial":
        """Parse sums of integer-coefficient monomials.

        Grammar: `T_1_2`-style variable tokens, `*`, `+`, `-`, `^` with
        nonnegative integer exponents, optional integer coefficients.
        """
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad token at {text[pos:]!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
        terms: dict[Exps, Fraction] = {}
        i = 0

        def parse_monomial():
            nonlocal i
            coeff = Fraction(1)
            exps = [0] * self.nvars
            saw_factor = False
            while i < len(tokens):
                t = tokens[i]
                if t in "+-":
                    break
                if t == "*":
                    i += 1
                    continue
                if t.isdigit():
                    coeff *= int(t)
                    i += 1
                elif t in self.index:
                    vi = self.index[t]
                    i += 1
                    k = 1
                    if i < len(tokens) and tokens[i] == "^":
                        i += 1
                        if i >= len(tokens) or not tokens[i].isdigit():
                            raise ValueError("exponent must be an integer")
                        k = int(tokens[i])
                        i += 1
                    exps[vi] += k
                else:
                    raise ValueError(f"unknown variable {t!r}")
                saw_factor = True
            if not saw_factor:
                raise ValueError("empty term")
            return tuple(exps), coeff

        sign = 1
        while i < len(tokens):
            t = tokens[i]
            if t == "+":
                i += 1
            elif t == "-":
                sign = -sign
                i += 1
            else:
                e, c = parse_monomial()
                terms[e] = terms.get(e, Fraction(0)) + sign * c
                sign = 1
        return self._from_dict(terms)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable polynomial: terms sorted strictly descending, no zeros."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple[Term, ...]):
        self.ring = ring
        self.terms = terms

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_exps(self) -> Exps:
        return self.leading_term()[0]

    def leading_coeff(self) -> Fraction:
        return self.leading_term()[1]

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e, _ in self.terms)

    def support_vars(self) -> set[int]:
        out: set[int] = set()
        for e, _ in self.terms:
            out.update(i for i, x in enumerate(e) if x)
        return out

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return Polynomial(self.ring, tuple((e, c / lc) for e, c in self.terms))

    # -- arithmetic

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mismatched ambient rings")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return Polynomial(self.ring, _merge(self.ring.order.key, self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return Polynomial(self.ring, _merge(self.ring.order.key, self.terms, (-other).terms))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return Polynomial(self.ring, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, tuple((e, k * c) for e, k in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        acc: dict[Exps, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return self.ring._from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _coerce(self, other):
        """`other` as a Polynomial: a constant for an int or Fraction,
        NotImplemented for any other type."""
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return other if isinstance(other, Polynomial) else NotImplemented

    def term_mul(self, exps: Exps, coeff: Fraction) -> "Polynomial":
        """Multiply by a single term; preserves sortedness."""
        return Polynomial(self.ring, tuple(
            (tuple(map(add, e, exps)), c * coeff) for e, c in self.terms))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- evaluation and display

    def evaluate(self, values: dict[str, Fraction]) -> Fraction:
        """Evaluate at a point; unlisted variables count as zero."""
        # only the variables some term uses are looked up and converted
        names = self.ring.names
        vals: list = [None] * len(names)
        out = Fraction(0)
        for e, c in self.terms:
            t = c
            for i, k in enumerate(e):
                if k:
                    v = vals[i]
                    if v is None:
                        v = vals[i] = Fraction(values.get(names[i], 0))
                    if v == 0:
                        t = Fraction(0)
                        break
                    t *= v ** k
            out += t
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            for name, k in zip(self.ring.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    __repr__ = __str__


def merge_rows(a, b) -> list:
    """Sum of two term lists sorted strictly descending by their first
    field, a key that determines the monomial; rows are (key, monomial,
    coefficient), and the result is descending with no zero term."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ra, rb = a[i], b[j]
        ka, kb = ra[0], rb[0]
        if ka == kb:
            c = ra[2] + rb[2]
            if c:
                out.append((ka, ra[1], c))
            i += 1
            j += 1
        elif ka > kb:
            out.append(ra)
            i += 1
        else:
            out.append(rb)
            j += 1
    out += a[i:]
    out += b[j:]
    return out


def _merge(key, a: tuple[Term, ...], b: tuple[Term, ...]) -> tuple[Term, ...]:
    """Sum of two descending term lists, descending with no zero terms.

    The same merge as `merge_rows`, for (exps, coeff) terms: it calls
    `key` only where two heads differ, so adding a short polynomial to a
    long one computes no key past the short one's last term.
    """
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea == eb:
            c = ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
        elif key(ea) > key(eb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def divides(e1: Exps, e2: Exps) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def exps_sub(e1: Exps, e2: Exps) -> Exps:
    return tuple(a - b for a, b in zip(e1, e2))


# ---------------------------------------------------------------------------
# gradings and ring maps


class Grading(Frozen):
    """Degree matrix with one column per ring variable."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        self._init(matrix)

    def degree_of_var(self, i: int) -> tuple[int, ...]:
        return self.matrix.col(i)

    def degree_of_exps(self, e: Exps) -> tuple[int, ...]:
        nonzero = [(i, k) for i, k in enumerate(e) if k]
        return tuple(sum(row[i] * k for i, k in nonzero)
                     for row in self.matrix.entries)


def multidegree(f: Polynomial, grading: Grading) -> Optional[tuple[int, ...]]:
    """Common degree of all terms, or None if inhomogeneous.

    Raises ValueError on the zero polynomial (no degree by convention).
    """
    if grading.matrix.cols != f.ring.nvars:
        raise ValueError("grading does not match ring")
    if not f.terms:
        raise ValueError("zero polynomial has no degree")
    degs = {grading.degree_of_exps(e) for e, _ in f.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


class RingMap:
    """Ring homomorphism determined by one target image per source variable."""

    def __init__(self, source: PolyRing, target: PolyRing, images: Iterable[Polynomial]):
        self.source = source
        self.target = target
        self.images = tuple(images)
        if len(self.images) != source.nvars:
            raise ValueError("need one image per source variable")
        for g in self.images:
            if g.ring != target:
                raise ValueError("image outside target ring")
        # monomial maps admit a fast exponent-vector path: each image is
        # kept as its sparse (index, exponent) pairs and its coefficient
        self._monomial = all(len(g.terms) == 1 for g in self.images)
        if self._monomial:
            self._sparse = tuple(
                (tuple((j, x) for j, x in enumerate(ie) if x), ic)
                for ie, ic in (g.terms[0] for g in self.images))

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ring != self.source:
            raise ValueError("polynomial outside source ring")
        if self._monomial:
            acc: dict[Exps, Fraction] = {}
            sparse = self._sparse
            zero = [0] * self.target.nvars
            for e, c in f.terms:
                ee = zero[:]
                for i, k in enumerate(e):
                    if k:
                        pairs, ic = sparse[i]
                        for j, x in pairs:
                            ee[j] += x * k
                        if ic != 1:
                            c *= ic ** k
                key = tuple(ee)
                acc[key] = acc[key] + c if key in acc else c
            return self.target._from_dict(acc)
        out = self.target.zero()
        for e, c in f.terms:
            t = self.target.const(c)
            for i, k in enumerate(e):
                if k:
                    t = t * self.images[i] ** k
            out = out + t
        return out

    def exponent_matrix(self) -> IntMatrix:
        """For monomial maps: column j = target exponent vector of image j."""
        if not self._monomial:
            raise ValueError("not a monomial map")
        return IntMatrix.from_cols([g.terms[0][0] for g in self.images])
