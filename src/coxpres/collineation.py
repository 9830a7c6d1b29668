"""Cox-ring presentations of spaces of complete rank-2 collineations.

For parameters (c, d) this module builds the Pluecker relations, the
presentation of the Cox ring of X(2,c,d) (generators, relations,
Z^3-grading), the torus weight matrices, the Gale-dual matrix whose
columns span the quotient-fan rays, the quotient comorphism with its
cancellation bookkeeping, the Segre-type factorization used to analyse
the zero locus of the distinguished variable, GIT witness points, and
the torus-invariant local equation of the exceptional divisor.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import Cone
from .intlinalg import Frozen, IntMatrix
from .polyring import GREVLEX, Grading, Polynomial, PolyRing, RingMap

TINF = "Tinf"
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def pair_name(i: int, j: int) -> str:
    return f"T_{i}_{j}"


class Params(Frozen):
    """Dimensions (c, d) of the two ambient vector spaces; both >= 2."""

    __slots__ = ("c", "d")

    def __init__(self, c: int, d: int):
        if c < 2 or d < 2:
            raise ValueError("parameters must satisfy c >= 2 and d >= 2")
        self._init(c, d)

    @property
    def n(self) -> int:
        return (self.c + self.d) * (self.c + self.d - 1) // 2

    @property
    def a_plus(self) -> int:
        return self.c * (self.c - 1) // 2

    @property
    def a_zero(self) -> int:
        return self.c * self.d

    @property
    def a_minus(self) -> int:
        return self.d * (self.d - 1) // 2

    @property
    def regime(self) -> str:
        if self.c == 2 and self.d == 2:
            return "p3"
        if self.d == 2:
            return "c2"
        if self.c == 2:
            return "d2"
        return "general"


def block_pairs(p: Params) -> list[tuple[int, int]]:
    """Index pairs in block order: both <= c, then mixed, then both > c,
    lexicographic inside each block."""
    c, m = p.c, p.c + p.d
    plus = [(i, j) for i in range(1, c + 1) for j in range(i + 1, c + 1)]
    mixed = [(i, j) for i in range(1, c + 1) for j in range(c + 1, m + 1)]
    minus = [(i, j) for i in range(c + 1, m + 1) for j in range(i + 1, m + 1)]
    return plus + mixed + minus


def pair_block(p: Params, i: int, j: int) -> str:
    if j <= p.c:
        return "plus"
    if i <= p.c:
        return "zero"
    return "minus"


def ambient_ring(p: Params) -> PolyRing:
    """Pluecker coordinate ring in block order, no extra variable."""
    return PolyRing(tuple(pair_name(i, j) for i, j in block_pairs(p)), GREVLEX)


def presentation_ring(p: Params) -> PolyRing:
    """Block-ordered Pluecker variables with the blow-up variable last."""
    return PolyRing(tuple(pair_name(i, j) for i, j in block_pairs(p)) + (TINF,),
                    GREVLEX)


# ---------------------------------------------------------------------------
# Pluecker relations


def plucker_ring(m: int) -> PolyRing:
    names = tuple(pair_name(i, j)
                  for i, j in itertools.combinations(range(1, m + 1), 2))
    return PolyRing(names, GREVLEX)


def _plucker_poly(ring: PolyRing, i, j, k, l, tinf: bool = False) -> Polynomial:
    """T_ij T_kl - T_ik T_jl + T_il T_jk, with Tinf on the first term when
    `tinf`: three exponent tuples summed and sorted once."""
    index, zero = ring.index, [0] * ring.nvars

    def exps(*names):
        e = zero[:]
        for name in names:
            e[index[name]] = 1
        return tuple(e)

    first = (pair_name(i, j), pair_name(k, l)) + ((TINF,) if tinf else ())
    return ring.from_terms(((exps(*first), _ONE),
                            (exps(pair_name(i, k), pair_name(j, l)), _MINUS_ONE),
                            (exps(pair_name(i, l), pair_name(j, k)), _ONE)))


def plucker_relations(m: int, ring: Optional[PolyRing] = None) -> list[Polynomial]:
    """The quadratic relations T_ij T_kl - T_ik T_jl + T_il T_jk over all
    1 <= i < j < k < l <= m; empty for m < 4."""
    if m < 4:
        return []
    if ring is None:
        ring = plucker_ring(m)
    return [_plucker_poly(ring, *q)
            for q in itertools.combinations(range(1, m + 1), 4)]


# ---------------------------------------------------------------------------
# weight data


def weight_matrices(p: Params) -> tuple[IntMatrix, IntMatrix]:
    """The 2-torus weight matrix Q on the n Pluecker coordinates and the
    3-torus weight matrix on those plus the blow-up variable.

    Column blocks follow the variable block order, so the columns of the
    second matrix are exactly the presentation degrees.
    """
    col2 = {"plus": (1, 1), "zero": (1, 0), "minus": (1, -1)}
    col3 = {"plus": (1, 1, -1), "zero": (1, 0, 0), "minus": (1, -1, 0)}
    blocks = [pair_block(p, i, j) for i, j in block_pairs(p)]
    q = IntMatrix.from_cols([col2[b] for b in blocks])
    qinf = IntMatrix.from_cols([col3[b] for b in blocks] + [(0, 0, 1)])
    return q, qinf


def _difference_block(k: int) -> list[list[int]]:
    return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(k)]
            for i in range(k - 1)]


def gale_matrix_P(p: Params) -> IntMatrix:
    """Integer matrix whose columns generate the quotient-fan rays.

    Block-diagonal difference matrices over the three column blocks plus
    one closing row; its row space is a basis of the integer kernel of Q,
    and the last a_minus columns sum to (0, ..., 0, 1).
    """
    ap, a0, am = p.a_plus, p.a_zero, p.a_minus
    n = p.n
    rows: list[list[int]] = []
    offset = 0
    for k in (ap, a0, am):
        for r in _difference_block(k):
            rows.append([0] * offset + r + [0] * (n - offset - k))
        offset += k
    a_plus_row = [0] * (ap - 1) + [1]
    a_zero_row = [-1] + [0] * (a0 - 2) + [-1]
    a_minus_row = [1] + [0] * (am - 1)
    rows.append(a_plus_row + a_zero_row + a_minus_row)
    return IntMatrix.from_rows(rows)


def barycenter_ray(p: Params) -> tuple[int, ...]:
    """Primitive ray through the sum of the last a_minus Gale columns;
    this is the ray inserted by the subdivision, (0, ..., 0, 1)."""
    from .geometry import barycenter_direction
    pm = gale_matrix_P(p)
    return barycenter_direction(pm, range(p.n - p.a_minus, p.n))


# ---------------------------------------------------------------------------
# presentation


class CoxPresentation(Frozen):
    """Variables, relations and grading presenting a Cox ring."""

    __slots__ = ("params", "ring", "relations", "grading", "class_group_rank",
                 "regime")

    def __init__(self, params: Params, ring: PolyRing,
                 relations: tuple[Polynomial, ...], grading: Grading,
                 class_group_rank: int, regime: str):
        self._init(params, ring, relations, grading, class_group_rank, regime)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ring.names


def cox_presentation(p: Params) -> CoxPresentation:
    """Presentation of the Cox ring of X(2,c,d).

    For c,d > 2: Pluecker variables plus one extra variable; the relation
    of a quadruple acquires the extra factor on its first term exactly
    when the quadruple splits as i < j <= c < k < l; graded by the
    columns of the 3-row weight matrix. For d = 2 (resp. c = 2) the
    presentation is the plain Pluecker ideal with the 2-row grading; for
    c = d = 2 it is a free rank-4 polynomial ring.
    """
    if p.regime == "p3":
        ring = PolyRing(("T_0", "T_1", "T_2", "T_3"), GREVLEX)
        grading = Grading(IntMatrix.from_rows([[1, 1, 1, 1]]))
        return CoxPresentation(p, ring, (), grading, 1, "p3")
    if p.regime in ("c2", "d2"):
        ring = ambient_ring(p)
        rels = tuple(plucker_relations(p.c + p.d, ring))
        q, _ = weight_matrices(p)
        return CoxPresentation(p, ring, rels, Grading(q), 2, p.regime)
    ring = presentation_ring(p)
    c = p.c
    rels = tuple(_plucker_poly(ring, i, j, k, l, tinf=j <= c < k)
                 for i, j, k, l in itertools.combinations(range(1, c + p.d + 1), 4))
    _, qinf = weight_matrices(p)
    return CoxPresentation(p, ring, rels, Grading(qinf), 3, "general")


def quadruple_splits(p: Params, quad: tuple[int, int, int, int]) -> bool:
    """Whether i < j <= c < k < l, i.e. the relation carries the extra factor."""
    i, j, k, l = quad
    return j <= p.c < k


# ---------------------------------------------------------------------------
# quotient comorphism and cancellation


def pullback_map(p: Params) -> RingMap:
    """Comorphism of the contraction: T_ij picks up the blow-up variable
    exactly when both indices are <= c."""
    src = ambient_ring(p)
    dst = presentation_ring(p)
    images = []
    for i, j in block_pairs(p):
        if j <= p.c:
            images.append(dst.monomial({TINF: 1, pair_name(i, j): 1}))
        else:
            images.append(dst.var(pair_name(i, j)))
    return RingMap(src, dst, images)


def pullback_and_cancel(p: Params, quad: tuple[int, int, int, int],
                        _map: Optional[RingMap] = None) -> tuple[int, Polynomial]:
    """Pull a Pluecker relation back and cancel the common power of the
    blow-up variable.

    Returns (eps, r) with pullback = Tinf^eps * r; eps is the largest
    power of Tinf dividing every term after substitution.
    """
    i, j, k, l = quad
    if not (1 <= i < j < k < l <= p.c + p.d):
        raise ValueError(f"invalid quadruple {quad}")
    phi = _map if _map is not None else pullback_map(p)
    src = phi.source
    image = phi(_plucker_poly(src, i, j, k, l))
    dst = phi.target
    tpos = dst.index[TINF]
    eps = min(e[tpos] for e, _ in image.terms)
    if eps == 0:
        return 0, image
    cancelled = dst.from_terms(
        [(e[:tpos] + (e[tpos] - eps,) + e[tpos + 1:], c) for e, c in image.terms])
    return eps, cancelled


# ---------------------------------------------------------------------------
# Segre-type factorization


def single_name(k: int) -> str:
    return f"S_{k}"


def spair_name(i: int, j: int) -> str:
    return f"S_{i}_{j}"


def segre_target_ring(p: Params) -> PolyRing:
    c, m = p.c, p.c + p.d
    names = [spair_name(i, j) for i, j in itertools.combinations(range(1, c + 1), 2)]
    names += [single_name(k) for k in range(1, m + 1)]
    names += [spair_name(i, j) for i, j in itertools.combinations(range(c + 1, m + 1), 2)]
    return PolyRing(tuple(names), GREVLEX)


def segre_map(p: Params) -> RingMap:
    """T_ij maps to the pair variable on a pure block and to the product
    of the two single variables on the mixed block."""
    src = ambient_ring(p)
    dst = segre_target_ring(p)
    c = p.c
    images = []
    for i, j in block_pairs(p):
        if j <= c or i > c:
            images.append(dst.var(spair_name(i, j)))
        else:
            images.append(dst.monomial({single_name(i): 1, single_name(j): 1}))
    return RingMap(src, dst, images)


def segre_grading(p: Params) -> Grading:
    """Z-grading with single variables of degree +1 (index <= c) or -1
    (index > c) and pair variables of degree 0; the map lands in degree 0."""
    dst = segre_target_ring(p)
    row = []
    for name in dst.names:
        parts = name.split("_")
        if len(parts) == 2:
            row.append(1 if int(parts[1]) <= p.c else -1)
        else:
            row.append(0)
    return Grading(IntMatrix.from_rows([row]))


class ProofIdeals(Frozen):
    """Generator data for the factorization through the Segre-type map."""

    __slots__ = ("params", "g", "h", "h_quadruples", "sigma_images", "b_gens",
                 "b_prime_ring", "b_prime", "b_second_ring", "b_second",
                 "b_prime_renamed_ring", "b_prime_renamed",
                 "b_second_renamed_ring", "b_second_renamed")

    def __init__(self, params: Params,
                 g: tuple[Polynomial, ...],
                 h: tuple[Polynomial, ...],
                 h_quadruples: tuple[tuple[int, int, int, int], ...],
                 sigma_images: tuple[Polynomial, ...],
                 b_gens: tuple[Polynomial, ...],
                 b_prime_ring: PolyRing,
                 b_prime: tuple[Polynomial, ...],
                 b_second_ring: PolyRing,
                 b_second: tuple[Polynomial, ...],
                 b_prime_renamed_ring: PolyRing,
                 b_prime_renamed: tuple[Polynomial, ...],
                 b_second_renamed_ring: PolyRing,
                 b_second_renamed: tuple[Polynomial, ...]):
        self._init(params, g, h, h_quadruples, sigma_images, b_gens,
                   b_prime_ring, b_prime, b_second_ring, b_second,
                   b_prime_renamed_ring, b_prime_renamed,
                   b_second_renamed_ring, b_second_renamed)


def expected_sigma_image(p: Params, quad: tuple[int, int, int, int]) -> Polynomial:
    """The image of a non-split relation, written per the four-case table."""
    dst = segre_target_ring(p)
    i, j, k, l = quad
    c = p.c

    def pv(a, b):
        return dst.var(spair_name(a, b))

    def sv(a):
        return dst.var(single_name(a))

    if l <= c or i > c:
        return pv(i, j) * pv(k, l) - pv(i, k) * pv(j, l) + pv(i, l) * pv(j, k)
    if k <= c:
        return sv(l) * (pv(i, j) * sv(k) - pv(i, k) * sv(j) + sv(i) * pv(j, k))
    if j > c:
        return sv(i) * (sv(j) * pv(k, l) - sv(k) * pv(j, l) + sv(l) * pv(j, k))
    raise ValueError(f"quadruple {quad} splits; it has no table case")


def proof_ideals(p: Params) -> ProofIdeals:
    """Binomial and trinomial generators split along the Segre blocks.

    Available for c, d > 2 only.
    """
    if p.regime != "general":
        raise ValueError("proof ideals require c > 2 and d > 2")
    c, m = p.c, p.c + p.d
    src = ambient_ring(p)
    sigma = segre_map(p)
    g, h, hq = [], [], []
    for quad in itertools.combinations(range(1, m + 1), 4):
        i, j, k, l = quad
        if quadruple_splits(p, quad):
            g.append(-src.monomial({pair_name(i, k): 1, pair_name(j, l): 1})
                     + src.monomial({pair_name(i, l): 1, pair_name(j, k): 1}))
        else:
            h.append(_plucker_poly(src, i, j, k, l))
            hq.append(quad)
    sigma_images = tuple(sigma(f) for f in h)

    dst = segre_target_ring(p)

    def pv(ring, a, b):
        return ring.var(spair_name(a, b))

    def sv(ring, a):
        return ring.var(single_name(a))

    def family1(ring, lo, hi):
        return [pv(ring, i, j) * pv(ring, k, l) - pv(ring, i, k) * pv(ring, j, l)
                + pv(ring, i, l) * pv(ring, j, k)
                for i, j, k, l in itertools.combinations(range(lo, hi + 1), 4)]

    def family2(ring, lo, hi):
        return [pv(ring, i, j) * sv(ring, k) - pv(ring, i, k) * sv(ring, j)
                + sv(ring, i) * pv(ring, j, k)
                for i, j, k in itertools.combinations(range(lo, hi + 1), 3)]

    def family3(ring, lo, hi):
        return [sv(ring, j) * pv(ring, k, l) - sv(ring, k) * pv(ring, j, l)
                + sv(ring, l) * pv(ring, j, k)
                for j, k, l in itertools.combinations(range(lo, hi + 1), 3)]

    b_gens = tuple(family1(dst, 1, c) + family2(dst, 1, c)
                   + family3(dst, c + 1, m) + family1(dst, c + 1, m))

    bp_ring = PolyRing(
        tuple(spair_name(i, j) for i, j in itertools.combinations(range(1, c + 1), 2))
        + tuple(single_name(k) for k in range(1, c + 1)), GREVLEX)
    b_prime = tuple(family1(bp_ring, 1, c) + family2(bp_ring, 1, c))

    bs_ring = PolyRing(
        tuple(spair_name(i, j) for i, j in itertools.combinations(range(c + 1, m + 1), 2))
        + tuple(single_name(k) for k in range(c + 1, m + 1)), GREVLEX)
    b_second = tuple(family3(bs_ring, c + 1, m) + family1(bs_ring, c + 1, m))

    # rename the first block: the single variable S_m becomes the pair
    # (m, c+1), turning both families into Pluecker relations of G(2, c+1)
    bpr_ring = plucker_ring(c + 1)
    images = []
    for name in bp_ring.names:
        parts = [int(x) for x in name.split("_")[1:]]
        if len(parts) == 2:
            images.append(bpr_ring.var(pair_name(parts[0], parts[1])))
        else:
            images.append(bpr_ring.var(pair_name(parts[0], c + 1)))
    rename_p = RingMap(bp_ring, bpr_ring, images)
    b_prime_renamed = tuple(rename_p(f) for f in b_prime)

    # mirror for the second block: indices shift down by c, the single
    # variable S_k becomes the pair (1, k-c+1)
    bsr_ring = plucker_ring(p.d + 1)
    images = []
    for name in bs_ring.names:
        parts = [int(x) for x in name.split("_")[1:]]
        if len(parts) == 2:
            images.append(bsr_ring.var(pair_name(parts[0] - c + 1, parts[1] - c + 1)))
        else:
            images.append(bsr_ring.var(pair_name(1, parts[0] - c + 1)))
    rename_s = RingMap(bs_ring, bsr_ring, images)
    b_second_renamed = tuple(rename_s(f) for f in b_second)

    return ProofIdeals(p, tuple(g), tuple(h), tuple(hq), sigma_images, b_gens,
                       bp_ring, b_prime, bs_ring, b_second,
                       bpr_ring, b_prime_renamed, bsr_ring, b_second_renamed)


# ---------------------------------------------------------------------------
# witness points


class WitnessPoint(Frozen):
    """Sparse point in Pluecker coordinates; unlisted coordinates are 0."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[tuple[tuple[int, int], Fraction], ...]):
        self._init(coords)

    @staticmethod
    def of(assignment: dict[tuple[int, int], int | Fraction]) -> "WitnessPoint":
        return WitnessPoint(tuple(sorted(
            (ij, Fraction(v)) for ij, v in assignment.items())))

    def values_by_name(self) -> dict[str, Fraction]:
        return {pair_name(i, j): v for (i, j), v in self.coords}


def plucker_residuals(p: Params, point: WitnessPoint,
                      relations: Optional[Sequence[Polynomial]] = None) -> list[Fraction]:
    """Values of the Pluecker relations at `point`; pass `relations` to
    reuse relations already built over `ambient_ring(p)`."""
    if relations is None:
        relations = plucker_relations(p.c + p.d, ambient_ring(p))
    vals = point.values_by_name()
    return [f.evaluate(vals) for f in relations]


def orbit_cone(p: Params, point: WitnessPoint) -> Cone:
    """Cone over the 2-torus degrees of the nonvanishing coordinates."""
    q, _ = weight_matrices(p)
    pos = {ij: idx for idx, ij in enumerate(block_pairs(p))}
    cols = [q.col(pos[ij]) for ij, v in point.coords if v != 0]
    return Cone.from_generators(2, cols)


def witness_residuals(p: Params) -> tuple[tuple[WitnessPoint, list[Fraction]], ...]:
    """The two witness points, each with its Pluecker residuals; the
    relations are built once and each point is evaluated once."""
    m = p.c + p.d
    relations = plucker_relations(m, ambient_ring(p))
    points = (WitnessPoint.of({(1, 2): 1, (1, m): 1}),
              WitnessPoint.of({(1, m): 1, (m - 1, m): 1}))
    return tuple((x, plucker_residuals(p, x, relations)) for x in points)


def witness_points(p: Params) -> tuple[WitnessPoint, WitnessPoint, Cone, Cone]:
    """Two points on the Grassmannian cone whose orbit cones realize the
    two full chambers of the weight matrix."""
    (x1, res1), (x2, res2) = witness_residuals(p)
    for x, res in ((x1, res1), (x2, res2)):
        if any(r != 0 for r in res):
            raise RuntimeError(
                f"witness point {x} violates a Pluecker relation: construction bug")
    return x1, x2, orbit_cone(p, x1), orbit_cone(p, x2)


# ---------------------------------------------------------------------------
# invariant local equation


def local_equation_exponents(p: Params) -> dict[str, int]:
    """Laurent exponents of the local equation of the exceptional divisor."""
    if p.regime != "general":
        raise ValueError("local equation requires c > 2 and d > 2")
    m = p.c + p.d
    return {TINF: 1, pair_name(1, 2): 1, pair_name(p.c, p.c + 1): -2,
            pair_name(m - 1, m): 1}


def laurent_degree(p: Params, exponents: dict[str, int]) -> tuple[int, ...]:
    """Degree of a Laurent monomial under the 3-torus weight columns."""
    _, qinf = weight_matrices(p)
    names = tuple(pair_name(i, j) for i, j in block_pairs(p)) + (TINF,)
    pos = {name: idx for idx, name in enumerate(names)}
    deg = [0, 0, 0]
    for name, e in exponents.items():
        col = qinf.col(pos[name])
        for r in range(3):
            deg[r] += e * col[r]
    return tuple(deg)


def local_equation_invariance(p: Params) -> bool:
    """Whether the local equation is invariant under the 3-torus."""
    return laurent_degree(p, local_equation_exponents(p)) == (0, 0, 0)
