"""Exact rational polyhedral cones and fans.

Cones are given by integer ray generators; membership and intersection are
decided exactly (linear solves for simplicial cones, Fourier-Motzkin
otherwise). Chamber fans of 2-row weight matrices are computed by angular
sorting; quotient-fan combinatorics route through the rank-2 Gale
criterion, so the high-dimensional fans never need facet systems. The
criterion itself is decided on the 2-row weight matrix by integer cross and
dot products, without building a `Cone`.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, Sequence

from .intlinalg import Frozen, IntMatrix, kernel_basis, primitive, rank

Vec = tuple[int, ...]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross3(u: Vec, v: Vec) -> Vec:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _rot2(v: Vec) -> Vec:
    return (-v[1], v[0])


def _is_zero(v) -> bool:
    return all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# exact feasibility of  G@lam = v,  lam >= 0  (or > 0)


def _solve_coeffs(gens: Sequence[Vec], v) -> list[Fraction] | None:
    """Unique coefficient vector for linearly independent generators."""
    m = len(gens)
    k = len(v)
    # augmented system: rows over coordinates
    rows = [[Fraction(gens[j][r]) for j in range(m)] + [Fraction(v[r])]
            for r in range(k)]
    piv_cols: list[int] = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, k) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        inv = 1 / pr[c]
        rows[r] = pr = [x * inv for x in pr]
        for i in range(k):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        piv_cols.append(c)
        r += 1
    # independence assumed: every column is a pivot
    if len(piv_cols) != m:
        raise ValueError("generators not linearly independent")
    for i in range(r, k):
        if rows[i][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for i, c in enumerate(piv_cols):
        sol[c] = rows[i][m]
    return sol


def _normalize_ineq(coeffs, const):
    nums = [c.numerator for c in coeffs] + [const.numerator]
    dens = [c.denominator for c in coeffs] + [const.denominator]
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    ints = [n * (l // d) for n, d in zip(nums, dens)]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _fm_feasible(constraints, nvars: int) -> bool:
    """Decide feasibility of a system coeffs.x + const >= 0 (or > 0).

    `constraints` is a list of (coeffs tuple[Fraction], const, strict).
    Fourier-Motzkin elimination, exact over the rationals.
    """
    cur = constraints
    for t in reversed(range(nvars)):
        pos, neg, flat = [], [], []
        for co, b, s in cur:
            a = co[t]
            if a > 0:
                pos.append((co, b, s))
            elif a < 0:
                neg.append((co, b, s))
            else:
                flat.append((co[:t], b, s))
        seen = set()
        nxt = []
        for cp, bp, sp in pos:
            a = cp[t]
            for cn, bn, sn in neg:
                nb = cn[t]
                co = tuple(-nb * x + a * y for x, y in zip(cp[:t], cn[:t]))
                b = -nb * bp + a * bn
                s = sp or sn
                keyc = (_normalize_ineq(co, b), s)
                if keyc not in seen:
                    seen.add(keyc)
                    nxt.append((co, b, s))
        for co, b, s in flat:
            keyc = (_normalize_ineq(co, b), s)
            if keyc not in seen:
                seen.add(keyc)
                nxt.append((co, b, s))
        cur = nxt
    for _, b, s in cur:
        if (b <= 0) if s else (b < 0):
            return False
    return True


# ---------------------------------------------------------------------------
# cones


class Cone(Frozen):
    """Cone in Q^k given by primitive integer generators.

    For ambient dimension <= 3 the stored generators are reduced to the
    extremal rays (for pointed cones) and sorted, so equal fields mean
    equal cones.
    """

    __slots__ = ("ambient", "generators")

    def __init__(self, ambient: int, generators: tuple[Vec, ...]):
        self._init(ambient, generators)

    @staticmethod
    def from_generators(ambient: int, gens: Iterable[Sequence[int]]) -> "Cone":
        prim = []
        for g in gens:
            g = tuple(int(x) for x in g)
            if len(g) != ambient:
                raise ValueError("generator of wrong dimension")
            if _is_zero(g):
                continue
            p = primitive(g)
            if p not in prim:
                prim.append(p)
        if ambient <= 3:
            changed = True
            while changed:
                changed = False
                for g in sorted(prim):
                    rest = [h for h in prim if h != g]
                    if rest and _membership(ambient, rest, g, strict=False):
                        prim = rest
                        changed = True
                        break
        return Cone(ambient, tuple(sorted(prim)))

    @staticmethod
    def zero(ambient: int) -> "Cone":
        return Cone(ambient, ())

    def is_zero(self) -> bool:
        return not self.generators

    def dim(self) -> int:
        if not self.generators:
            return 0
        return rank(IntMatrix.from_rows(self.generators))

    def contains(self, v, relative_interior: bool = False) -> bool:
        v = tuple(v)
        if len(v) != self.ambient:
            raise ValueError("dimension mismatch")
        return _membership(self.ambient, self.generators, v, relative_interior)


def _membership(ambient: int, gens: Sequence[Vec], v, strict: bool) -> bool:
    if not gens:
        return _is_zero(v)
    if _is_zero(v):
        # 0 is in the relative interior exactly when the cone is a subspace
        return not strict or all(
            _membership(ambient, gens, tuple(-x for x in g), False) for g in gens)
    if rank(IntMatrix.from_rows(gens)) == len(gens):
        sol = _solve_coeffs(gens, v)
        if sol is None:
            return False
        return all(x > 0 for x in sol) if strict else all(x >= 0 for x in sol)
    m = len(gens)
    cons = []
    for r in range(ambient):
        co = tuple(Fraction(gens[j][r]) for j in range(m))
        b = Fraction(-v[r])
        cons.append((co, b, False))
        cons.append((tuple(-x for x in co), -b, False))
    for j in range(m):
        co = tuple(Fraction(1 if i == j else 0) for i in range(m))
        cons.append((co, Fraction(0), strict))
    return _fm_feasible(cons, m)


def cone_membership(cone: Cone, v, mode: str = "closed") -> bool:
    """Exact membership test; mode is "closed" or "relative-interior"."""
    if mode not in ("closed", "relative-interior"):
        raise ValueError(f"unknown mode {mode!r}")
    return cone.contains(v, relative_interior=(mode == "relative-interior"))


def _facet_normals(cone: Cone) -> list[Vec]:
    """Supporting hyperplane normals: span complement (both signs) plus
    facet normals inside the span. Ambient <= 3 only."""
    k = cone.ambient
    gens = cone.generators
    out: list[Vec] = []
    if not gens:
        basis = IntMatrix.identity(k).entries
        for n in basis:
            out.append(tuple(n))
            out.append(tuple(-x for x in n))
        return out
    comp = kernel_basis(IntMatrix.from_rows(gens))
    for n in comp.entries:
        out.append(tuple(n))
        out.append(tuple(-x for x in n))
    # candidate facet normals inside the span, oriented towards the cone
    dim = cone.dim()
    cands: list[Vec] = []
    if k == 3 and dim == 3:
        cands = [_cross3(g, h) for i, g in enumerate(gens) for h in gens[i + 1:]]
    elif k == 3 and dim == 2:
        cands = [_cross3(g, comp.entries[0]) for g in gens]
    elif k == 2 and dim == 2:
        cands = [_rot2(g) for g in gens]
    for n in cands:
        if _is_zero(n):
            continue
        dots = [_dot(n, x) for x in gens]
        if all(d >= 0 for d in dots):
            out.append(primitive(n))
        elif all(d <= 0 for d in dots):
            out.append(primitive(tuple(-x for x in n)))
    return out


def cone_intersect(c1: Cone, c2: Cone) -> Cone:
    """Intersection of two cones in ambient dimension <= 3."""
    if c1.ambient != c2.ambient:
        raise ValueError("ambient mismatch")
    k = c1.ambient
    if k > 3:
        raise ValueError("cone_intersect unsupported above ambient dimension 3")
    if c1.is_zero() or c2.is_zero():
        return Cone.zero(k)
    cands: list[Vec] = list(c1.generators) + list(c2.generators)
    normals = _facet_normals(c1) + _facet_normals(c2)
    if k == 3:
        for i, n in enumerate(normals):
            for m in normals[i + 1:]:
                c = _cross3(n, m)
                if not _is_zero(c):
                    cands.append(c)
                    cands.append(tuple(-x for x in c))
    elif k == 2:
        for n in normals:
            c = _rot2(n)
            cands.append(c)
            cands.append(tuple(-x for x in c))
    kept = []
    seen = set()
    for c in cands:
        p = primitive(c)
        if p in seen:
            continue
        seen.add(p)
        if c1.contains(p) and c2.contains(p):
            kept.append(p)
    return Cone.from_generators(k, kept)


# ---------------------------------------------------------------------------
# fans


class Fan(Frozen):
    """Fan: primitive rays plus maximal cones as sorted ray-index tuples."""

    __slots__ = ("ambient", "rays", "maximal_cones", "simplicial")

    def __init__(self, ambient: int, rays: tuple[Vec, ...],
                 maximal_cones: tuple[tuple[int, ...], ...],
                 simplicial: bool = False):
        self._init(ambient, rays, maximal_cones, simplicial)

    def validate(self) -> None:
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        for r in self.rays:
            if _is_zero(r) or primitive(r) != r:
                raise ValueError(f"ray {r} not primitive")
        for mc in self.maximal_cones:
            if sorted(set(mc)) != list(mc):
                raise ValueError(f"bad cone index set {mc}")
            if self.simplicial:
                m = IntMatrix.from_rows([self.rays[i] for i in mc])
                if rank(m) != len(mc):
                    raise ValueError(f"cone {mc} not simplicial")

    def cone(self, indices: Sequence[int]) -> Cone:
        return Cone.from_generators(self.ambient, [self.rays[i] for i in indices])


# angular order over the full circle; vectors must be nonzero
def _angle_cmp(u: Vec, v: Vec) -> int:
    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u[0] * v[1] - u[1] * v[0]
    return 0 if c == 0 else (-1 if c > 0 else 1)


def git_fan(q: IntMatrix) -> Fan:
    """Chamber fan of a 2-row weight matrix.

    Orbit cones are generated by column subsets; the chamber of a point is
    the intersection of all orbit cones containing it. With all columns in
    a pointed halfplane this reduces to angular sorting: full chambers are
    spanned by angularly consecutive column directions. Rays are listed
    from the largest angle downward.
    """
    if q.rows != 2:
        raise ValueError("weight matrix must have exactly 2 rows")
    cols = [c for c in q.columns() if not _is_zero(c)]
    if not cols:
        raise ValueError("all weight columns are zero")
    dirs = sorted({primitive(c) for c in cols}, key=cmp_to_key(_angle_cmp))
    m = len(dirs)
    if m > 1:
        gap_at = None
        for i in range(m):
            u = dirs[i]
            v = dirs[(i + 1) % m]
            if u[0] * v[1] - u[1] * v[0] < 0:
                gap_at = i
                break
        if gap_at is None:
            raise ValueError("weight columns are not contained in a pointed halfplane")
        dirs = dirs[gap_at + 1:] + dirs[: gap_at + 1]
    if rank(q) < 2:
        warnings.warn("weight matrix has rank < 2: degenerate chamber fan",
                      stacklevel=2)
    dirs = list(reversed(dirs))
    if m == 1:
        cones = ((0,),)
    else:
        cones = tuple((i, i + 1) for i in range(m - 1))
    return Fan(2, tuple(dirs), cones, simplicial=True)


class GalePair(Frozen):
    """Ray matrix P and weight matrix Q with P @ Q^T = 0, checked once."""

    __slots__ = ("p", "q")

    def __init__(self, p: IntMatrix, q: IntMatrix):
        if p.cols != q.cols:
            raise ValueError("not a Gale pair: column counts differ")
        if not (p @ q.transpose()).is_zero():
            raise ValueError("not a Gale pair: P @ Q^T is nonzero")
        self._init(p, q)


def gale_cone_test(pair: GalePair, w, removed: Iterable[int]) -> bool:
    """Does dropping `removed` columns of P span a quotient-fan cone?

    By Gale duality this holds exactly when w lies in the relative
    interior of the cone C over the removed columns of Q. Q must have 2
    rows. After zero and repeated columns are dropped, an empty set gives
    C = 0, whose relative interior is {0}. Otherwise the dual cone of C is
    generated by those of rot(g), -rot(g) and g, over the kept columns g,
    that are >= 0 on every column, and w is in the relative interior when
    each of them is > 0 at w, or = 0 at w if it vanishes on every column.
    """
    q = pair.q
    if q.rows != 2:
        raise ValueError("the rank-2 Gale criterion needs a 2-row weight matrix")
    w = tuple(w)
    if len(w) != 2:
        raise ValueError("dimension mismatch")
    top, bottom = q.entries
    cols: list[Vec] = []
    for j in removed:
        g = (top[j], bottom[j])
        if g != (0, 0) and g not in cols:
            cols.append(g)
    if not cols:
        return w == (0, 0)
    for gx, gy in cols:
        for hx, hy in ((-gy, gx), (gy, -gx), (gx, gy)):
            dots = [hx * x + hy * y for x, y in cols]
            if min(dots) < 0:
                continue
            hw = hx * w[0] + hy * w[1]
            if hw < 0 or (hw == 0 and max(dots) > 0):
                return False
    return True


def stellar_subdivide(fan: Fan, target: Iterable[int], new_ray: Sequence[int]) -> Fan:
    """Insert a ray in the relative interior of the cone on `target` and
    re-triangulate every maximal cone containing it."""
    if not fan.simplicial:
        raise ValueError("stellar subdivision needs a simplicial fan")
    target = tuple(sorted(set(target)))
    if not target:
        raise ValueError("empty target cone")
    tset = set(target)
    if not any(tset <= set(mc) for mc in fan.maximal_cones):
        raise ValueError("target is not a face of any maximal cone")
    ray = primitive(tuple(int(x) for x in new_ray))
    if ray in fan.rays:
        raise ValueError("new ray already belongs to the fan")
    tgens = [fan.rays[i] for i in target]
    if not _membership(fan.ambient, tgens, ray, strict=True):
        raise ValueError("new ray is not in the relative interior of the target cone")
    new_idx = len(fan.rays)
    cones: list[tuple[int, ...]] = []
    for mc in fan.maximal_cones:
        mcset = set(mc)
        if tset <= mcset:
            for v in target:
                cones.append(tuple(sorted((mcset - {v}) | {new_idx})))
        else:
            cones.append(mc)
    return Fan(fan.ambient, fan.rays + (ray,), tuple(cones), simplicial=True)


def barycenter_direction(p: IntMatrix, cols: Iterable[int]) -> Vec:
    """Primitive vector on the ray through the sum of selected columns."""
    idx = sorted(set(cols))
    if not idx:
        raise ValueError("no columns selected")
    s = [0] * p.rows
    for j in idx:
        for i, x in enumerate(p.col(j)):
            s[i] += x
    if _is_zero(s):
        raise ValueError("selected columns sum to zero")
    return primitive(s)


# ---------------------------------------------------------------------------
# effective / movable cones


def mori_cones(degrees: Sequence[Sequence[int]]) -> tuple[Cone, Cone]:
    """Effective and movable cones of a multiset of generator degrees.

    Eff is the cone over all degrees. Mov intersects, over every single
    generator, the cone over the remaining degrees; omitting a degree
    whose value occurs more than once leaves the cone unchanged, so only
    multiplicity-one values contribute.
    """
    degs = [tuple(int(x) for x in d) for d in degrees]
    if not degs:
        raise ValueError("empty degree list")
    ambient = len(degs[0])
    eff = Cone.from_generators(ambient, degs)
    counts: dict[Vec, int] = {}
    for d in degs:
        counts[d] = counts.get(d, 0) + 1
    mov = eff
    for v, mult in sorted(counts.items()):
        if mult > 1:
            continue
        rest = [d for d in degs if d != v]
        mov = cone_intersect(mov, Cone.from_generators(ambient, rest))
    return eff, mov
