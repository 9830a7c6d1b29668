"""The benchmark's workloads: the operations one pass runs, the inputs
drawn from the seed, and the correctness gate for every output.

Every workload names its check ids and (c, d) cells explicitly, so a change
to the package's default check selection or Groebner cut-off does not
change what is measured.

An operation is one timed call. For the check workloads it is
`checks.run_checks` on one check id at one (c, d), the function behind
`coxpres verify`. For `generic-ideals` it is one public-API call on one
instance. Every operation has one output, which the gate checks.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import coxpres
from coxpres import checks, serialize
from coxpres.collineation import Params

# (check id, c, d). `saturation` at (4,4) is left out: it is one call of 8 to
# 12 s, and on a 2-CPU container whose speed changes every few seconds it
# made the fastest pass move by 24 and 27 % between runs (quartile distance
# over median, two sets of ten runs), against 4 to 10 % without it. Its
# elimination route is timed at (3,3) and (3,4).
FRONTIER_OPS = tuple((i, c, d) for c, d in ((3, 3), (3, 4), (4, 4))
                     for i in ("dimension", "saturation", "torickernel")
                     if (i, c, d) != ("saturation", 4, 4))
FAN_CELLS = ((5, 5), (6, 6))
FAN_CHECKS = ("presentation", "grading", "gale", "pullback", "gitfan",
              "fancomb", "segre", "mori", "localeq", "degenerate")
ROUNDTRIP_CELL = (6, 6)

# The inputs of `generic-ideals` (supports and coefficients of the quadric
# systems and control ideals, and the toric exponent matrices) come from
# this fixed seed. --seed draws, for each system and control ideal, a sign
# for every variable, and the input is the image of the fixed ideal under
# x_i -> sign_i * x_i. That map keeps every monomial and only flips
# coefficient signs, so Buchberger's algorithm takes the same steps on every
# seed: seeds give distinct inputs and the same work. With ±1 coefficients
# drawn from --seed, the pass moved by 45 % (quartile distance over median)
# from seed to seed, more than the changes the benchmark should resolve.
# The toric matrices are the same on every seed.
SHAPE_SEED = 1110_1171
QUADRIC_SYSTEMS = 400    # per variable count, 6 and 7 variables
QUADRICS_PER_SYSTEM = 3
TERMS_PER_QUADRIC = 3
TORIC_MATRICES = 24      # per shape, 2x7 and 2x8
TORIC_MAX_ENTRY = 2
CONTROL_IDEALS = 40


@dataclass
class Op:
    """One timed operation and the gate for its output.

    `run` is the timed call. `ok` tells whether its output is right; it
    runs outside the timed region, on the first pass. Later passes must
    give the same `summary`, a digest, so that the first pass's outputs
    need not be kept.
    """

    name: str
    run: Callable[[], object]
    ok: Callable[[object], bool]
    summary: Callable[[object], object] = lambda out: _digest(out)


def _digest(out) -> int:
    """Hash of the output, polynomials taken by their sorted terms. String
    hashes are stable within a process, which is all the comparison of
    passes needs; `hashlib` would load a crypto library and add its pages
    to peak_rss_mb."""
    def canon(x):
        if isinstance(x, coxpres.Polynomial):
            return sorted(x.terms)
        if isinstance(x, (list, tuple)):
            return [canon(y) for y in x]
        return x

    return hash(repr(canon(out)))


def check_op_name(check_id: str, c: int, d: int) -> str:
    return f"checks.{check_id}.{c}x{d}"


def _check_op(check_id: str, c: int, d: int) -> Op:
    def run():
        return checks.run_checks(Params(c, d), [check_id])

    def ok(report) -> bool:
        (result,) = report.results
        return result.check_id == check_id and result.status == "pass"

    def summary(report):
        return _digest([(r.check_id, r.status, r.expected, r.actual)
                        for r in report.results])

    return Op(check_op_name(check_id, c, d), run, ok, summary)


def _roundtrip_op() -> Op:
    pres = coxpres.cox_presentation(Params(*ROUNDTRIP_CELL))

    def run():
        text = json.dumps(serialize.presentation_to_obj(pres))
        return serialize.presentation_from_obj(json.loads(text))

    def summary(back):
        return _digest(json.dumps(serialize.presentation_to_obj(back), sort_keys=True))

    return Op("serialize.roundtrip", run, lambda back: back == pres, summary)


# ---------------------------------------------------------------------------
# generic ideals


def _quadric_monomials(nvars: int) -> list[tuple[int, ...]]:
    out = []
    for i, j in itertools.combinations_with_replacement(range(nvars), 2):
        e = [0] * nvars
        e[i] += 1
        e[j] += 1
        out.append(tuple(e))
    return out


def _ring(nvars: int):
    return coxpres.PolyRing(tuple(f"x{i + 1}" for i in range(nvars)))


def _signed(ring, support, shapes, flips) -> "coxpres.Polynomial":
    """±1 coefficients on `support` from `shapes`, then x_i -> flips[i] * x_i."""
    terms = []
    for e in support:
        sign = shapes.choice((-1, 1))
        for f, k in zip(flips, e):
            sign *= f ** k
        terms.append((e, Fraction(sign)))
    return ring.from_terms(terms)


def _flips(rng: random.Random, nvars: int) -> tuple[int, ...]:
    return tuple(rng.choice((-1, 1)) for _ in range(nvars))


def _toric_matrix(rng: random.Random, cols: int) -> "coxpres.IntMatrix":
    """A rank-2 matrix with small nonnegative entries and no zero column."""
    while True:
        m = coxpres.IntMatrix.from_rows(
            [[rng.randint(0, TORIC_MAX_ENTRY) for _ in range(cols)]
             for _ in range(2)])
        if all(any(m.col(j)) for j in range(cols)) and coxpres.rank(m) == 2:
            return m


def _generic_ops(seed: int) -> list[Op]:
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    ops = []
    for nvars in (6, 7):
        ring = _ring(nvars)
        monos = _quadric_monomials(nvars)
        systems = []
        for _ in range(QUADRIC_SYSTEMS):
            flips = _flips(rng, nvars)
            systems.append([_signed(ring, shapes.sample(monos, TERMS_PER_QUADRIC),
                                    shapes, flips)
                            for _ in range(QUADRICS_PER_SYSTEM)])
        ops += _instance_ops(f"groebner_basis.{nvars}vars", systems, _basis_ok,
                             lambda gens, ring=ring: coxpres.groebner_basis(gens, ring))
    for cols in (7, 8):
        mats = [_toric_matrix(shapes, cols) for _ in range(TORIC_MATRICES)]
        ops += _instance_ops(f"toric_kernel.2x{cols}", mats, _toric_ok,
                             lambda m: coxpres.toric_kernel(m).gens)
    controls = [_control_ideal(shapes, rng, 6 + k % 2) for k in range(CONTROL_IDEALS)]
    ops += _instance_ops("saturate.control", controls, _control_ok, _saturate_control)
    return ops


def _instance_ops(prefix: str, inputs, ok, fn) -> list[Op]:
    """One operation per input: `fn(x)`, right when `ok(x, output)`."""
    return [Op(f"{prefix}.{k}", lambda x=x: fn(x), lambda out, x=x: ok(x, out))
            for k, x in enumerate(inputs)]


def _control_ideal(shapes: random.Random, rng: random.Random, nvars: int):
    """(generators of I, g1, x1) with I = (x1*g1, g2, g3) for quadrics g1,
    g2, g3 where g1 has a monomial outside g2 and g3. Then g1 lies in
    I : x1^inf but not in I, whose degree-2 part is spanned by g2 and g3,
    so I is not saturated with respect to x1."""
    ring = _ring(nvars)
    monos = _quadric_monomials(nvars)
    g2, g3 = (shapes.sample(monos, TERMS_PER_QUADRIC) for _ in range(2))
    own = shapes.choice([e for e in monos if e not in g2 and e not in g3])
    g1 = [own] + shapes.sample([e for e in monos if e != own], TERMS_PER_QUADRIC - 1)
    flips = _flips(rng, nvars)
    g1, g2, g3 = (_signed(ring, s, shapes, flips) for s in (g1, g2, g3))
    x1 = ring.var("x1")
    return (x1 * g1, g2, g3), g1, x1


def _saturate_control(control):
    # a fresh Ideal per call: an Ideal caches its basis, which would spare
    # later passes the work
    gens, _, x1 = control
    ideal = coxpres.Ideal(x1.ring, gens)
    sat = coxpres.saturate(ideal, x1)
    detected = not coxpres.ideal_equal(sat, ideal)
    return sat.gens, sat.groebner(), detected


# -- independent gates: plain dict arithmetic, no coxpres reduction code.
# A polynomial is a dict {exps: coeff}; a basis entry is (lead exps, lead
# coeff, terms).

# Lattice binomials up to this total degree must lie in each toric kernel.
TORIC_CHECK_DEGREE = 3
# Every element h of a control's saturation must have x1^k * h in I.
SATURATION_EXPONENT = 4


def _terms(f) -> dict:
    return dict(f.terms)


def _lead(f: dict, key):
    e = max(f, key=key)
    return e, f[e]


def _entry(f: dict, key):
    return (*_lead(f, key), f)


def _shift_add(acc: dict, g: dict, shift, q) -> None:
    """acc += q * x^shift * g, dropping zero terms."""
    for ge, gc in g.items():
        t = tuple(a + b for a, b in zip(ge, shift))
        v = acc.get(t, 0) + q * gc
        if v:
            acc[t] = v
        else:
            acc.pop(t, None)


def _reduce(f: dict, basis: list, key) -> dict:
    """Top-reduce f by `basis` until it is 0 ({}) or its leading term is
    divisible by no leading term of the basis."""
    f = dict(f)
    while f:
        e, c = _lead(f, key)
        for le, lc, g in basis:
            if all(a <= b for a, b in zip(le, e)):
                _shift_add(f, g, tuple(a - b for a, b in zip(e, le)), -c / lc)
                break
        else:
            return f
    return f


def _s_poly(p, q) -> dict | None:
    """S-polynomial of two basis entries; None when their leading monomials
    are coprime (it then reduces to 0 by Buchberger's first criterion)."""
    (ei, ci, gi), (ej, cj, gj) = p, q
    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
    if all(a + b == m for a, b, m in zip(ei, ej, lcm)):
        return None
    s: dict = {}
    _shift_add(s, gi, tuple(a - b for a, b in zip(lcm, ei)), 1 / ci)
    _shift_add(s, gj, tuple(a - b for a, b in zip(lcm, ej)), -1 / cj)
    return s


def _buchberger(gens: list, key) -> list:
    """A Groebner basis (entries) of the ideal the dicts `gens` generate:
    Buchberger's algorithm, smallest lcm degree first, first criterion only."""
    basis: list = []
    pairs: list = []

    def add(r):
        r = {e: c / r[_lead(r, key)[0]] for e, c in r.items()}
        basis.append(_entry(r, key))
        j = len(basis) - 1
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(basis[i][0], basis[j][0]))
            heapq.heappush(pairs, (sum(lcm), key(lcm), i, j))

    for f in gens:
        r = _reduce(f, basis, key)
        if r:
            add(r)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        s = _s_poly(basis[i], basis[j])
        r = _reduce(s, basis, key) if s else None
        if r:
            add(r)
    return basis


def _is_groebner_basis_of(basis, gens, key) -> bool:
    """`basis` is a Groebner basis of the ideal `gens` generate: every
    generator and every S-pair reduces to 0 modulo `basis`, and every basis
    element reduces to 0 modulo an independently computed basis of it."""
    polys = [_terms(g) for g in basis]
    if not polys or not all(polys):
        return False
    red = [_entry(g, key) for g in polys]
    if any(_reduce(_terms(g), red, key) for g in gens):
        return False
    for p, q in itertools.combinations(red, 2):
        s = _s_poly(p, q)
        if s and _reduce(s, red, key):
            return False
    ours = _buchberger([_terms(g) for g in gens], key)
    return not any(_reduce(g, ours, key) for g in polys)


def _basis_ok(gens, basis) -> bool:
    return _is_groebner_basis_of(basis, gens, gens[0].ring.order.key)


def _lattice_binomials(matrix, degree: int):
    """Every x^u - x^v with A.u = A.v, u != v, disjoint supports and
    total degree of u and of v at most `degree`."""
    n = matrix.cols
    rows = matrix.entries
    fibres: dict = {}
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            u = [0] * n
            for j in combo:
                u[j] += 1
            image = tuple(sum(r[j] * k for j, k in enumerate(u)) for r in rows)
            fibres.setdefault(image, []).append(tuple(u))
    for fibre in fibres.values():
        for u, v in itertools.combinations(fibre, 2):
            if all(not (a and b) for a, b in zip(u, v)):
                yield {u: Fraction(1), v: Fraction(-1)}


def _toric_ok(matrix, binomials) -> bool:
    """Nonempty; every binomial maps to 0 under the monomial map; and every
    lattice binomial of low degree lies in the ideal the binomials generate."""
    rows = matrix.entries
    for f in binomials:
        image: dict = {}
        for e, c in f.terms:
            t = tuple(sum(r[j] * k for j, k in enumerate(e)) for r in rows)
            image[t] = image.get(t, 0) + c
        if len(f.terms) != 2 or any(image.values()):
            return False
    if not binomials:
        return False
    key = binomials[0].ring.order.key
    ours = _buchberger([_terms(f) for f in binomials], key)
    return not any(_reduce(b, ours, key)
                   for b in _lattice_binomials(matrix, TORIC_CHECK_DEGREE))


def _times(f: dict, shift) -> dict:
    """f times the monomial x^shift."""
    return {tuple(a + b for a, b in zip(e, shift)): c for e, c in f.items()}


def _control_ok(control, output) -> bool:
    """The saturation S is a Groebner basis of an ideal holding I and g1,
    with x1^k * S inside I, and g1 is not in I, so I is not saturated."""
    gens, g1, x1 = control
    sat_gens, basis, detected = output
    key = g1.ring.order.key
    red = [_entry(_terms(g), key) for g in basis]
    ideal = _buchberger([_terms(g) for g in gens], key)
    (x1e,) = _terms(x1)
    shift = tuple(SATURATION_EXPONENT * a for a in x1e)
    return (detected and _is_groebner_basis_of(basis, sat_gens, key)
            and not any(_reduce(_terms(g), red, key) for g in (*gens, g1))
            and bool(_reduce(_terms(g1), ideal, key))
            and not any(_reduce(_times(_terms(h), shift), ideal, key) for h in basis))


# ---------------------------------------------------------------------------


WORKLOADS = ("groebner-frontier", "fan-combinatorics", "generic-ideals")


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass. The check workloads ignore the seed."""
    if workload == "groebner-frontier":
        return [_check_op(*op) for op in FRONTIER_OPS]
    if workload == "fan-combinatorics":
        return ([_check_op(i, c, d) for c, d in FAN_CELLS for i in FAN_CHECKS]
                + [_roundtrip_op()])
    if workload == "generic-ideals":
        return _generic_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
