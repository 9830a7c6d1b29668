"""Registered verification checks over the full construction.

Every check computes an `expected` value from closed-form block counts or
frozen reference data and an `actual` value from the library, passing on
equality. Groebner-heavy checks respect a pair budget and report
"skipped" when it runs out; checks that need c,d > 2 report "skipped" on
degenerate parameters.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Iterable, Optional

from . import collineation as col
from . import geometry as geo
from .groebner import BudgetExceeded, DEFAULT_PAIR_BUDGET, Ideal, \
    krull_dimension, monomial_dimension, normal_form, weighted_basis
from .intlinalg import Frozen, IntMatrix, kernel_basis, rank, row_space_hnf
from .polyring import Polynomial, RingMap, multidegree


class Skip(Exception):
    """Raised inside a check to mark it skipped, with a reason."""


class CheckResult(Frozen):
    __slots__ = ("check_id", "status", "expected", "actual", "seconds")

    def __init__(self, check_id: str, status: str, expected: object,
                 actual: object, seconds: float):
        # status is "pass", "fail" or "skipped"
        self._init(check_id, status, expected, actual, seconds)


class VerificationReport(Frozen):
    __slots__ = ("c", "d", "results")

    def __init__(self, c: int, d: int, results: tuple[CheckResult, ...]):
        self._init(c, d, results)

    @property
    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def skipped(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "skipped"]

    def exit_code(self, strict: bool = False) -> int:
        if self.failed:
            return 1
        if strict and self.skipped:
            return 1
        return 0


def report_to_obj(report: VerificationReport) -> dict:
    return {
        "c": report.c,
        "d": report.d,
        "checks": [
            {"id": r.check_id, "status": r.status, "expected": r.expected,
             "actual": r.actual, "seconds": r.seconds}
            for r in report.results
        ],
    }


def report_from_obj(obj: dict) -> VerificationReport:
    return VerificationReport(int(obj["c"]), int(obj["d"]), tuple(
        CheckResult(r["id"], r["status"], r["expected"], r["actual"],
                    float(r["seconds"]))
        for r in obj["checks"]))


# ---------------------------------------------------------------------------
# individual checks; each returns (expected, actual)


def _require_general(p: col.Params):
    if p.regime != "general":
        raise Skip("requires c > 2 and d > 2")


def check_presentation(p: col.Params, budget: int):
    pres = col.cox_presentation(p)
    if p.regime == "p3":
        expected = {"variables": 4, "relations": 0, "degrees": [[1]] * 4}
        actual = {"variables": len(pres.variables),
                  "relations": len(pres.relations),
                  "degrees": [list(pres.grading.matrix.col(i)) for i in range(4)]}
        return expected, actual
    m = p.c + p.d
    n_rel = 0 if m < 4 else m * (m - 1) * (m - 2) * (m - 3) // 24
    if p.regime != "general":
        expected = {"variables": p.n, "relations": n_rel, "grading_rows": 2}
        actual = {"variables": len(pres.variables),
                  "relations": len(pres.relations),
                  "grading_rows": pres.grading.matrix.rows}
        return expected, actual
    deg = {"plus": [1, 1, -1], "zero": [1, 0, 0], "minus": [1, -1, 0]}
    expected_degrees = [deg[col.pair_block(p, i, j)] for i, j in col.block_pairs(p)]
    expected_degrees.append([0, 0, 1])
    split_pairs = sorted(
        (col.pair_name(i, j), col.pair_name(k, l))
        for i, j in itertools.combinations(range(1, p.c + 1), 2)
        for k, l in itertools.combinations(range(p.c + 1, m + 1), 2))
    expected = {"variables": p.n + 1, "relations": n_rel,
                "with_factor": p.a_plus * p.a_minus,
                "factor_pairs": split_pairs,
                "degrees": expected_degrees}
    tpos = pres.ring.index[col.TINF]
    factor_rels = [r for r in pres.relations if any(e[tpos] for e, _ in r.terms)]
    pairs = []
    for r in factor_rels:
        e = next(e for e, _ in r.terms if e[tpos])
        names = [nm for nm, k in zip(pres.ring.names, e) if k and nm != col.TINF]
        pairs.append(tuple(sorted(names, key=pres.ring.index.__getitem__)))
    actual = {"variables": len(pres.variables), "relations": len(pres.relations),
              "with_factor": len(factor_rels),
              "factor_pairs": sorted(pairs),
              "degrees": [list(pres.grading.matrix.col(i))
                          for i in range(pres.grading.matrix.cols)]}
    return expected, actual


def check_grading(p: col.Params, budget: int):
    pres = col.cox_presentation(p)
    homogeneous = all(multidegree(r, pres.grading) is not None
                      for r in pres.relations)
    return {"homogeneous": True}, {"homogeneous": homogeneous}


def check_gale(p: col.Params, budget: int):
    q, _ = col.weight_matrices(p)
    pm = col.gale_matrix_P(p)
    n = p.n
    prod_zero = (pm @ q.transpose()).is_zero()
    rk = rank(pm)
    rows_match = row_space_hnf(pm) == row_space_hnf(kernel_basis(q))
    s = [0] * pm.rows
    for j in range(n - p.a_minus, n):
        for i, x in enumerate(pm.col(j)):
            s[i] += x
    expected = {"pq_zero": True, "rank": n - 2, "rowspace_matches_kernel": True,
                "last_block_sum": [0] * (pm.rows - 1) + [1]}
    actual = {"pq_zero": prod_zero, "rank": rk,
              "rowspace_matches_kernel": rows_match, "last_block_sum": s}
    return expected, actual


def check_pullback(p: col.Params, budget: int):
    _require_general(p)
    pres = col.cox_presentation(p)
    phi = col.pullback_map(p)
    cancelled = []
    eps_ok = True
    for quad in itertools.combinations(range(1, p.c + p.d + 1), 4):
        eps, r = col.pullback_and_cancel(p, quad, _map=phi)
        t = sum(1 for x in quad if x <= p.c)
        eps_ok = eps_ok and eps == {4: 2, 3: 1}.get(t, 0)
        cancelled.append(r)
    set_equal = set(cancelled) == set(pres.relations)
    bijective = len(cancelled) == len(pres.relations)
    return ({"set_equal": True, "eps_matches_common_factor": True, "bijective": True},
            {"set_equal": set_equal, "eps_matches_common_factor": eps_ok,
             "bijective": bijective})


def check_gitfan(p: col.Params, budget: int):
    q, _ = col.weight_matrices(p)
    fan = geo.git_fan(q)
    chambers = sorted(sorted(fan.rays[i] for i in mc) for mc in fan.maximal_cones)
    (x1, res1), (x2, res2) = col.witness_residuals(p)
    w1, w2 = col.orbit_cone(p, x1), col.orbit_cone(p, x2)
    lam1 = geo.Cone.from_generators(2, [(1, 1), (1, 0)])
    lam2 = geo.Cone.from_generators(2, [(1, 0), (1, -1)])
    expected = {"chambers": [sorted([(1, 0), (1, 1)]), sorted([(1, -1), (1, 0)])],
                "witness_residuals_zero": True,
                "orbit_cones_are_chambers": True}
    actual = {"chambers": sorted(chambers),
              "witness_residuals_zero": all(r == 0 for r in res1 + res2),
              "orbit_cones_are_chambers": w1 == lam1 and w2 == lam2}
    expected["chambers"] = sorted(expected["chambers"])
    return expected, actual


def check_fancomb(p: col.Params, budget: int):
    q, _ = col.weight_matrices(p)
    pm = col.gale_matrix_P(p)
    gale = geo.GalePair(pm, q)
    n = p.n
    acc1 = [pair for pair in itertools.combinations(range(n), 2)
            if geo.gale_cone_test(gale, (2, 1), pair)]
    acc2 = [pair for pair in itertools.combinations(range(n), 2)
            if geo.gale_cone_test(gale, (2, -1), pair)]
    ap, a0, am = p.a_plus, p.a_zero, p.a_minus
    expected = {"accepted_1": ap * (a0 + am), "accepted_2": am * (a0 + ap)}
    actual = {"accepted_1": len(acc1), "accepted_2": len(acc2)}
    if p.regime == "general":
        # the subdivision at the last-block face needs a_minus >= 2
        rays = tuple(pm.columns())
        fan1 = geo.Fan(n - 2, rays,
                       tuple(tuple(i for i in range(n) if i not in pair)
                             for pair in acc1), simplicial=True)
        target = tuple(range(n - p.a_minus, n))
        rho = col.barycenter_ray(p)
        sub = geo.stellar_subdivide(fan1, target, rho)
        expected.update({"subdivided_cones": ap * am + ap * a0 * am,
                         "inserted_ray": [0] * (n - 3) + [1]})
        actual.update({"subdivided_cones": len(sub.maximal_cones),
                       "inserted_ray": list(rho)})
    return expected, actual


def check_segre(p: col.Params, budget: int):
    _require_general(p)
    pi = col.proof_ideals(p)
    sigma = col.segre_map(p)
    grading = col.segre_grading(p)
    g_vanish = all(not sigma(f) for f in pi.g)
    table = all(img == col.expected_sigma_image(p, quad)
                for quad, img in zip(pi.h_quadruples, pi.sigma_images))
    degree_zero = all(multidegree(img, grading) == (0,)
                      for img in pi.sigma_images if img)
    bp = set(pi.b_prime_renamed) == set(
        col.plucker_relations(p.c + 1, pi.b_prime_renamed_ring))
    bs = set(pi.b_second_renamed) == set(
        col.plucker_relations(p.d + 1, pi.b_second_renamed_ring))
    expected = {"sigma_g_zero": True, "four_case_table": True,
                "images_degree_zero": True,
                "first_block_is_plucker": True, "second_block_is_plucker": True}
    actual = {"sigma_g_zero": g_vanish, "four_case_table": table,
              "images_degree_zero": degree_zero,
              "first_block_is_plucker": bp, "second_block_is_plucker": bs}
    return expected, actual


def check_mori(p: col.Params, budget: int):
    _require_general(p)
    _, qinf = col.weight_matrices(p)
    eff, mov = geo.mori_cones(qinf.columns())
    w1, w2, w3, w4 = (1, 1, -1), (1, 0, 0), (1, -1, 0), (0, 0, 1)
    expected = {"eff": sorted([w1, w3, w4]), "mov": sorted([w1, w2, w3]),
                "w2_in_eff": True}
    actual = {"eff": [tuple(g) for g in eff.generators],
              "mov": [tuple(g) for g in mov.generators],
              "w2_in_eff": eff.contains(w2)}
    return expected, actual


def check_localeq(p: col.Params, budget: int):
    _require_general(p)
    return ({"invariant": True, "degree": (0, 0, 0)},
            {"invariant": col.local_equation_invariance(p),
             "degree": col.laurent_degree(p, col.local_equation_exponents(p))})


def check_degenerate(p: col.Params, budget: int):
    pres = col.cox_presentation(p)
    if p.regime == "p3":
        expected = {"regime": "p3", "variables": 4, "relations": 0,
                    "degrees_all_one": True}
        actual = {"regime": pres.regime, "variables": len(pres.variables),
                  "relations": len(pres.relations),
                  "degrees_all_one": all(
                      pres.grading.matrix.col(i) == (1,) for i in range(4))}
        return expected, actual
    if p.regime in ("c2", "d2"):
        ring = pres.ring
        expected_rels = set(col.plucker_relations(p.c + p.d, ring))
        q, _ = col.weight_matrices(p)
        expected = {"regime": p.regime, "is_plucker_ideal": True,
                    "grading_is_q": True}
        actual = {"regime": pres.regime,
                  "is_plucker_ideal": set(pres.relations) == expected_rels,
                  "grading_is_q": pres.grading.matrix == q}
        return expected, actual
    expected = {"regime": "general", "has_factor_variable": True}
    actual = {"regime": pres.regime,
              "has_factor_variable": col.TINF in pres.variables}
    return expected, actual


class _TinfBasis:
    """The reduced basis of the relations at one cell under the weights
    2*row1 + row2 + row3 of the degree matrix (2, 2, 1 on the plus, zero
    and minus blocks, 1 on Tinf) with Tinf smallest, built with its
    presentation on first use. `run_checks` shares one among the checks
    of a call; a BudgetExceeded is kept and raised to every later caller."""

    def __init__(self, p: col.Params, budget: int):
        self.p = p
        self.budget = budget
        self._basis: Optional[tuple[Polynomial, ...]] = None
        self._error: Optional[BudgetExceeded] = None

    def basis(self) -> tuple[Polynomial, ...]:
        """Its elements live in the grevlex ring with Tinf at table
        position 0 (see `weighted_basis`)."""
        if self._error is not None:
            raise self._error
        if self._basis is None:
            pres = col.cox_presentation(self.p)
            weights = [2 * a + b + c for a, b, c in pres.grading.matrix.columns()]
            try:
                self._basis = weighted_basis(Ideal(pres.ring, pres.relations),
                                             weights, col.TINF, self.budget)
            except BudgetExceeded as e:
                self._error = e
                raise
        return self._basis


def _saturated(basis: tuple[Polynomial, ...]) -> bool:
    """Bayer's criterion on a `weighted_basis`: the ideal is saturated by
    the variable at table position 0 when no leading term contains it."""
    return not any(g.leading_exps()[0] for g in basis)


def check_dimension(p: col.Params, budget: int, tinf: Optional[_TinfBasis] = None):
    _require_general(p)
    if tinf is None:
        tinf = _TinfBasis(p, budget)
    basis = tinf.basis()
    leads = [g.leading_exps() for g in basis]
    n = basis[0].ring.nvars
    pi = col.proof_ideals(p)
    bp_ideal = Ideal(pi.b_prime_ring, pi.b_prime)
    m = p.c + p.d
    expected = {"dim_j": 2 * m - 3, "dim_i": 2 * m - 2,
                "dim_first_block": 2 * p.c - 1}
    # in(I + (Tinf)) = in(I) + (Tinf), Tinf at table position 0
    actual = {"dim_j": monomial_dimension(n, leads + [(1,) + (0,) * (n - 1)]),
              "dim_i": monomial_dimension(n, leads),
              "dim_first_block": krull_dimension(bp_ideal, budget)}
    return expected, actual


def check_saturation(p: col.Params, budget: int, tinf: Optional[_TinfBasis] = None):
    _require_general(p)
    if tinf is None:
        tinf = _TinfBasis(p, budget)
    basis = tinf.basis()
    # Tinf has weight 1, so it is its own image in the basis ring
    tinf_var = basis[0].ring.var(col.TINF)
    expected = {"saturation_is_identity": True, "factor_var_outside": True}
    actual = {"saturation_is_identity": _saturated(basis),
              "factor_var_outside": bool(normal_form(tinf_var, basis))}
    return expected, actual


def check_torickernel(p: col.Params, budget: int):
    _require_general(p)
    pi = col.proof_ideals(p)
    e = col.segre_map(p).exponent_matrix()
    return ({"kernel_equals_binomials": True},
            {"kernel_equals_binomials": _is_toric_kernel(p, pi.g, e, budget)})


def _is_toric_kernel(p: col.Params, gens: tuple[Polynomial, ...], e: IntMatrix,
                     budget: int) -> bool:
    """Whether (gens) is the kernel of the monomial map with exponent
    matrix e, certified without computing the kernel.

    The kernel is the lattice ideal of L = ker_Z(e), and a binomial ideal
    whose exponent differences span L and which is saturated by every
    variable is that ideal (Sturmfels, Groebner Bases and Convex
    Polytopes, Lemma 12.2; Eisenbud and Sturmfels, Binomial ideals, 1996).
    So: gens are pure-difference binomials, their differences span L (one
    Hermite normal form each), and (gens) : x**inf = (gens) for every
    variable x they touch, by Bayer's criterion under the column sums of
    e as weights, one x per orbit of `_orbit_representatives`. A variable
    gens do not touch is a nonzerodivisor modulo (gens).
    """
    diffs = []
    for g in gens:
        if len(g.terms) != 2 or g.terms[0][1] + g.terms[1][1]:
            return False
        diffs.append([a - b for a, b in zip(g.terms[0][0], g.terms[1][0])])
    if row_space_hnf(IntMatrix.from_rows(diffs)) != row_space_hnf(kernel_basis(e)):
        return False
    ideal = Ideal(col.ambient_ring(p), gens)
    weights = [sum(column) for column in e.columns()]
    return all(_saturated(weighted_basis(ideal, weights, ideal.ring.names[i], budget))
               for i in _orbit_representatives(p, gens))


def _orbit_representatives(p: col.Params, gens: tuple[Polynomial, ...]) -> list[int]:
    """One variable per orbit of the variables gens touch, under the
    adjacent index transpositions of S_c x S_d that map gens to +-gens.

    Such a transposition is a ring automorphism that fixes (gens), so
    (gens) is saturated by a variable exactly when it is saturated by the
    variable's image. A transposition that moves gens elsewhere is not
    used, so a non-invariant gens falls into smaller orbits.
    """
    ring = col.ambient_ring(p)
    pairs = col.block_pairs(p)
    targets = set(gens)
    perms = []
    for a in [*range(1, p.c), *range(p.c + 1, p.c + p.d)]:
        swap = {a: a + 1, a + 1: a}
        perm = [ring.index[col.pair_name(*sorted((swap.get(i, i), swap.get(j, j))))]
                for i, j in pairs]
        sigma = RingMap(ring, ring, [ring.var(ring.names[k]) for k in perm])
        if all(sigma(g) in targets or -sigma(g) in targets for g in gens):
            perms.append(perm)
    seen: set[int] = set()
    reps = []
    for v in sorted(set().union(*(g.support_vars() for g in gens))):
        if v in seen:
            continue
        reps.append(v)
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for perm in perms:
                if perm[u] not in seen:
                    seen.add(perm[u])
                    stack.append(perm[u])
    return reps


CHECKS: dict[str, Callable] = {
    "presentation": check_presentation,
    "grading": check_grading,
    "gale": check_gale,
    "pullback": check_pullback,
    "gitfan": check_gitfan,
    "fancomb": check_fancomb,
    "segre": check_segre,
    "mori": check_mori,
    "localeq": check_localeq,
    "degenerate": check_degenerate,
    "dimension": check_dimension,
    "saturation": check_saturation,
    "torickernel": check_torickernel,
}

GROEBNER_CHECKS = frozenset({"dimension", "saturation", "torickernel"})

# default cut-off: the Groebner checks run by default while c + d <= 10,
# through (5,5), where each takes under a second
GROEBNER_DEFAULT_MAX = 10

# the checks that read the Tinf-weighted basis, shared within a call
_TINF_BASIS_CHECKS = (check_dimension, check_saturation)


def default_check_ids(p: col.Params) -> list[str]:
    ids = [k for k in CHECKS if k not in GROEBNER_CHECKS]
    if p.c + p.d <= GROEBNER_DEFAULT_MAX:
        ids += sorted(GROEBNER_CHECKS)
    return sorted(ids)


def run_checks(p: col.Params, ids: Optional[Iterable[str]] = None,
               budget: int = DEFAULT_PAIR_BUDGET) -> VerificationReport:
    """Run selected checks (default set when ids is None); deterministic
    report order by check id."""
    if ids is None:
        selected = default_check_ids(p)
    else:
        selected = sorted(dict.fromkeys(ids))
        unknown = [i for i in selected if i not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
    params = col.Params(p.c, p.d)
    # lives for this call only: each call builds its own basis
    tinf = _TinfBasis(params, budget)
    results = []
    for check_id in selected:
        fn = CHECKS[check_id]
        args = (params, budget, tinf) if fn in _TINF_BASIS_CHECKS else (params, budget)
        t0 = time.perf_counter()
        try:
            expected, actual = fn(*args)
            status = "pass" if expected == actual else "fail"
        except Skip as s:
            status, expected, actual = "skipped", None, str(s)
        except BudgetExceeded as b:
            status, expected, actual = "skipped", None, str(b)
        except Exception as e:  # a crashing check is a failing check
            status, expected, actual = "fail", None, f"{type(e).__name__}: {e}"
        results.append(CheckResult(check_id, status, _plain(expected),
                                   _plain(actual), time.perf_counter() - t0))
    return VerificationReport(p.c, p.d, tuple(results))


def _plain(x):
    """Down-convert to JSON-native values for lossless report round-trips."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    return str(x) if not isinstance(x, (str, float)) else x
