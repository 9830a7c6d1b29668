"""The Groebner checks' routes against the generic ones they replace.

`check_dimension` and `check_saturation` read their answers from one
weighted basis by Bayer's criterion, and `check_torickernel` certifies the
kernel instead of computing it. Each is compared here with the old route
(`krull_dimension`, `saturate`, `toric_kernel` and `ideal_equal`), and each
must reject an ideal for which the claim is false.
"""

import pytest

from coxpres import checks
from coxpres.checks import default_check_ids, run_checks
from coxpres.cli import main
from coxpres.collineation import (TINF, Params, ProofIdeals, ambient_ring,
                                  cox_presentation, proof_ideals, segre_map)
from coxpres.groebner import (Ideal, ideal_equal, krull_dimension, saturate,
                              toric_kernel, weighted_basis)
from coxpres.intlinalg import kernel_basis

CELLS = [(3, 3), (3, 4), (4, 4)]


def tinf_weights(pres):
    return [2 * a + b + c for a, b, c in pres.grading.matrix.columns()]


def bayer_saturated(ideal, weights, var):
    return not any(g.leading_exps()[0]
                   for g in weighted_basis(ideal, weights, var))


def lattice_binomials(e, ring):
    """The binomials of a kernel basis of e: they span ker(e) but do not
    generate the kernel ideal."""
    out = []
    for row in kernel_basis(e).entries:
        plus = tuple(max(x, 0) for x in row)
        minus = tuple(max(-x, 0) for x in row)
        out.append(ring.from_terms([(plus, 1), (minus, -1)]))
    return tuple(out)


@pytest.mark.parametrize("c,d", CELLS)
def test_dimension_matches_krull_dimension(c, d):
    p = Params(c, d)
    pres = cox_presentation(p)
    ring = pres.ring
    expected, actual = checks.check_dimension(p, 10**6)
    assert actual == expected
    assert actual["dim_i"] == krull_dimension(Ideal(ring, pres.relations))
    assert actual["dim_j"] == krull_dimension(
        Ideal(ring, pres.relations + (ring.var(TINF),)))


@pytest.mark.parametrize("c,d", CELLS)
def test_bayer_matches_elimination(c, d):
    pres = cox_presentation(Params(c, d))
    ring = pres.ring
    ideal = Ideal(ring, pres.relations)
    expected, actual = checks.check_saturation(Params(c, d), 10**6)
    assert actual == expected
    assert actual["saturation_is_identity"] == ideal_equal(
        saturate(ideal, ring.var(TINF)), ideal)


@pytest.mark.parametrize("c,d", [(3, 3), (3, 4)])
def test_unsaturated_control_is_detected(c, d):
    # Tinf times a relation free of Tinf, with the other relations: the
    # relation lies in the saturation but not in the ideal
    pres = cox_presentation(Params(c, d))
    ring = pres.ring
    tpos = ring.index[TINF]
    k, r = next((k, r) for k, r in enumerate(pres.relations)
                if not any(e[tpos] for e, _ in r.terms))
    gens = pres.relations[:k] + (ring.var(TINF) * r,) + pres.relations[k + 1:]
    control = Ideal(ring, gens)
    assert not bayer_saturated(control, tinf_weights(pres), TINF)
    assert not ideal_equal(saturate(control, ring.var(TINF)), control)


@pytest.mark.parametrize("c,d", CELLS)
def test_certificate_matches_toric_kernel(c, d):
    p = Params(c, d)
    ring = ambient_ring(p)
    g = proof_ideals(p).g
    e = segre_map(p).exponent_matrix()
    verdict = checks._is_toric_kernel(p, g, e, 10**6)
    assert verdict
    assert verdict == ideal_equal(toric_kernel(e, ring), Ideal(ring, g))


@pytest.mark.parametrize("c,d", [(3, 3), (3, 4)])
def test_certificate_rejects_lattice_basis_binomials(c, d, monkeypatch):
    p = Params(c, d)
    ring = ambient_ring(p)
    e = segre_map(p).exponent_matrix()
    basis = lattice_binomials(e, ring)
    assert not ideal_equal(toric_kernel(e, ring), Ideal(ring, basis))
    assert not checks._is_toric_kernel(p, basis, e, 10**6)

    real = proof_ideals

    def patched(params):
        pi = real(params)
        fields = {name: getattr(pi, name) for name in ProofIdeals.__slots__}
        fields["g"] = lattice_binomials(e, ring)
        return ProofIdeals(**fields)

    monkeypatch.setattr(checks.col, "proof_ideals", patched)
    (result,) = run_checks(p, ["torickernel"]).results
    assert result.status == "fail"
    assert result.actual == {"kernel_equals_binomials": False}


def test_certificate_rejects_a_smaller_lattice():
    # the 2x2 minors of the rows T_1_k and T_2_k generate a saturated
    # (prime) ideal, but their differences span less than ker(e)
    p = Params(3, 3)
    ring = ambient_ring(p)
    e = segre_map(p).exponent_matrix()
    rows = {ring.index[f"T_{i}_{k}"] for i in (1, 2) for k in (4, 5, 6)}
    minors = tuple(g for g in proof_ideals(p).g if g.support_vars() <= rows)
    assert len(minors) == 3
    weights = [sum(column) for column in e.columns()]
    ideal = Ideal(ring, minors)
    assert all(bayer_saturated(ideal, weights, ring.names[i]) for i in rows)
    assert not checks._is_toric_kernel(p, minors, e, 10**6)


@pytest.mark.parametrize("c,d", [(3, 3), (3, 4), (4, 4), (4, 3)])
def test_split_binomials_form_one_orbit(c, d):
    p = Params(c, d)
    g = proof_ideals(p).g
    assert len(checks._orbit_representatives(p, g)) == 1
    # dropping one binomial breaks the symmetry: not one orbit any more
    assert len(checks._orbit_representatives(p, g[1:])) > 1


def test_one_basis_per_run_checks_call(monkeypatch):
    calls, presentations = [], []

    def counting(*args):
        calls.append(args)
        return weighted_basis(*args)

    def counting_presentation(p):
        presentations.append(p)
        return cox_presentation(p)

    monkeypatch.setattr(checks, "weighted_basis", counting)
    monkeypatch.setattr(checks.col, "cox_presentation", counting_presentation)
    report = run_checks(Params(3, 3), ["dimension", "saturation"])
    assert [r.status for r in report.results] == ["pass", "pass"]
    assert len(calls) == len(presentations) == 1
    # nothing is kept between calls
    run_checks(Params(3, 3), ["dimension", "saturation"])
    assert len(calls) == len(presentations) == 2


def test_exhausted_budget_skips_every_check_sharing_the_basis(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return weighted_basis(*args)

    monkeypatch.setattr(checks, "weighted_basis", counting)
    report = run_checks(Params(3, 3), ["dimension", "saturation"], budget=1)
    assert [r.status for r in report.results] == ["skipped", "skipped"]
    assert all("budget" in r.actual for r in report.results)
    assert len(calls) == 1


def test_default_check_ids_include_groebner_through_5_5():
    assert len(default_check_ids(Params(5, 5))) == 13
    assert len(default_check_ids(Params(5, 6))) == 10


def test_verify_runs_all_checks_by_default_at_5_5(capsys):
    code = main(["verify", "--c", "5", "--d", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "13/13 passed, 0 failed" in out
