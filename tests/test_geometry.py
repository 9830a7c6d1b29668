import itertools
import warnings

import pytest

from coxpres.collineation import (Params, barycenter_ray, gale_matrix_P,
                                  weight_matrices)
from coxpres.checks import run_checks
from coxpres.geometry import (Cone, Fan, GalePair, barycenter_direction,
                              cone_intersect, cone_membership, gale_cone_test,
                              git_fan, mori_cones, stellar_subdivide)
from coxpres.intlinalg import IntMatrix

W1, W2, W3, W4 = (1, 1, -1), (1, 0, 0), (1, -1, 0), (0, 0, 1)


# -- membership


def test_membership_relint_interior_point():
    c = Cone.from_generators(2, [(1, 1), (1, 0)])
    assert cone_membership(c, (2, 1), "relative-interior")


def test_membership_boundary_ray():
    c = Cone.from_generators(2, [(1, 1), (1, 0)])
    assert not cone_membership(c, (1, 1), "relative-interior")
    assert cone_membership(c, (1, 1), "closed")


def test_membership_outside_ray():
    c = Cone.from_generators(2, [(1, 0)])
    assert not cone_membership(c, (1, 1), "closed")


def test_membership_zero_cone():
    z = Cone.zero(2)
    assert cone_membership(z, (0, 0), "closed")
    assert cone_membership(z, (0, 0), "relative-interior")
    assert not cone_membership(z, (1, 0), "closed")


@pytest.mark.parametrize("gens,zero_inside", [
    ([(1, 0), (-1, 0)], True),            # a line
    ([(1, 0), (0, 1), (-1, -1)], True),   # the plane
    ([(1, 0), (0, 1), (-1, 0)], False),   # a half-plane
    ([(1, 0), (1, 1)], False),            # a pointed cone
])
def test_membership_zero_in_relative_interior_of_subspaces(gens, zero_inside):
    c = Cone.from_generators(2, gens)
    assert cone_membership(c, (0, 0), "closed")
    assert cone_membership(c, (0, 0), "relative-interior") == zero_inside


def test_membership_non_simplicial():
    c = Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    assert c.contains((1, 1, 1))
    assert c.contains((2, 2, 1), relative_interior=True)
    assert not c.contains((0, 0, -1))


# -- intersection


def test_intersect_sectors():
    a = Cone.from_generators(2, [(1, 1), (1, -1)])
    b = Cone.from_generators(2, [(1, 0), (0, 1)])
    assert cone_intersect(a, b) == Cone.from_generators(2, [(1, 1), (1, 0)])


def test_intersect_idempotent():
    c = Cone.from_generators(3, [W1, W2, W4])
    assert cone_intersect(c, c) == c


def test_intersect_drops_outside_generator():
    big = Cone.from_generators(3, [W1, W2, W3, W4])
    small = Cone.from_generators(3, [W1, W2, W3])
    inter = cone_intersect(big, small)
    assert inter == small
    # w4 is not in the smaller cone: every nonzero element there has a
    # positive first coordinate
    assert not small.contains(W4)


def test_intersect_dimension_guard():
    c = Cone.from_generators(4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        cone_intersect(c, c)


def test_intersect_to_ray_and_zero():
    a = Cone.from_generators(2, [(1, 0), (1, 1)])
    b = Cone.from_generators(2, [(1, 1), (0, 1)])
    assert cone_intersect(a, b) == Cone.from_generators(2, [(1, 1)])
    c = Cone.from_generators(2, [(1, 0)])
    d = Cone.from_generators(2, [(0, 1)])
    assert cone_intersect(c, d).is_zero()


# -- chamber fans


def test_git_fan_of_weight_matrix():
    q, _ = weight_matrices(Params(3, 3))
    fan = git_fan(q)
    chambers = {frozenset(fan.rays[i] for i in mc) for mc in fan.maximal_cones}
    assert chambers == {frozenset({(1, 1), (1, 0)}), frozenset({(1, 0), (1, -1)})}


def test_git_fan_identical_columns():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fan = git_fan(IntMatrix.from_cols([(1, 0), (1, 0)]))
    assert fan.rays == ((1, 0),)
    assert fan.maximal_cones == ((0,),)


def _brute_force_chambers(cols, samples):
    """Independent oracle: chambers by definition, over sampled points."""
    n = len(cols)
    orbit_cones = [Cone.from_generators(2, [cols[i] for i in s])
                   for r in range(n + 1)
                   for s in itertools.combinations(range(n), r)]
    chambers = set()
    for w in samples:
        containing = [oc for oc in orbit_cones if oc.contains(w)]
        if not containing:
            continue
        lam = containing[0]
        for oc in containing[1:]:
            lam = cone_intersect(lam, oc)
        if lam.dim() == 2:
            chambers.add(lam)
    return chambers


def test_git_fan_two_single_columns_regression():
    # one column on each boundary ray: a single full chamber, no wall
    # between them (recorded against the brute-force definition)
    q = IntMatrix.from_cols([(1, 1), (1, -1)])
    fan = git_fan(q)
    assert fan.rays == ((1, 1), (1, -1))
    assert fan.maximal_cones == ((0, 1),)
    samples = [(1, 0), (2, 1), (2, -1), (1, 1), (1, -1), (3, 2)]
    oracle = _brute_force_chambers([(1, 1), (1, -1)], samples)
    assert oracle == {Cone.from_generators(2, [(1, 1), (1, -1)])}


def test_git_fan_matches_brute_force_on_standard_columns():
    cols = [(1, 1), (1, 0), (1, -1)]
    q = IntMatrix.from_cols(cols)
    fan = git_fan(q)
    samples = [(2, 1), (2, -1), (1, 0), (3, 1), (3, -2), (1, 1)]
    oracle = _brute_force_chambers(cols, samples)
    got = {fan.cone(mc) for mc in fan.maximal_cones}
    assert got == oracle


def test_git_fan_rejects_unpointed():
    with pytest.raises(ValueError):
        git_fan(IntMatrix.from_cols([(1, 0), (-1, 0)]))


def test_git_fan_warns_on_rank_one():
    with pytest.warns(UserWarning):
        git_fan(IntMatrix.from_cols([(1, 0), (2, 0)]))


def test_git_fan_needs_two_rows():
    with pytest.raises(ValueError):
        git_fan(IntMatrix.from_rows([[1, 1]]))


# -- Gale criterion


@pytest.fixture(scope="module")
def gale33():
    p = Params(3, 3)
    q, _ = weight_matrices(p)
    return p, q, GalePair(gale_matrix_P(p), q)


def test_gale_accepts_mixed_removal(gale33):
    p, q, gale = gale33
    # one column from the first block, one from the middle block
    assert gale_cone_test(gale, (2, 1), (0, 3))


def test_gale_rejects_pure_middle_removal(gale33):
    p, q, gale = gale33
    assert not gale_cone_test(gale, (2, 1), (3, 4))


def test_gale_mirror_chamber(gale33):
    p, q, gale = gale33
    # one column from the last block, one from the first
    assert gale_cone_test(gale, (2, -1), (0, 12))


def test_gale_empty_removal_is_false(gale33):
    p, q, gale = gale33
    assert not gale_cone_test(gale, (2, 1), ())


def test_gale_requires_gale_pair(gale33):
    p, q, _ = gale33
    with pytest.raises(ValueError, match="nonzero"):
        GalePair(IntMatrix.identity(15), q)
    with pytest.raises(ValueError, match="column counts differ"):
        GalePair(IntMatrix.identity(14), q)


def test_gale_exhaustive_counts(gale33):
    p, q, gale = gale33
    acc1 = sum(1 for pair in itertools.combinations(range(15), 2)
               if gale_cone_test(gale, (2, 1), pair))
    acc2 = sum(1 for pair in itertools.combinations(range(15), 2)
               if gale_cone_test(gale, (2, -1), pair))
    assert acc1 == 36
    assert acc2 == 36


def reference_gale_test(q, w, removed):
    cone = Cone.from_generators(2, [q.col(j) for j in set(removed)])
    return cone.contains(w, relative_interior=True)


@pytest.mark.parametrize("c,d", [(3, 3), (3, 4), (2, 5), (5, 2), (4, 5)])
def test_gale_closed_form_matches_cone_route(c, d):
    p = Params(c, d)
    q, _ = weight_matrices(p)
    gale = GalePair(gale_matrix_P(p), q)
    for w in ((2, 1), (2, -1)):
        pairs = list(itertools.combinations(range(p.n), 2))
        fast = {pair for pair in pairs if gale_cone_test(gale, w, pair)}
        slow = {pair for pair in pairs if reference_gale_test(q, w, pair)}
        assert fast == slow


def test_gale_needs_two_rows():
    q = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    gale = GalePair(IntMatrix.from_rows([[1, 1, -1]]), q)
    with pytest.raises(ValueError, match="2-row"):
        gale_cone_test(gale, (1, 1, 1), (0, 1))


# the degenerate regimes c = 2 and d = 2, and asymmetric general cells
@pytest.mark.parametrize("c,d", [(2, 5), (5, 2), (3, 4), (4, 3), (4, 5)])
def test_fancomb_passes_off_the_default_cell(c, d):
    report = run_checks(Params(c, d), ["gale", "fancomb"])
    assert [(r.check_id, r.status) for r in report.results] == [
        ("fancomb", "pass"), ("gale", "pass")]


# -- stellar subdivision


def test_stellar_splits_quadrant():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),), simplicial=True)
    out = stellar_subdivide(fan, (0, 1), (1, 1))
    assert out.rays == ((1, 0), (0, 1), (1, 1))
    assert set(out.maximal_cones) == {(0, 2), (1, 2)}
    out.validate()


def test_stellar_rejects_existing_ray():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),), simplicial=True)
    with pytest.raises(ValueError):
        stellar_subdivide(fan, (0,), (2, 0))


def test_stellar_rejects_exterior_ray():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),), simplicial=True)
    with pytest.raises(ValueError):
        stellar_subdivide(fan, (0, 1), (1, 0))
    with pytest.raises(ValueError):
        stellar_subdivide(fan, (0, 1), (-1, 1))


def test_stellar_on_quotient_fan_counts():
    p = Params(3, 3)
    q, _ = weight_matrices(p)
    pm = gale_matrix_P(p)
    gale = GalePair(pm, q)
    accepted = [pair for pair in itertools.combinations(range(15), 2)
                if gale_cone_test(gale, (2, 1), pair)]
    fan = Fan(13, tuple(pm.columns()),
              tuple(tuple(i for i in range(15) if i not in pair)
                    for pair in accepted), simplicial=True)
    fan.validate()
    assert len(fan.maximal_cones) == 36
    rho = barycenter_ray(p)
    assert rho == tuple([0] * 12 + [1])
    out = stellar_subdivide(fan, tuple(range(12, 15)), rho)
    assert len(out.maximal_cones) == 90
    out.validate()


def test_stellar_preserves_support_sample():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),), simplicial=True)
    out = stellar_subdivide(fan, (0, 1), (1, 2))
    for v in [(1, 1), (2, 1), (1, 3), (5, 1), (1, 5)]:
        hits = [mc for mc in out.maximal_cones if out.cone(mc).contains(v)]
        assert hits
        strict = [mc for mc in out.maximal_cones
                  if out.cone(mc).contains(v, relative_interior=True)]
        assert len(strict) <= 1


# -- barycenter direction


def test_barycenter_of_last_block():
    pm = gale_matrix_P(Params(3, 3))
    assert barycenter_direction(pm, range(12, 15)) == tuple([0] * 12 + [1])


def test_barycenter_single_column():
    m = IntMatrix.from_cols([(2, 4)])
    assert barycenter_direction(m, [0]) == (1, 2)


def test_barycenter_rescales_and_rejects_zero():
    m = IntMatrix.from_cols([(2, 0), (4, 0), (-6, 0)])
    assert barycenter_direction(m, [0, 1]) == (1, 0)
    with pytest.raises(ValueError):
        barycenter_direction(m, [0, 1, 2])


# -- effective and movable cones


def test_mori_cones_of_presentation_degrees():
    for c, d in [(3, 3), (4, 5)]:
        _, qinf = weight_matrices(Params(c, d))
        eff, mov = mori_cones(qinf.columns())
        assert eff == Cone.from_generators(3, [W1, W3, W4])
        assert mov == Cone.from_generators(3, [W1, W2, W3])


def test_mori_single_degree():
    eff, mov = mori_cones([(1, 0, 0)])
    assert eff == Cone.from_generators(3, [(1, 0, 0)])
    assert mov.is_zero()


def test_mori_standard_basis():
    eff, mov = mori_cones([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert eff == Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert mov.is_zero()


def test_mov_inside_eff():
    degs = [(1, 0, 0), (1, 2, 0), (0, 1, 1), (2, 1, 1)]
    eff, mov = mori_cones(degs)
    for g in mov.generators:
        assert eff.contains(g)
