"""Tests for bounded cohomology: free complexes with polynomial entries,
truncated morphism cohomology, H^0 presentations, and the worked families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tube_ncr.exactalg import Field, PolyRing
from tube_ncr.cohom import (
    FreeComplex,
    char2_pagoda_check,
    h0_presentation,
    localization_consistency,
    pagoda_quiver,
    sphere_complex,
    truncated_cohomology,
)
from tube_ncr.quivalg import (
    AlgebraElement,
    Arrow,
    Path,
    Presentation,
    Quiver,
    contraction_quiver,
    contraction_vertex,
    drinfeld_localize,
    lazy,
    tube_algebra,
    tube_vertex,
)

QQ = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)

SPHERE_DIMS = {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0, 3: 1}
SPHERE_RANKS = {-2: 1, -1: 2, 0: 1, 1: 1, 2: 2, 3: 1}


def xy_ring(field=QQ) -> PolyRing:
    return PolyRing(field, ("x", "y"))


def scalar_times_unit(pres, poly, vertex) -> AlgebraElement:
    return pres.element([(poly, lazy(vertex))])


# -- free complexes: construction guards ----------------------------------------


def test_duplicate_generator_name_rejected():
    ring = PolyRing(QQ, ("t",))
    with pytest.raises(ValueError, match="used twice"):
        FreeComplex(ring, {0: ["u"], 1: ["u"]}, {})


def test_differential_must_hit_known_generators():
    ring = PolyRing(QQ, ("t",))
    t = ring.gen("t")
    with pytest.raises(ValueError, match="unknown generator"):
        FreeComplex(ring, {0: ["u"]}, {"u": {"ghost": t}})
    with pytest.raises(ValueError, match="unknown generator"):
        FreeComplex(ring, {0: ["u"], 1: ["w"]}, {"ghost": {"w": t}})


def test_differential_must_raise_degree_by_one():
    ring = PolyRing(QQ, ("t",))
    t = ring.gen("t")
    with pytest.raises(ValueError, match="expected degree"):
        FreeComplex(ring, {0: ["u", "u2"]}, {"u": {"u2": t}})
    with pytest.raises(ValueError, match="expected degree"):
        FreeComplex(ring, {0: ["u"], 2: ["w"]}, {"u": {"w": t}})


def test_square_zero_is_checked():
    # Flip one sign in a complex that otherwise squares to zero and the
    # constructor must refuse it.
    ring = PolyRing(QQ, ("t0", "t1"))
    t0, t1 = ring.gen("t0"), ring.gen("t1")
    gens = {0: ["y"], 1: ["x", "z"], 2: ["e"]}
    good = {"y": {"z": t1, "x": -t0}, "x": {"e": t1}, "z": {"e": t0}}
    FreeComplex(ring, gens, good)
    bad = {"y": {"z": t1, "x": t0}, "x": {"e": t1}, "z": {"e": t0}}
    with pytest.raises(ValueError, match="d\\^2"):
        FreeComplex(ring, gens, bad)


def test_entries_must_be_homogeneous_of_one_degree():
    ring = PolyRing(QQ, ("t",))
    t = ring.gen("t")
    mixed_entry = FreeComplex(ring, {0: ["u"], 1: ["w"]}, {"u": {"w": t + t * t}})
    with pytest.raises(ValueError, match="not homogeneous"):
        mixed_entry.cohomology()
    two_degrees = FreeComplex(
        ring,
        {0: ["u", "u2"], 1: ["w", "w2"]},
        {"u": {"w": t}, "u2": {"w2": t * t}},
    )
    with pytest.raises(ValueError, match="mixed degrees"):
        two_degrees.cohomology()


def test_empty_complex_rejected():
    ring = PolyRing(QQ, ("t",))
    with pytest.raises(ValueError, match="no generators"):
        FreeComplex(ring, {}, {}).cohomology()


# -- free complexes: sphere -----------------------------------------------------


def test_sphere_shape():
    sph = sphere_complex()
    assert sph.degrees() == [-2, -1, 0, 1, 2, 3]
    assert sph.ranks() == SPHERE_RANKS
    assert sph.euler_characteristic() == 0


@pytest.mark.parametrize("field", [QQ, F5], ids=["rationals", "F5"])
def test_sphere_cohomology_dims(field):
    rep = sphere_complex(field).cohomology()
    assert rep.dims == SPHERE_DIMS
    assert rep.status == "stable"
    assert rep.euler_ranks() == 0
    assert rep.euler_dims() == 0


def test_sphere_report_json_shape():
    data = sphere_complex().cohomology().to_json()
    assert sorted(data) == ["dims", "euler", "poly_bound", "ranks", "status"]
    assert data["euler"] == {"ranks": 0, "cohomology": 0}
    assert data["dims"]["0"] == 1 and data["dims"]["3"] == 1


def test_zero_differential_complex_is_inconclusive():
    # With d = 0 over k[t] every layer survives, so the dims track the
    # coefficient bound instead of stabilising.
    ring = PolyRing(QQ, ("t",))
    cx = FreeComplex(ring, {0: ["u"], 1: ["w"]}, {})
    rep = cx.cohomology(poly_bound=4)
    assert rep.dims == {0: 5, 1: 5}
    assert rep.status == "inconclusive_at_bound"


# -- free complexes: specialisation ---------------------------------------------


def test_specialise_validates_values():
    sph = sphere_complex()
    with pytest.raises(ValueError):
        sph.specialise((0,))
    with pytest.raises(ValueError, match="scalar values"):
        sph.specialise((sph.ring.gen("t0"), 0))


def test_specialise_at_origin_kills_the_differential():
    rep = sphere_complex().specialise((0, 0)).cohomology()
    assert rep.dims == SPHERE_RANKS
    assert rep.status == "stable"


def test_specialise_at_smooth_point_is_exact():
    rep = sphere_complex().specialise((3, 7)).cohomology()
    assert rep.dims == {d: 0 for d in SPHERE_DIMS}
    assert rep.status == "stable"


@given(a=st.integers(min_value=-5, max_value=5), b=st.integers(min_value=-5, max_value=5))
@settings(max_examples=40, deadline=None)
def test_specialised_euler_is_zero_rationals(a, b):
    rep = sphere_complex().specialise((a, b)).cohomology()
    assert rep.euler_dims() == 0
    assert rep.status == "stable"
    if (a, b) != (0, 0):
        assert all(v == 0 for v in rep.dims.values())


@given(a=st.integers(min_value=0, max_value=4), b=st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_specialised_euler_is_zero_f5(a, b):
    rep = sphere_complex(F5).specialise((a, b)).cohomology()
    assert rep.euler_dims() == 0
    if (a, b) != (0, 0):
        assert all(v == 0 for v in rep.dims.values())


# -- truncated morphism cohomology ----------------------------------------------


def conifold_presentation():
    ring = xy_ring()
    return contraction_quiver(1, ring, (ring.gen("x"), ring.gen("y")))


def test_truncated_cohomology_validates_inputs():
    pres = conifold_presentation()
    v = contraction_vertex(1)
    with pytest.raises(ValueError, match="m must be"):
        truncated_cohomology(pres, v, v, -1)
    with pytest.raises(ValueError, match="stability_step"):
        truncated_cohomology(pres, v, v, 0, stability_step=0)
    with pytest.raises(ValueError, match="image window"):
        truncated_cohomology(pres, v, v, 0, image_length_slack=0)


def test_conifold_ranks_and_generators():
    pres = conifold_presentation()
    v = contraction_vertex(1)
    ranks = []
    gens = {}
    for m in range(5):
        rep = truncated_cohomology(pres, v, v, m, length_bound=8, poly_bound=8)
        assert rep.status == "stable", (m, rep.status)
        ranks.append(rep.rank)
        gens[m] = rep.generators
    assert ranks == [1, 0, 1, 0, 1]
    assert gens[0] == ["e[1]"]
    assert gens[2] == ["alpha*beta + beta*alpha"]
    assert gens[4] == ["alpha*beta*alpha*beta + beta*alpha*beta*alpha"]


def test_conifold_rank_agrees_across_bounds():
    pres = conifold_presentation()
    v = contraction_vertex(1)
    for m, expected in [(0, 1), (1, 0), (2, 1)]:
        for bound in (2, 4, 8):
            rep = truncated_cohomology(
                pres, v, v, m, length_bound=bound, poly_bound=bound,
                with_generators=False,
            )
            assert rep.rank == expected, (m, bound, rep.rank)


def test_window_too_short_is_reported_not_hidden():
    # At length 1 the degree -2 window is empty; the rerun at length 3
    # finds the class, so the status must flag the disagreement.
    pres = conifold_presentation()
    v = contraction_vertex(1)
    rep = truncated_cohomology(pres, v, v, 2, length_bound=1, poly_bound=2)
    assert rep.rank == 0
    assert rep.status == "inconclusive_at_bound"


def test_cohomology_report_json_shape():
    pres = conifold_presentation()
    v = contraction_vertex(1)
    data = truncated_cohomology(pres, v, v, 2, length_bound=4, poly_bound=4).to_json()
    assert sorted(data) == ["bounds", "degree", "generators", "rank", "status"]
    assert data["degree"] == -2
    assert data["bounds"] == {"len": 4, "polydeg": 4}


def test_image_window_needs_slack_for_collapsing_rules():
    # On the localised cyclic presentation a single rewrite can shorten a
    # word by three letters, so an image window only one letter past the
    # kernel window misses boundaries and the run cannot certify itself.
    ring = xy_ring()
    loc = drinfeld_localize(
        tube_algebra(1, ring, (ring.gen("x"), ring.gen("y"))), tube_vertex(0)
    )
    v = tube_vertex(1)
    good = truncated_cohomology(
        loc, v, v, 1, length_bound=6, poly_bound=4, with_generators=False
    )
    assert (good.rank, good.status) == (0, "stable")
    narrow = truncated_cohomology(
        loc, v, v, 1, length_bound=6, poly_bound=4,
        with_generators=False, image_length_slack=1,
    )
    assert (narrow.rank, narrow.status) != (0, "stable")


# -- H^0 presentations -----------------------------------------------------------


def cusp_contraction():
    ring = xy_ring()
    x, y = ring.gen("x"), ring.gen("y")
    return contraction_quiver(2, ring, (x, x ** 2 + y ** 3, y))


def test_h0_rejects_unhandled_degrees():
    ring = PolyRing(QQ, ("t",))
    quiver = Quiver(("P",), (Arrow("s", "P", "P", -2),))
    pres = Presentation(quiver, ring, {})
    with pytest.raises(ValueError, match="degrees 0 and -1"):
        h0_presentation(pres)


def test_h0_of_tube_has_no_relations():
    ring = xy_ring()
    tube = tube_algebra(1, ring, (ring.gen("x"), ring.gen("y")))
    h0 = h0_presentation(tube)
    assert sorted(h0.generators) == ["a0", "a1", "b0", "b1"]
    assert h0.relations == []
    assert h0.contains(tube.zero()).status == "member"
    # No relations means no window, so a nonzero element can only come
    # back unresolved.
    x_unit = scalar_times_unit(tube, ring.gen("x"), tube_vertex(0))
    assert h0.contains(x_unit).status == "inconclusive_at_bound"


def test_cusp_contraction_h0_data():
    h0 = h0_presentation(cusp_contraction(), length_bound=6)
    assert h0.generators == ["a1", "b1"]
    assert sorted(r.to_text() for r in h0.relations) == ["x*e[1]", "y*e[2]"]
    data = h0.to_json()
    assert sorted(data) == ["generators", "length_bound", "relations", "vertices"]
    assert data["vertices"] == ["1", "2"]


@pytest.mark.parametrize("poly_bound", [8, 10])
def test_cusp_contraction_relations(poly_bound):
    # The two loops reduce to (x^2 + y^3) times a unit, and modulo the
    # relations x e_1 and y e_2 that is the square of x e_2 on one side
    # and the cube of y e_1 on the other.
    pres = cusp_contraction()
    h0 = h0_presentation(pres, length_bound=6)
    ring = pres.ring
    x, y = ring.gen("x"), ring.gen("y")
    v1, v2 = contraction_vertex(1), contraction_vertex(2)
    ell = scalar_times_unit(pres, x, v2)
    em = scalar_times_unit(pres, y, v1)
    loop_hi = pres.multiply(pres.arrow_element("a1"), pres.arrow_element("b1"))
    loop_lo = pres.multiply(pres.arrow_element("b1"), pres.arrow_element("a1"))
    assert loop_hi.to_text() == "(y^3 + x^2)*e[2]"
    assert loop_lo.to_text() == "(y^3 + x^2)*e[1]"

    sq = pres.multiply(ell, ell)
    cube = pres.multiply(em, pres.multiply(em, em))
    assert h0.relation_holds(sq, loop_hi, poly_bound).status == "member"
    assert h0.relation_holds(cube, loop_lo, poly_bound).status == "member"

    # The coefficients that vanish against the end relations do so on
    # both sides of each interior arrow.
    for coef, name in [(x, "a1"), (x, "b1"), (y, "a1"), (y, "b1")]:
        scaled = pres.element(
            [(coef, p) for p in pres.arrow_element(name).terms]
        )
        assert h0.contains(scaled, poly_bound).status == "member", (str(coef), name)


def test_cusp_membership_is_honest_about_nonmembers():
    pres = cusp_contraction()
    h0 = h0_presentation(pres, length_bound=6)
    ell = scalar_times_unit(pres, pres.ring.gen("x"), contraction_vertex(2))
    assert h0.contains(ell).status == "inconclusive_at_bound"


def test_cusp_window_closure():
    h0 = h0_presentation(cusp_contraction(), length_bound=6)
    result = h0.closure_check()
    assert result["ok"]
    assert result["checked"] == 16
    assert result["failures"] == []


def test_membership_witness_verifies():
    # Recombine the witness against the window and land exactly on the
    # tested element.
    pres = cusp_contraction()
    h0 = h0_presentation(pres, length_bound=6)
    ring = pres.ring
    target = scalar_times_unit(pres, ring.gen("x") ** 2, contraction_vertex(1))
    res = h0.contains(target)
    assert res.status == "member"
    window = h0.window_elements()
    assert len(res.witness) == len(window)
    acc = pres.zero()
    for coef, u in zip(res.witness, window):
        acc = acc + pres.element([(coef * p, path) for path, p in u.terms.items()])
    assert pres.reduce(acc - target).is_zero()


# -- pagoda family ---------------------------------------------------------------


def test_pagoda_quiver_validates_n():
    with pytest.raises(ValueError, match="n must be"):
        pagoda_quiver(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pagoda_h0_dimension(n):
    # Eliminating the first loop differential sends y to -x^n, which
    # turns the second into a unit times x^n: the quotient has basis
    # 1, x, ..., x^{n-1} in characteristic zero.
    rep = truncated_cohomology(
        pagoda_quiver(n), contraction_vertex(1), contraction_vertex(1), 0,
        length_bound=3, poly_bound=2 * n + 2, with_generators=False,
    )
    assert rep.rank == n
    assert rep.status == "stable"


def test_pagoda_ideal_membership_pins():
    pag = pagoda_quiver(3)
    h0 = h0_presentation(pag)
    x, y = pag.ring.gen("x"), pag.ring.gen("y")
    v = contraction_vertex(1)
    assert h0.generators == []
    assert h0.contains(scalar_times_unit(pag, x ** 3, v)).status == "member"
    assert h0.contains(scalar_times_unit(pag, y, v)).status == "member"
    assert (
        h0.contains(scalar_times_unit(pag, x ** 2, v)).status
        == "inconclusive_at_bound"
    )


@pytest.mark.parametrize("n", [2, 3])
def test_char2_pagoda_check_distinguishes(n):
    rep = char2_pagoda_check(n)
    assert rep.distinguishes
    assert rep.char0 == {
        "h0_rank": n, "h0_status": "stable", "x_power_membership": "member"
    }
    assert rep.char2["h0_status"] == "inconclusive_at_bound"
    assert rep.char2["x_power_membership"] == "inconclusive_at_bound"
    assert rep.char2["h0_rank"] > n
    data = rep.to_json()
    assert sorted(data) == ["char0", "char2", "distinguishes", "n"]


def test_char2_collapse_reason():
    # The two loop differentials coincide over F_2, so the ideal drops to
    # a single principal generator and the quotient picks up all of
    # k[x, y] / (y + x^n).
    pag2 = pagoda_quiver(2, F2)
    d_alpha = pag2.differential_of(pag2.arrow_element("alpha"))
    d_beta = pag2.differential_of(pag2.arrow_element("beta"))
    assert d_alpha == d_beta


# -- localisation consistency ----------------------------------------------------


def test_localization_requires_two_scalars():
    ring = xy_ring()
    with pytest.raises(ValueError, match="two scalars"):
        localization_consistency((ring.gen("x"),))


def test_localization_consistency_small_window():
    ring = xy_ring()
    rep = localization_consistency(
        (ring.gen("x"), ring.gen("y")), max_degree=2, length_bound=2, poly_bound=4
    )
    assert rep.ok
    assert [r["contraction_rank"] for r in rep.rows] == [1, 0, 1]
    assert [r["localized_rank"] for r in rep.rows] == [1, 0, 1]
    assert all(r["contraction_status"] == "stable" for r in rep.rows)
    assert all(r["localized_status"] == "stable" for r in rep.rows)
    data = rep.to_json()
    assert data["bounds"] == {
        "contraction": {"len": 2, "polydeg": 4},
        "localized": {"len": 6, "polydeg": 4},
    }
    assert data["f"] == ["x", "y"]
    assert data["ok"] is True


def test_localization_inconclusive_counts_as_failure():
    # A non-reduced scalar pair keeps growing with the bound; neither
    # side stabilises, and the comparison must refuse to claim agreement
    # even though the raw ranks happen to match.
    ring = xy_ring()
    x = ring.gen("x")
    rep = localization_consistency((x, x), max_degree=1, length_bound=1, poly_bound=2)
    assert not rep.ok
    assert all(
        r["contraction_status"] == "inconclusive_at_bound" for r in rep.rows
    )
    assert all(r["contraction_rank"] == r["localized_rank"] for r in rep.rows)


def _rank_only_cases():
    ring = xy_ring()
    x, y = ring.gen("x"), ring.gen("y")
    ring5 = xy_ring(F5)
    x5, y5 = ring5.gen("x"), ring5.gen("y")
    tube = tube_algebra(1, ring, (x, y))
    return [
        pytest.param(tube, tube_vertex(0), tube_vertex(1), 4, id="tube"),
        pytest.param(conifold_presentation(), contraction_vertex(1),
                     contraction_vertex(1), 4, id="contraction"),
        pytest.param(contraction_quiver(2, ring, (x, x ** 2 + y ** 3, y)),
                     contraction_vertex(1), contraction_vertex(2), 3,
                     id="contraction-cusp"),
        pytest.param(drinfeld_localize(tube, tube_vertex(0)),
                     tube_vertex(1), tube_vertex(1), 6, id="localized"),
        pytest.param(drinfeld_localize(tube_algebra(1, ring5, (x5 + y5, y5)),
                                       tube_vertex(0)),
                     tube_vertex(1), tube_vertex(1), 6, id="localized-f5"),
    ]


@pytest.mark.parametrize("pres,source,target,length", _rank_only_cases())
def test_rank_only_agrees_with_generator_run(pres, source, target, length):
    for m in range(3):
        full = truncated_cohomology(
            pres, source, target, m, length_bound=length, poly_bound=3
        )
        rank_only = truncated_cohomology(
            pres, source, target, m, length_bound=length, poly_bound=3,
            with_generators=False,
        )
        assert (rank_only.rank, rank_only.status) == (full.rank, full.status)
        assert len(full.generators) == full.rank
        assert rank_only.generators == []


def test_reported_generators_are_cocycles():
    # Here a row of the kernel system leads left of an earlier pivot and
    # also meets that pivot's column; an elimination that only clears
    # leading entries returned "(y^3 + x^2)*alpha*b1*beta*a1 + ...",
    # whose differential is not zero.
    ring = xy_ring(Field.prime(3))
    x, y = ring.gen("x"), ring.gen("y")
    pres = contraction_quiver(2, ring, (x, x ** 2 + y ** 3, y))
    v = contraction_vertex(1)
    rep = truncated_cohomology(pres, v, v, 2, length_bound=5, poly_bound=4)
    words = (("alpha", "b1", "beta", "a1"), ("b1", "beta", "a1", "alpha"))
    cocycles = [
        pres.element([(y ** k, Path(w)) for w in words]) for k in range(4)
    ]
    assert rep.generators == [c.to_text() for c in cocycles]
    for c in cocycles:
        assert pres.differential_of(c).is_zero()
