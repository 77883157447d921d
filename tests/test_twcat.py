"""Tests for the product tables, twisted complexes, and the half-twist
verification."""

import random

import pytest

from tube_ncr.exactalg import Field, PolyRing
from tube_ncr.quivalg import contraction_quiver, tube_algebra
from tube_ncr.twcat import (
    AInfTable,
    MissingProduct,
    TwComplex,
    TwMorphism,
    ainf_check,
    halftwist_complexes,
    halftwist_tables,
    matrix_mu,
    mu_tw,
    presentation_window_table,
    verify_halftwist,
)

QQ = Field.rationals()
F2 = Field.prime(2)


# -- table consistency --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("wrapping", ["left", "right"])
def test_halftwist_table_satisfies_all_relations(n, wrapping):
    table = halftwist_tables(n, wrapping)
    report = ainf_check(table, 4)
    assert report.ok, report.violations
    assert report.skipped == 0
    assert report.checked[4] > 1000


def test_halftwist_table_shape():
    table = halftwist_tables(2, "left")
    assert len(table.morphisms) == 18
    assert table.morphisms["p"].degree == 1
    assert table.morphisms["pbar"].degree == 0
    ring = table.ring
    t0 = ring.gen("t0")
    assert table.mu2_of("a0", "b0") == ((t0, "e1"),)
    # strict units
    assert table.mu2_of("eW", "alpha") == ((ring.one(), "alpha"),)
    assert table.mu2_of("alpha", "e0") == ((ring.one(), "alpha"),)
    assert table.mu3_of("eW", "p", "e0") == ()


def test_halftwist_table_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 2"):
        halftwist_tables(1, "left")
    with pytest.raises(ValueError, match="wrapping"):
        halftwist_tables(2, "middle")


def test_table_json_lists_all_structure_constants():
    table = halftwist_tables(2, "right")
    blob = table.to_json()
    assert len(blob["morphisms"]) == 18
    assert len(blob["mu2"]) == 48
    assert len(blob["mu3"]) == 19
    assert blob["mu1"].keys() == {"alpha", "beta"}


def test_negative_control_flipped_ternary_entry_breaks_arity_four():
    table = halftwist_tables(2, "left")
    mu3 = dict(table.mu3)
    del mu3[("alpha_prime", "p", "b0")]
    broken = AInfTable(
        table.ring,
        table.objects,
        list(table.morphisms.values()),
        table.identities,
        dict(table.mu1),
        dict(table.mu2),
        mu3,
        total=True,
    )
    report = ainf_check(broken, 4)
    assert not report.ok
    arities = {arity for arity, _, _ in report.violations}
    assert 4 in arities
    assert any(
        "alpha_prime" in args and "b0" in args
        for arity, args, _ in report.violations
        if arity == 4
    )


def test_sign_free_check_requires_char_two():
    # construction over QQ is fine; it is the checker that refuses
    ring = PolyRing(QQ, ("t0", "t1", "t2"))
    table = presentation_window_table(tube_algebra(2, ring), 2)
    with pytest.raises(ValueError, match="characteristic 2"):
        ainf_check(table, 3)


# -- window tables from presentations -----------------------------------------


def test_tube_window_table_is_associative_where_defined():
    ring = PolyRing(F2, ("t0", "t1", "t2"))
    table = presentation_window_table(tube_algebra(2, ring), 3)
    report = ainf_check(table, 4)
    assert report.ok, report.violations
    assert report.skipped > 0  # products leaving the window are undefined


def test_window_leaves_out_of_range_products_undefined():
    ring = PolyRing(QQ, ("t0", "t1", "t2"))
    table = presentation_window_table(tube_algebra(2, ring), 2)
    # a full turn has length 3 and does not fit in the window
    with pytest.raises(MissingProduct):
        table.mu2_of("a2*a1", "a0")
    # a backtracking pair reduces and stays inside
    t0 = ring.gen("t0")
    assert table.mu2_of("b0", "a0") == ((t0, "e[L0]"),)


def test_contraction_window_table_with_differential():
    ring = PolyRing(F2, ("x", "y"))
    x, y = ring.gens()
    pres = contraction_quiver(2, ring, (x, x + y, y))
    table = presentation_window_table(pres, 3)
    assert "alpha" in table.mu1
    report = ainf_check(table, 4)
    assert report.ok, report.violations


# -- twisted complexes ---------------------------------------------------------


def test_connection_must_be_strictly_triangular():
    table = halftwist_tables(2, "left")
    one = table.ring.one()
    with pytest.raises(ValueError, match="triangular"):
        TwComplex(
            table,
            [("L0", -1), ("L1", 0)],
            {(0, 1): {"b0": one}},
        )


def test_connection_degree_bookkeeping():
    table = halftwist_tables(2, "left")
    one = table.ring.one()
    # b0 has degree 0; without the shift the entry has total degree 0
    with pytest.raises(ValueError, match="total degree"):
        TwComplex(table, [("L1", 0), ("L0", 0)], {(1, 0): {"b0": one}})


def test_connection_flatness_guard():
    table = halftwist_tables(2, "left")
    one = table.ring.one()
    # alpha is not closed (mu1 alpha = t0 p), so it cannot be a connection
    with pytest.raises(ValueError, match="flatness"):
        TwComplex(table, [("L0", 0), ("W", -1)], {(1, 0): {"alpha": one}})


def test_nonzero_connection_requires_char_two():
    ring = PolyRing(QQ, ("t0", "t1", "t2"))
    table = presentation_window_table(tube_algebra(2, ring), 2)
    one = ring.one()
    with pytest.raises(ValueError, match="characteristic 2"):
        TwComplex(table, [("L0", 0), ("L1", -1)], {(1, 0): {"a0": one}})


def test_morphism_degree_bookkeeping():
    table = halftwist_tables(2, "left")
    w_cx, two_term, q1, q2 = halftwist_complexes(table)
    one = table.ring.one()
    # p sits in the shifted slot: total degree 1 + (-1) - 0 = 0
    assert q1.degree == 0
    with pytest.raises(ValueError, match="degree"):
        TwMorphism(two_term, w_cx, 1, {(0, 2): {"p": one}})
    with pytest.raises(ValueError, match="slot"):
        TwMorphism(two_term, w_cx, 0, {(0, 0): {"p": one}})


def test_mu_tw_with_zero_connection_is_entrywise():
    table = halftwist_tables(2, "left")
    one = table.ring.one()
    t0 = table.ring.gen("t0")
    src = TwComplex(table, [("L0", 0)], {})
    tgt = TwComplex(table, [("W", 0)], {})
    f = TwMorphism(src, tgt, 0, {(0, 0): {"alpha": one}})
    df = mu_tw(1, [f])
    assert df.degree == 1
    assert df.entries == {(0, 0): {"p": t0}}
    g = TwMorphism(tgt, src, 0, {(0, 0): {"pbar": one}})
    fg = mu_tw(2, [g, f])
    # left wrapping: pbar after alpha vanishes
    assert fg.is_zero()


def test_identity_morphism_is_a_unit_for_mu_tw():
    table = halftwist_tables(3, "right")
    _, two_term, q1, _ = halftwist_complexes(table)
    ident = two_term.identity()
    assert mu_tw(2, [q1, ident]) == q1
    assert mu_tw(2, [ident, mu_tw(2, [ident, ident])]) == ident


# -- the half-twist verification ----------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5])
def test_halftwist_verifies(n):
    report = verify_halftwist(n)
    assert report.ok
    for wrapping in ("left", "right"):
        entry = report.wrappings[wrapping]
        assert entry["q1_closed"] and entry["q2_closed"]
        assert entry["q2_after_q1_is_identity"]
        assert entry["q1_after_q2_is_identity"]
        assert entry["direct_routes_vanish"]


def test_halftwist_witnesses_are_wrapping_independent():
    report = verify_halftwist(3)
    left = report.wrappings["left"]
    right = report.wrappings["right"]
    assert left["q2_after_q1"] == right["q2_after_q1"]
    assert left["q1_after_q2"] == right["q1_after_q2"]
    assert "e0" in left["q2_after_q1"]


def test_negative_control_corrupted_comparison_morphism():
    table = halftwist_tables(2, "left")
    w_cx, two_term, q1, q2 = halftwist_complexes(table)
    one = table.ring.one()
    bad_q2 = TwMorphism(w_cx, two_term, 0, {(0, 0): {"alpha_prime": one}})
    round_trip = mu_tw(2, [bad_q2, q1])
    assert round_trip != two_term.identity()
    # the slot fed by the dropped chord receives nothing
    assert (1, 1) not in round_trip.entries


def test_round_trips_on_both_sides():
    table = halftwist_tables(4, "right")
    w_cx, two_term, q1, q2 = halftwist_complexes(table)
    assert mu_tw(2, [q2, q1]) == two_term.identity()
    assert mu_tw(2, [q1, q2]) == w_cx.identity()


def _random_endomorphism(table, cx, rng):
    """Random degree-0 endomorphism of the two-term complex."""
    ring = table.ring
    t0 = ring.gen("t0")
    tn = ring.gen(table.ring.names[-1])
    coefs = [ring.one(), t0, tn, t0 + tn, t0 * tn, ring.zero()]
    allowed = {
        (0, 0): "e1",
        (1, 1): "en",
        (2, 2): "e0",
        (0, 1): "cn",
        (1, 0): "c1",
    }
    entries = {}
    for pos, name in allowed.items():
        coef = rng.choice(coefs)
        if not coef.is_zero():
            entries[pos] = {name: coef}
    return TwMorphism(cx, cx, 0, entries)


def test_mu_tw_associative_up_to_ternary_correction():
    table = halftwist_tables(2, "left")
    _, two_term, _, _ = halftwist_complexes(table)
    rng = random.Random(20260818)

    def mu3_tw(f3, f2, f1):
        # with tables ending at the ternary level, connection
        # insertions all vanish and only the bare term survives
        entries = matrix_mu(
            table, [f3.entries, f2.entries, f1.entries]
        )
        return TwMorphism(
            f1.source,
            f3.target,
            f1.degree + f2.degree + f3.degree - 1,
            entries,
        )

    for _ in range(20):
        f = _random_endomorphism(table, two_term, rng)
        g = _random_endomorphism(table, two_term, rng)
        h = _random_endomorphism(table, two_term, rng)
        acc = mu_tw(2, [mu_tw(2, [h, g]), f]) + mu_tw(2, [h, mu_tw(2, [g, f])])
        acc = acc + mu_tw(1, [mu3_tw(h, g, f)])
        acc = acc + mu3_tw(mu_tw(1, [h]), g, f)
        acc = acc + mu3_tw(h, mu_tw(1, [g]), f)
        acc = acc + mu3_tw(h, g, mu_tw(1, [f]))
        assert acc.is_zero(), acc.to_text()


def test_mu_tw_squares_to_zero_on_random_morphisms():
    table = halftwist_tables(2, "right")
    _, two_term, _, _ = halftwist_complexes(table)
    rng = random.Random(7)
    for _ in range(10):
        f = _random_endomorphism(table, two_term, rng)
        ddf = mu_tw(1, [mu_tw(1, [f])])
        assert ddf.is_zero(), ddf.to_text()
