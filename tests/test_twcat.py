"""Tests for the product tables, twisted complexes, and the half-twist
verification."""

import hashlib
import json
import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tube_ncr.exactalg import Field, InternalError, PolyRing, add_term
from tube_ncr.quivalg import Presentation, contraction_quiver, tube_algebra
from tube_ncr.twcat import (
    WRAPPINGS,
    AInfTable,
    BasisMorphism,
    MissingProduct,
    TwComplex,
    TwMorphism,
    ainf_check,
    halftwist_complexes,
    halftwist_tables,
    matrix_mu,
    mu_tw,
    verify_halftwist,
)

QQ = Field.rationals()
F2 = Field.prime(2)


def presentation_window_table(pres: Presentation, length_bound: int) -> AInfTable:
    """View a quiver presentation as a (partial) table: basis morphisms
    are the irreducible words of length <= bound, products are normal
    forms, and a product whose normal form leaves the window is left
    undefined rather than wrongly truncated.  These window tables are
    the second family, after the half-twist tables, that the relation
    sum is checked on."""
    morphisms = []
    identities = {}
    name_of = {}
    for src in pres.quiver.vertices:
        for path in pres.irreducible_words(src, None, length_bound):
            if path.is_lazy:
                name = f"e[{path.vertex}]"
                identities[path.vertex] = name
            else:
                name = "*".join(path.arrows)
            name_of[path] = name
            morphisms.append(
                BasisMorphism(
                    name,
                    pres.path_source(path),
                    pres.path_target(path),
                    pres.path_degree(path),
                )
            )
    mu1 = {}
    mu2 = {}
    by_name = {name_of[p]: p for p in name_of}
    for name, path in by_name.items():
        if path.is_lazy:
            continue
        image = pres.differential_of(pres.element([(pres.ring.one(), path)]))
        pairs = []
        for ipath, coef in image.terms.items():
            if len(ipath.arrows) > length_bound:
                raise InternalError(
                    f"d({name}) leaves the length-{length_bound} window"
                )
            pairs.append((coef, name_of[ipath]))
        if pairs:
            mu1[name] = pairs
    for xn, xp in by_name.items():
        for yn, yp in by_name.items():
            if xp.is_lazy or yp.is_lazy:
                continue
            if pres.path_source(xp) != pres.path_target(yp):
                continue
            product = pres.multiply(pres.element([(pres.ring.one(), xp)]),
                                    pres.element([(pres.ring.one(), yp)]))
            if all(len(p.arrows) <= length_bound for p in product.terms):
                mu2[(xn, yn)] = [
                    (coef, name_of[p]) for p, coef in product.terms.items()
                ]
    return AInfTable(
        pres.ring,
        pres.quiver.vertices,
        morphisms,
        identities,
        mu1,
        mu2,
        {},
        total=False,
    )


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
    assert table.mu_of(("a0", "b0")) == ((t0, "e1"),)
    # strict units
    assert table.mu_of(("eW", "alpha")) == ((ring.one(), "alpha"),)
    assert table.mu_of(("alpha", "e0")) == ((ring.one(), "alpha"),)
    assert table.mu_of(("eW", "p", "e0")) == ()
    # no mu4
    assert table.mu_of(("p", "pbar", "p", "pbar")) == ()


def test_halftwist_table_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 2"):
        halftwist_tables(1, "left")
    with pytest.raises(ValueError, match="wrapping"):
        halftwist_tables(2, "middle")


def test_table_lists_all_structure_constants():
    table = halftwist_tables(2, "right")
    assert len(table.morphisms) == 18
    assert len(table.mu2) == 48
    assert len(table.mu3) == 19
    assert table.mu1.keys() == {"alpha", "beta"}


# A table for the entry checks: identities eX and eY, f: X -> Y in
# degree 0, g: X -> Y in degree 1, and the loop h at Y.
CHECK_RING = PolyRing(F2, ("t",))
ONE = CHECK_RING.one()
CHECK_MORPHISMS = [
    BasisMorphism("eX", "X", "X", 0),
    BasisMorphism("eY", "Y", "Y", 0),
    BasisMorphism("f", "X", "Y", 0),
    BasisMorphism("g", "X", "Y", 1),
    BasisMorphism("h", "Y", "Y", 0),
]
CHECK_MU2 = {("h", "f"): [(ONE, "f")], ("h", "g"): [(ONE, "g")], ("h", "h"): []}


def check_table(**changes) -> AInfTable:
    args = {
        "morphisms": CHECK_MORPHISMS,
        "identities": {"X": "eX", "Y": "eY"},
        "mu1": {"f": [(CHECK_RING.gen("t"), "g")]},
        "mu2": CHECK_MU2,
        "mu3": {("h", "h", "g"): [(ONE, "f")]},
        "total": True,
    }
    args.update(changes)
    return AInfTable(CHECK_RING, ("X", "Y"), **args)


def test_entry_checks_accept_a_wellformed_table():
    table = check_table()
    assert table.mu_of(("h", "h", "g")) == ((ONE, "f"),)
    assert table.mu_of(("eY", "f")) == ((ONE, "f"),)


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"morphisms": CHECK_MORPHISMS + CHECK_MORPHISMS[:1]}, "duplicate"),
        ({"identities": {"X": "zz"}}, "unknown morphism 'zz'"),
        ({"identities": {"X": "f"}}, "degree-0 loop"),
        ({"mu1": {"zz": []}}, "unknown morphism 'zz'"),
        ({"mu1": {"f": [(ONE, "zz")]}}, "unknown morphism 'zz'"),
        ({"mu2": {**CHECK_MU2, ("h", "zz"): []}}, "unknown morphism 'zz'"),
        ({"mu3": {("h", "f"): []}}, "must name 3"),
        ({"mu2": {**CHECK_MU2, ("f", "f"): []}}, "not composable"),
        ({"mu2": {**CHECK_MU2, ("eY", "f"): [(ONE, "f")]}}, "identity"),
        ({"mu1": {"eX": [(ONE, "eX")]}}, "identity"),
        ({"mu3": {("h", "f", "eX"): [(ONE, "f")]}}, "identity"),
        ({"mu1": {"f": [(ONE, "h")]}}, "changes endpoints"),
        ({"mu2": {**CHECK_MU2, ("h", "f"): [(ONE, "g")]}}, "not of degree 0"),
        ({"mu3": {("h", "h", "g"): [(ONE, "g")]}}, "not of degree 0"),
        ({"mu1": {"f": [(PolyRing(QQ, ("t",)).one(), "g")]}}, "ring"),
        ({"mu2": {("h", "f"): [], ("h", "g"): []}}, r"missing the product \(h, h\)"),
        ({"morphisms": CHECK_MORPHISMS + [BasisMorphism("k", "X", "Nowhere", 0)]},
         "k runs X -> Nowhere"),
        ({"morphisms": CHECK_MORPHISMS + [BasisMorphism("k", "Nowhere", "Y", 0)]},
         "k runs Nowhere -> Y"),
    ],
)
def test_entry_checks_reject_malformed_tables(changes, match):
    with pytest.raises(ValueError, match=match):
        check_table(**changes)


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
        table.mu_of(("a2*a1", "a0"))
    # a backtracking pair reduces and stays inside
    t0 = ring.gen("t0")
    assert table.mu_of(("b0", "a0")) == ((t0, "e[L0]"),)


def test_contraction_window_table_with_differential():
    ring = PolyRing(F2, ("x", "y"))
    x, y = ring.gens()
    pres = contraction_quiver(2, ring, (x, x + y, y))
    table = presentation_window_table(pres, 3)
    assert "alpha" in table.mu1
    report = ainf_check(table, 4)
    assert report.ok, report.violations


def _frozen_verdicts() -> list:
    blobs = [verify_halftwist(n).to_json() for n in (2, 3, 4)]
    for wrapping in WRAPPINGS:
        table = halftwist_tables(2, wrapping)
        # a deleted mu3 entry is a wrong zero; a deleted mu2 entry is an
        # undefined product, so the partial table skips its chains
        for level, total in (("mu3", True), ("mu2", False)):
            for key in sorted(getattr(table, level)):
                levels = {
                    "mu1": dict(table.mu1),
                    "mu2": dict(table.mu2),
                    "mu3": dict(table.mu3),
                }
                del levels[level][key]
                broken = AInfTable(
                    table.ring,
                    table.objects,
                    list(table.morphisms.values()),
                    table.identities,
                    total=total,
                    **levels,
                )
                blobs.append(ainf_check(broken, 4).to_json())
    ring = PolyRing(F2, ("t0", "t1", "t2"))
    tube = presentation_window_table(tube_algebra(2, ring), 3)
    blobs.append(ainf_check(tube, 4).to_json())
    ring = PolyRing(F2, ("x", "y"))
    x, y = ring.gens()
    pres = contraction_quiver(2, ring, (x, x + y, y))
    blobs.append(ainf_check(presentation_window_table(pres, 3), 4).to_json())
    # no table above has a term in mu1(mu1(x)); this one does not square
    # to zero
    ring = PolyRing(F2, ("t",))
    loops = [
        BasisMorphism(name, "X", "X", degree)
        for name, degree in (("e", 0), ("u", 0), ("v", 1), ("w", 2))
    ]
    d = {"u": [(ring.gen("t"), "v")], "v": [(ring.one(), "w")]}
    table = AInfTable(ring, ("X",), loops, {"X": "e"}, d, total=False)
    blobs.append(ainf_check(table, 4).to_json())
    return blobs


def test_relation_verdicts_are_frozen():
    # sha256 of the verdicts as the per-arity relation check gave them,
    # before the relations became one sum over (block start, block length)
    blobs = _frozen_verdicts()
    assert len(blobs) == 140
    digest = hashlib.sha256(json.dumps(blobs, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "8b279ebbd308b64fb83f4163e31ae3eb855034b174de8b42497195664432fb7c"
    )


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
    # a0 after b0 is t0 e1, so mu2(delta, delta) is not zero
    with pytest.raises(ValueError, match="flatness"):
        TwComplex(
            table,
            [("L1", 0), ("L0", -1), ("L1", -2)],
            {(1, 0): {"b0": one}, (2, 1): {"a0": one}},
        )
    # the path b0, p, pbar: mu1 and mu2 vanish on it, mu3 only in the
    # right wrapping
    slots = [("L1", 0), ("L0", -1), ("W", -1), ("L0", -2)]
    delta = {(1, 0): {"b0": one}, (2, 1): {"p": one}, (3, 2): {"pbar": one}}
    TwComplex(table, slots, delta)
    with pytest.raises(ValueError, match="flatness"):
        TwComplex(halftwist_tables(2, "right"), slots, delta)


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
    # a negative index must not wrap round to the last slot
    with pytest.raises(ValueError, match="slot range"):
        TwMorphism(two_term, w_cx, 0, {(0, -1): {"p": one}})


def test_morphism_drops_zero_coefficients_after_checking_them():
    table = halftwist_tables(2, "left")
    one, zero = table.ring.one(), table.ring.zero()
    src = TwComplex(table, [("L0", 0)], {})
    tgt = TwComplex(table, [("W", 0)], {})
    alpha = TwMorphism(src, tgt, 0, {(0, 0): {"alpha": one}})
    # alpha + 0*beta is alpha, whether written out or added
    padded = TwMorphism(src, tgt, 0, {(0, 0): {"alpha": one, "beta": zero}})
    zero_beta = TwMorphism(src, tgt, 0, {(0, 0): {"beta": zero}})
    for f in (padded, alpha + zero_beta):
        assert f == alpha and f.entries == alpha.entries
        assert f.is_zero() == alpha.is_zero() is False
    # an all-zero entry is the zero morphism
    empty = TwMorphism(src, tgt, 0, {})
    assert zero_beta.is_zero() and zero_beta == empty and not zero_beta.entries
    # a zero coefficient beside a nonzero one is still checked
    with pytest.raises(ValueError, match="unknown morphism 'nope'"):
        TwMorphism(src, tgt, 0, {(0, 0): {"alpha": one, "nope": zero}})
    with pytest.raises(ValueError, match="does not map slot"):
        TwMorphism(src, tgt, 0, {(0, 0): {"alpha": one, "a0": zero}})


def test_an_all_zero_entry_is_checked_before_it_is_dropped():
    # An entry whose coefficients are all zero still names a slot pair and
    # morphisms; a bad one is a ValueError, not the zero morphism.
    table = halftwist_tables(2, "left")
    zero = table.ring.zero()
    src = TwComplex(table, [("L0", 0)], {})
    tgt = TwComplex(table, [("W", 0)], {})
    with pytest.raises(ValueError, match="outside the slot range"):
        TwMorphism(src, tgt, 0, {(5, 5): {"nope": zero}})
    with pytest.raises(ValueError, match="unknown morphism 'nope'"):
        TwMorphism(src, tgt, 0, {(0, 0): {"nope": zero}})
    with pytest.raises(ValueError, match="does not map slot"):
        TwMorphism(src, tgt, 0, {(0, 0): {"a0": zero}})
    with pytest.raises(ValueError, match="has total degree"):
        TwMorphism(src, tgt, 1, {(0, 0): {"alpha": zero}})


def two_stage_matrix_mu(table: AInfTable, mats) -> dict:
    """Reference ``matrix_mu`` in two stages: the index paths through
    the matrices first, then each path's chain of elements expanded into
    its composable chains of basis names."""

    def apply_mu(args):
        chains = [((), ())]
        for el in args:
            chains = [
                (names + (name,), coefs + (coef,))
                for names, coefs in chains
                for name, coef in el.items()
                if not names or table.composable(names[-1], name)
            ]
        out: dict = {}
        for names, coefs in chains:
            pairs = table.mu_of(names)
            if pairs:
                coef = reduce(mul, coefs)
                for scoef, gname in pairs:
                    add_term(out, gname, coef * scoef)
        return out

    ordered = list(reversed(mats))
    chains = [((col, row), [el]) for (row, col), el in ordered[0].items()]
    for mat in ordered[1:]:
        chains = [
            ((col0, row), els + [el])
            for (col0, row0), els in chains
            for (row, col), el in mat.items()
            if col == row0
        ]
    out: dict = {}
    for (col0, row_last), els in chains:
        value = apply_mu(list(reversed(els)))
        if value:
            target = out.setdefault((row_last, col0), {})
            for name, coef in value.items():
                add_term(target, name, coef)
    return {key: el for key, el in out.items() if el}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_mu_matches_the_two_stage_expansion(data):
    wrapping = data.draw(st.sampled_from(WRAPPINGS))
    table = halftwist_tables(2, wrapping)
    ring = table.ring
    t0, t2 = ring.gen("t0"), ring.gen("t2")
    # zero coefficients and every name, so most neighbours do not compose
    coefs = st.sampled_from([ring.zero(), ring.one(), t0, t2, t0 + t2, t0 * t2])
    element = st.dictionaries(
        st.sampled_from(sorted(table.morphisms)), coefs, min_size=1, max_size=3
    )
    matrix = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), element, max_size=4
    )
    mats = data.draw(st.lists(matrix, min_size=1, max_size=3))
    assert matrix_mu(table, mats) == two_stage_matrix_mu(table, mats)


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


def test_mu_tw_takes_k_morphisms():
    table = halftwist_tables(2, "left")
    _, _, q1, q2 = halftwist_complexes(table)
    with pytest.raises(ValueError, match="needs"):
        mu_tw(2, [q1])
    with pytest.raises(ValueError, match="needs"):
        mu_tw(1, [q2, q1])
    with pytest.raises(ValueError, match="needs"):
        mu_tw(0, [])


def test_every_connection_insertion_contributes():
    table = halftwist_tables(2, "left")
    one = table.ring.one()
    t0 = table.ring.gen("t0")
    w_cx, two_term, _, _ = halftwist_complexes(table)
    # the connection path b0 then p composes to zero but feeds mu3
    path = TwComplex(
        table,
        [("L1", 0), ("L0", -1), ("W", -1)],
        {(1, 0): {"b0": one}, (2, 1): {"p": one}},
    )
    # mu1(f) and mu2(f, delta)
    f = TwMorphism(two_term, w_cx, -1, {(0, 2): {"alpha": one}})
    assert mu_tw(1, [f]).entries == {(0, 2): {"p": t0}, (0, 1): {"gn": one}}
    # mu2(delta, g), mu3(delta, delta, g), mu3(g, delta, delta) and
    # mu3(delta, g, delta), in that order of the entries
    g = TwMorphism(path, path, -1, {(0, 2): {"alpha_prime": one}})
    assert mu_tw(1, [g]).entries == {
        (1, 2): {"pbar": one},
        (2, 2): {"eW": one},
        (0, 0): {"e1": one},
        (1, 1): {"e0": one},
    }
    # mu3(h, g, f) with no connection: p after b0 after a0 is alpha
    objects = [TwComplex(table, [(obj, 0)], {}) for obj in ("L0", "L1", "L0", "W")]
    a0, b0, p = (
        TwMorphism(objects[i], objects[i + 1], deg, {(0, 0): {name: one}})
        for i, (name, deg) in enumerate((("a0", 0), ("b0", 0), ("p", 1)))
    )
    triple = mu_tw(3, [p, b0, a0])
    assert triple.degree == 0
    assert triple.entries == {(0, 0): {"alpha": one}}


def test_closedness_depends_on_the_connection_insertions():
    # f = (f_X, f_Y) from X (+) Y, connected by c: X -> Y, to Z, with
    # mu1(f_X) = h = mu2(f_Y, c): f is closed only because the insertion
    # of c cancels the entrywise mu1.
    ring = PolyRing(F2, ("t",))
    one = ring.one()
    morphisms = [
        BasisMorphism("c", "X", "Y", 1),
        BasisMorphism("fX", "X", "Z", 0),
        BasisMorphism("fY", "Y", "Z", 0),
        BasisMorphism("h", "X", "Z", 1),
    ]
    table = AInfTable(
        ring,
        ("X", "Y", "Z"),
        morphisms,
        {},
        mu1={"fX": [(one, "h")]},
        mu2={("fY", "c"): [(one, "h")]},
        total=False,
    )
    xy = TwComplex(table, [("X", 0), ("Y", 0)], {(1, 0): {"c": one}})
    z = TwComplex(table, [("Z", 0)], {})
    f = TwMorphism(xy, z, 0, {(0, 0): {"fX": one}, (0, 1): {"fY": one}})
    assert mu_tw(1, [f]).is_zero()
    assert matrix_mu(table, [f.entries]) == {(0, 0): {"h": one}}


def test_identity_needs_an_identity_in_the_table():
    table = AInfTable(
        CHECK_RING, ("X",), [BasisMorphism("h", "X", "X", 0)], {}, total=False
    )
    with pytest.raises(ValueError, match="object X has no identity"):
        TwComplex(table, [("X", 0)], {}).identity()


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
    for _ in range(20):
        f = _random_endomorphism(table, two_term, rng)
        g = _random_endomorphism(table, two_term, rng)
        h = _random_endomorphism(table, two_term, rng)
        acc = mu_tw(2, [mu_tw(2, [h, g]), f]) + mu_tw(2, [h, mu_tw(2, [g, f])])
        acc = acc + mu_tw(1, [mu_tw(3, [h, g, f])])
        acc = acc + mu_tw(3, [mu_tw(1, [h]), g, f])
        acc = acc + mu_tw(3, [h, mu_tw(1, [g]), f])
        acc = acc + mu_tw(3, [h, g, mu_tw(1, [f])])
        assert acc.is_zero(), acc.to_text()


def test_mu_tw_squares_to_zero_on_random_morphisms():
    table = halftwist_tables(2, "right")
    _, two_term, _, _ = halftwist_complexes(table)
    rng = random.Random(7)
    for _ in range(10):
        f = _random_endomorphism(table, two_term, rng)
        ddf = mu_tw(1, [mu_tw(1, [f])])
        assert ddf.is_zero(), ddf.to_text()
