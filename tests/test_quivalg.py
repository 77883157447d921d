"""Rewriting, confluence, differentials, and the algebra constructors."""

import itertools
import re

from hypothesis import given, settings, strategies as st
import pytest

from tube_ncr.arcmodel import annulus, disc, generate_presentation
from tube_ncr.exactalg import Field, PolyRing, monomials_upto
from tube_ncr.quivalg import (
    AlgebraElement,
    Arrow,
    Path,
    Presentation,
    Quiver,
    contraction_quiver,
    drinfeld_localize,
    graded_basis,
    lazy,
    relabel_presentation,
    tube_algebra,
    tube_rank_closed_form,
    tube_vertex,
    winding_element,
)

QQ = Field.rationals()


def tube(n):
    ring = PolyRing(QQ, tuple(f"t{i}" for i in range(n + 1)))
    return tube_algebra(n, ring), ring


def word_element(pres, arrows):
    """The normal form of the composable word ``arrows``."""
    return pres.element([(pres.ring.one(), pres.make_path(arrows))])


def test_normal_form_backtrack_pair():
    pres, ring = tube(1)
    t0 = ring.gen("t0")
    nf = word_element(pres, ("a0", "b0"))
    assert nf == pres.element([(t0, lazy("L1"))])
    nf = word_element(pres, ("b0", "a0"))
    assert nf == pres.element([(t0, lazy("L0"))])


def test_normal_form_inner_reduction_both_orders():
    # a1 b1 a1 reduces to t1*a1 whichever overlapping pair fires first.
    pres, ring = tube(1)
    t1 = ring.gen("t1")
    word = ("a1", "b1", "a1")
    nf = word_element(pres, word)
    expected = pres.element([(t1, Path(("a1",), None))])
    assert nf == expected
    # Reduce by hand in the other order: a1*(b1 a1) = a1*t1*e_1.
    inner = word_element(pres, ("b1", "a1"))
    outer = pres.multiply(pres.arrow_element("a1"), inner)
    assert outer == expected


def test_full_cycle_reduces_to_scalar():
    pres, ring = tube(2)
    # Based at L2: forward cycle a2, a0, a1 then backward b1, b0, b2
    # (rightmost acts first).
    word = ("b2", "b0", "b1", "a1", "a0", "a2")
    nf = word_element(pres, word)
    scalar = ring.gen("t0") * ring.gen("t1") * ring.gen("t2")
    assert nf == pres.element([(scalar, lazy("L2"))])


def test_non_composable_word_rejected():
    pres, _ = tube(2)
    with pytest.raises(ValueError, match="non-composable"):
        pres.make_path(("a0", "a0"))


def test_mismatched_product_is_zero():
    pres, _ = tube(2)
    x = pres.arrow_element("a0")  # L0 -> L1
    y = pres.arrow_element("a1")  # L1 -> L2
    assert pres.multiply(y, x) == word_element(pres, ("a1", "a0"))
    assert pres.multiply(x, y).is_zero()


def test_confluence_detects_inconsistent_scalars():
    # Same pair rewriting to e with two different scalars from the two
    # sides of the overlap a b a: (ab)a -> 1*a but a(ba) -> 2*a.
    ring = PolyRing(QQ, ("t",))
    quiver = Quiver(
        ("P", "Q"),
        (Arrow("a", "P", "Q"), Arrow("b", "Q", "P")),
    )
    one, two = ring.one(), ring.const(2)
    rules = {
        ("a", "b"): [(one, lazy("Q"))],
        ("b", "a"): [(two, lazy("P"))],
    }
    with pytest.raises(ValueError, match="not confluent") as excinfo:
        Presentation(quiver, ring, rules)
    assert str(excinfo.value).endswith("unresolved overlaps: a*b*a, b*a*b")


def test_tube_rules_are_confluent():
    for n in range(4):
        pres, _ = tube(n)
        assert pres.confluence.confluent
        assert pres.confluence.critical_pairs_checked == 2 * (n + 1)


def test_center_relation():
    # u * v = v * u = t0...tn * 1 for every n up to 4.
    for n in range(5):
        pres, ring = tube(n)
        u = winding_element(pres, n, "a")
        v = winding_element(pres, n, "b")
        prod = ring.one()
        for g in ring.gens():
            prod = prod * g
        expected = pres.one().scale(prod)
        assert pres.multiply(u, v) == expected
        assert pres.multiply(v, u) == expected


def test_winding_elements_are_central():
    pres, _ = tube(2)
    u = winding_element(pres, 2, "a")
    v = winding_element(pres, 2, "b")
    for name in ("a0", "a1", "b2", "b0"):
        x = pres.arrow_element(name)
        for w in (u, v):
            assert pres.multiply(w, x) == pres.multiply(x, w)


small_scalars = st.integers(min_value=-3, max_value=3)


@st.composite
def tube_elements(draw, pres, ring):
    paths = [
        lazy("L0"),
        lazy("L1"),
        Path(("a0",), None),
        Path(("b0",), None),
        Path(("a1", "a0"), None),
        Path(("b0", "b1"), None),
    ]
    terms = {}
    for path in draw(st.lists(st.sampled_from(paths), max_size=3)):
        c = draw(small_scalars)
        t_exp = draw(st.integers(min_value=0, max_value=2))
        coef = ring.monomial((t_exp, 0), QQ.of(c))
        if not coef.is_zero():
            terms[path] = terms.get(path, ring.zero()) + coef
    el = AlgebraElement(pres, {p: c for p, c in terms.items() if not c.is_zero()})
    return pres.reduce(el)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_multiplication_associative(data):
    pres, ring = tube(1)
    x = data.draw(tube_elements(pres, ring))
    y = data.draw(tube_elements(pres, ring))
    z = data.draw(tube_elements(pres, ring))
    left = pres.multiply(pres.multiply(x, y), z)
    right = pres.multiply(x, pres.multiply(y, z))
    assert left == right


def random_walk_word(pres, rng, length):
    """A random composable word, grown leftward from a random vertex."""
    by_src = {}
    for a in pres.quiver.arrows:
        by_src.setdefault(a.src, []).append(a)
    tip = rng.choice(pres.quiver.vertices)
    arrows = []
    for _ in range(length):
        options = by_src.get(tip)
        if not options:
            break
        a = rng.choice(options)
        arrows.insert(0, a.name)
        tip = a.tgt
    return tuple(arrows)


def randomized_reduce(pres, word, rng):
    """Reduce by firing a randomly chosen matching rule each step."""
    terms = {Path(word, None): pres.ring.one()}
    while True:
        candidates = []
        for path in terms:
            arrows = path.arrows
            for i in range(len(arrows) - 1):
                if (arrows[i], arrows[i + 1]) in pres.rules:
                    candidates.append((path, i))
        if not candidates:
            break
        path, i = rng.choice(candidates)
        coef = terms.pop(path)
        arrows = path.arrows
        for rcoef, rpath in pres.rules[(arrows[i], arrows[i + 1])]:
            new_arrows = arrows[:i] + rpath.arrows + arrows[i + 2:]
            new_path = (
                Path(new_arrows, None) if new_arrows else Path((), rpath.vertex)
            )
            c = terms.get(new_path, pres.ring.zero()) + coef * rcoef
            if c.is_zero():
                terms.pop(new_path, None)
            else:
                terms[new_path] = c
    return AlgebraElement(pres, terms)


def test_randomized_rule_order_reaches_same_normal_form():
    import random

    rng = random.Random(20260818)
    ring_xy = PolyRing(QQ, ("x", "y"))
    presentations = [
        tube(2)[0],
        contraction_quiver(
            2, ring_xy, [ring_xy.parse(t) for t in ("x", "x^2+y^3", "y")]
        ),
    ]
    for pres in presentations:
        for _ in range(500):
            word = random_walk_word(pres, rng, rng.randrange(1, 9))
            if not word:
                continue
            a = randomized_reduce(pres, word, rng)
            b = word_element(pres, word)
            assert a == b, word


def test_graded_basis_matches_closed_form():
    for n in range(1, 6):
        pres, _ = tube(n)
        bound = 2 * (n + 1) + 1
        for i in range(n + 1):
            for j in range(n + 1):
                words = graded_basis(
                    pres, tube_vertex(i), tube_vertex(j), 0, bound
                )
                assert len(words) == tube_rank_closed_form(n, i, j, bound), (
                    n, i, j,
                )


def test_graded_basis_words_are_monotone():
    pres, _ = tube(2)
    for path in graded_basis(pres, "L0", "L0", 0, 9):
        letters = {name[0] for name in path.arrows}
        assert len(letters) <= 1  # pure a-run, pure b-run, or lazy


def mixed_sign_loops():
    # A word's degree can rise again here, so no enumeration may prune.
    ring = PolyRing(QQ, ())
    quiver = Quiver(("V",), (Arrow("u", "V", "V", -1), Arrow("p", "V", "V", 1)))
    return Presentation(quiver, ring, {})


@pytest.mark.parametrize("build", [
    lambda: tube(2)[0],
    lambda: contraction(2, ("x", "y"), ("x", "y", "x+y"))[0],
    lambda: drinfeld_localize(tube(1)[0], tube_vertex(0)),
    mixed_sign_loops,
], ids=["tube", "contraction", "localized", "mixed-sign-loops"])
def test_words_of_one_degree_are_the_filtered_full_list(build):
    pres = build()
    length = 6
    for s in pres.quiver.vertices:
        for t in pres.quiver.vertices:
            full = pres.irreducible_words(s, t, length)
            for d in range(-length - 1, length + 2):
                assert pres.irreducible_words(s, t, length, d) == [
                    w for w in full if pres.path_degree(w) == d], (s, t, d)
    if build is mixed_sign_loops:
        assert Path(("p", "u"), None) in pres.irreducible_words("V", "V", 2, 0)


def contraction(n, names, f_texts):
    ring = PolyRing(QQ, names)
    f = [ring.parse(t) for t in f_texts]
    return contraction_quiver(n, ring, f), ring


def test_contraction_differential_squares_to_zero():
    pres, ring = contraction(2, ("x", "y"), ("x", "x^2+y^3", "y"))
    for name in ("alpha", "beta", "a1", "b1"):
        d = pres.differential_of(pres.arrow_element(name))
        assert pres.differential_of(d).is_zero()


def test_contraction_leibniz_sign():
    # d(alpha*w) = d(alpha)*w - alpha*d(w) since |alpha| = -1; with
    # w = alpha the two terms cancel: d(alpha^2) = 0 matches the rule.
    pres, ring = contraction(1, ("x", "y"), ("x", "y"))
    alpha = pres.arrow_element("alpha")
    lhs = AlgebraElement(pres, {Path(("alpha", "alpha"), None): ring.one()})
    assert pres.differential_of(lhs).is_zero()


def test_contraction_conifold_commutator_differential():
    # For the two-vertex quiver with f = (x, t, y) the commutator
    # alpha*beta' routes do not exist; instead check d on a length-2
    # mixed word: d(alpha * alpha) = 0 and d(b1 a1 alpha) = f1 * d(alpha
    # at vertex 1) ... exercised via rule compatibility, so construction
    # succeeding is the assertion.
    pres, ring = contraction(2, ("x", "y"), ("x", "x*y", "y"))
    assert pres.confluence.confluent


def test_contraction_interior_loop_a_b_sits_at_the_higher_vertex():
    ring = PolyRing(QQ, ("x", "y"))
    f = [ring.parse(t) for t in ("x", "x^2+y^3", "y")]
    std = contraction_quiver(2, ring, f)
    assert std.quiver.by_name["a1"].src == "1"
    # a1*b1 is the loop at vertex 2, with scalar f1.
    assert word_element(std, ("a1", "b1")) == std.element([(f[1], lazy("2"))])


def test_differential_rule_compatibility_guard():
    # A differential that does not descend to the quotient is refused:
    # with s^2 -> 0 and d(s) = r, Leibniz gives d(s*s) = r*s - s*r,
    # which the rules cannot cancel, while d(0) = 0.
    ring = PolyRing(QQ, ("t",))
    quiver = Quiver(
        ("P",),
        (Arrow("s", "P", "P", -1), Arrow("r", "P", "P", 0)),
    )
    one = ring.one()
    rules = {("s", "s"): []}
    diff = {"s": [(one, Path(("r",), None))]}
    with pytest.raises(ValueError, match="incompatible"):
        Presentation(quiver, ring, rules, diff)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_constructors_refuse_a_scalar_outside_the_ring(n):
    # The presentation's entry checks name the rule or d(...) entry that
    # carries the foreign scalar.
    ring = PolyRing(QQ, ("x",))
    foreign = PolyRing(QQ, ("y",)).gen("y")
    for i in range(n + 1):
        f = [ring.gen("x")] * (n + 1)
        f[i] = foreign
        with pytest.raises(ValueError, match=re.escape(
                f"rule ('a{i}', 'b{i}'): coefficient outside the coefficient ring")):
            tube_algebra(n, ring, f)
        if n == 0:
            continue
        entry = ("d(alpha)" if i == 0 else "d(beta)" if i == n
                 else f"rule ('a{i}', 'b{i}')")
        with pytest.raises(ValueError, match=re.escape(
                f"{entry}: coefficient outside the coefficient ring")):
            contraction_quiver(n, ring, f)


# Rules and differential entries for the entry checks, on a quiver with
# a: P -> Q and b: Q -> P in degree 0 and loops c (degree -1) and s
# (degree -2) at P.
CHECK_RING = PolyRing(QQ, ("t",))
CHECK_QUIVER = Quiver(
    ("P", "Q"),
    (
        Arrow("a", "P", "Q"),
        Arrow("b", "Q", "P"),
        Arrow("c", "P", "P", -1),
        Arrow("s", "P", "P", -2),
    ),
)
ONE = CHECK_RING.one()
FOREIGN = PolyRing(QQ, ("u",)).one()


def test_entry_checks_accept_a_wellformed_presentation():
    pres = Presentation(
        CHECK_QUIVER,
        CHECK_RING,
        {("b", "a"): [(CHECK_RING.gen("t"), lazy("P"))], ("c", "c"): []},
        {"c": [(ONE, lazy("P"))]},
    )
    assert pres.differential_of(pres.arrow_element("c")) == pres.element(
        [(ONE, lazy("P"))]
    )


@pytest.mark.parametrize(
    "rules, differential, match",
    [
        ({("a",): []}, {}, "two-arrow"),
        ({("a", "zz"): []}, {}, "unknown arrow 'zz'"),
        ({("a", "a"): []}, {}, "non-composable"),
        ({("b", "a"): [(ONE, Path(("b", "a")))]}, {}, "strictly shorter"),
        ({("b", "a"): [(ONE, lazy("Z"))]}, {}, "vertex of the quiver"),
        ({("b", "a"): [(FOREIGN, lazy("P"))]}, {}, "coefficient ring"),
        ({("b", "a"): [(ONE, lazy("Q"))]}, {}, "changes endpoints"),
        ({("b", "a"): [(ONE, Path(("c",)))]}, {}, "not of degree 0"),
        ({}, {"zz": []}, "unknown arrow 'zz'"),
        ({}, {"c": [(ONE, Path(("zz",)))]}, "unknown arrow 'zz'"),
        ({}, {"c": [(ONE, Path(("b", "b", "a")))]}, "non-composable"),
        ({}, {"c": [(ONE, lazy("Z"))]}, "vertex of the quiver"),
        ({}, {"c": [(FOREIGN, lazy("P"))]}, "coefficient ring"),
        ({}, {"c": [(ONE, lazy("Q"))]}, "changes endpoints"),
        ({}, {"a": [(ONE, Path(("a",)))]}, "not of degree 1"),
        ({}, {"s": [(ONE, Path(("c",)))], "c": [(ONE, lazy("P"))]}, r"d\^2"),
    ],
)
def test_entry_checks_reject_malformed_rules_and_differentials(
    rules, differential, match
):
    with pytest.raises(ValueError, match=match):
        Presentation(CHECK_QUIVER, CHECK_RING, rules, differential)


def test_an_unknown_arrow_name_is_a_value_error():
    tube = tube_algebra(1, PolyRing(QQ, ("t0", "t1")))
    with pytest.raises(ValueError, match="unknown arrow 'zz'"):
        tube.arrow("zz")
    with pytest.raises(ValueError, match="unknown arrow 'zz'"):
        tube.multiply(tube.arrow_element("zz"), tube.one())


def test_a_word_that_does_not_compose_is_refused_by_name():
    # Each word is checked once, before the junction routine multiplies it.
    pres, ring = tube(2)
    one = ring.one()
    cases = [
        (lambda: pres.element([(one, Path(("a1", "a1")))]), "a1*a1", "non-composable"),
        (lambda: pres.reduce(AlgebraElement(pres, {Path(("a0", "b1")): one})),
         "a0*b1", "non-composable"),
        (lambda: pres.element([(one, Path(("zz",)))]), "zz", "unknown arrow 'zz'"),
        (lambda: pres.element([(one, Path(("zz", "a0")))]), "zz*a0", "unknown arrow 'zz'"),
    ]
    for build, word, why in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(word)} is not a path of the "
                                             f"quiver: .*{why}"):
            build()
    assert pres.element([(one, Path(("a0", "b0")))]) == pres.element(
        [(ring.gen("t0"), lazy("L1"))])


def test_localize_adds_free_loop():
    pres, ring = tube(1)
    loc = drinfeld_localize(pres, "L0")
    eps = loc.quiver.by_name["eps"]
    assert (eps.src, eps.tgt, eps.deg) == ("L0", "L0", -1)
    # eps^2 stays an irreducible word.
    sq = word_element(loc, ("eps", "eps"))
    assert sq == AlgebraElement(loc, {Path(("eps", "eps"), None): ring.one()})
    # d(eps) = e_{L0}, so d(eps*eps) = eps - eps = 0 by the sign rule.
    assert loc.differential_of(sq).is_zero()
    d_eps = loc.differential_of(loc.arrow_element("eps"))
    assert d_eps == loc.element([(ring.one(), lazy("L0"))])
    with pytest.raises(ValueError, match="unknown vertex"):
        drinfeld_localize(pres, "L7")


def test_localized_word_differential_telescopes():
    # d(a0 eps b0) = a0 b0 = t0 e_{L1} once eps is erased.
    pres, ring = tube(1)
    loc = drinfeld_localize(pres, "L0")
    word = AlgebraElement(loc, {Path(("a0", "eps", "b0"), None): ring.one()})
    assert loc.differential_of(word) == loc.element(
        [(ring.gen("t0"), lazy("L1"))]
    )


def grading_rank(pres):
    return len(pres._grading[1])


def test_grading_rank_is_inferred():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    for f, contraction, localized in (((x, y), 2, 4), ((x ** 2 + y ** 3, y), 1, 3)):
        assert grading_rank(contraction_quiver(1, ring, f)) == contraction
        loc = drinfeld_localize(tube_algebra(1, ring, f), tube_vertex(0))
        assert grading_rank(loc) == localized


def test_grading_is_homogeneous_for_rules_and_differential():
    # Every rule and differential term has the grade of its left side,
    # including the non-monomial scalar x^2 + y^3.
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    pres = drinfeld_localize(
        tube_algebra(1, ring, (x ** 2 + y ** 3, y)), tube_vertex(0)
    )
    zero = (0, 0)
    sides = list(pres.rules.items())
    sides += [((name,), image) for name, image in pres.differential.items()]
    for lhs, rhs in sides:
        for coef, path in rhs:
            for exp in coef.terms:
                assert pres.grade(path, exp) == pres.grade(Path(lhs), zero)
    assert pres.grade(Path(("eps",)), zero) == pres.grade(lazy("L0"), zero)


def test_no_free_direction_gives_one_block():
    ring = PolyRing(QQ, ())
    pres = contraction_quiver(1, ring, (ring.one(), ring.one()))
    assert pres.grade(Path(("alpha", "beta")), ()) == 0


def window_terms(pres, length, degree):
    terms = []
    for v in pres.quiver.vertices:
        for w in pres.irreducible_words(v, None, length):
            terms += [(w, e) for e in monomials_upto(pres.ring.nvars, degree)]
    return terms


def blocks(pres, terms):
    """The partition of ``terms`` into grades, as sorted index lists."""
    by_grade = {}
    for i, (path, exp) in enumerate(terms):
        by_grade.setdefault(pres.grade(path, exp), []).append(i)
    return sorted(by_grade.values())


def test_relabelled_and_generated_presentations_keep_their_blocks():
    pres, _ = tube(2)
    terms = window_terms(pres, 4, 2)
    assert len(blocks(pres, terms)) > 1
    vmap = {"L0": "P", "L1": "Q", "L2": "R"}
    moved = relabel_presentation(pres, vmap)
    moved_terms = [(Path(w.arrows, vmap.get(w.vertex)), e) for w, e in terms]
    assert blocks(moved, moved_terms) == blocks(pres, terms)
    assert blocks(generate_presentation(annulus(2)).presentation, terms) == (
        blocks(pres, terms)
    )

    ring = PolyRing(QQ, ("t0", "t1", "t2"))
    expected = contraction_quiver(2, ring, list(ring.gens()))
    terms = window_terms(expected, 4, 2)
    generated = generate_presentation(disc(2)).presentation
    generated_terms = [
        (Path(w.arrows, w.vertex and f"L{w.vertex}"), e) for w, e in terms
    ]
    assert blocks(generated, generated_terms) == blocks(expected, terms)


def test_tube_grading_declared_and_validated():
    # The tube weights once declared by hand (a_i and b_i weigh e_i, t_i
    # weighs 2 e_i) are homogeneous for the rules, so they must be a
    # function of the inferred grade: no inferred block mixes two of them.
    pres, _ = tube(2)

    def declared(path, exp):
        weight = [2 * e for e in exp]
        for arrow in path.arrows:
            weight[int(arrow[1:])] += 1
        return tuple(weight)

    assert declared(Path(("a0",), None), (1, 0, 0)) == (3, 0, 0)
    seen = {}
    for path, exp in window_terms(pres, 4, 2):
        weight = declared(path, exp)
        assert seen.setdefault(pres.grade(path, exp), weight) == weight
    assert len(set(seen.values())) > 1


def test_non_monomial_scalars_drop_grading():
    # x^2 + y^3 puts x^2 and y^3 in one grade, so that scalar loses a
    # grading direction that the monomial x*y keeps.
    ring = PolyRing(QQ, ("x", "y"))
    pres = contraction_quiver(2, ring, [ring.parse(t) for t in ("x", "x^2+y^3", "y")])
    monomial = contraction_quiver(2, ring, [ring.parse(t) for t in ("x", "x*y", "y")])
    assert (grading_rank(pres), grading_rank(monomial)) == (2, 3)
    e = lazy(pres.quiver.vertices[0])
    assert pres.grade(e, (2, 0)) == pres.grade(e, (0, 3))
    assert monomial.grade(e, (2, 0)) != monomial.grade(e, (0, 3))


def test_base_change_collapse():
    # All scalars equal to one variable t: the full cycle is t^(n+1).
    ring = PolyRing(QQ, ("t",))
    t = ring.gen("t")
    pres = tube_algebra(2, ring, [t, t, t])
    u = winding_element(pres, 2, "a")
    v = winding_element(pres, 2, "b")
    assert pres.multiply(u, v) == pres.one().scale(t ** 3)


def test_presentation_json_roundtrippable_shape():
    pres, _ = tube(1)
    blob = pres.to_json()
    assert blob["vertices"] == ["L0", "L1"]
    assert {a["name"] for a in blob["arrows"]} == {"a0", "a1", "b0", "b1"}
    rule = next(r for r in blob["rules"] if r["lhs"] == ["a0", "b0"])
    assert rule["rhs"][0]["vertex"] == "L1"
    assert rule["rhs"][0]["coef"] == {
        "terms": [{"exp": [1, 0], "coef": "1"}]
    }
