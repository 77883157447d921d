"""Tests for the weight-graded ring construction and the comparison
with the path algebra."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tube_ncr import toric
from tube_ncr.cli import EXIT_FAILURE, EXIT_INTERNAL, EXIT_USAGE, main
from tube_ncr.exactalg import Field, InternalError, Poly, PolyRing
from tube_ncr.quivalg import Path, Presentation, tube_algebra
from tube_ncr.toric import (
    WeightMonomial,
    base_change_end,
    character,
    default_degree_bound,
    end_algebra,
    invariant_certificate,
    monomials_of_weight,
    one_monomial,
    section_basis,
    sigma_window,
    t_monomial,
    tau_window,
    u_power,
    v_power,
    wedge_components,
    wedge_nonvanishing,
    weight,
    word_image,
)

QQ = Field.rationals()


# -- weights -------------------------------------------------------------------


def unit_exponents(i: int, n: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n + 1))


def test_weight_of_generators():
    n = 3
    zero = (0,) * (n + 1)
    assert weight(WeightMonomial(unit_exponents(0, n), zero), n) == (1, 0, 0)
    assert weight(WeightMonomial(unit_exponents(3, n), zero), n) == (0, 0, -1)
    assert weight(WeightMonomial(zero, unit_exponents(0, n)), n) == (-1, 0, 0)
    assert weight(WeightMonomial(unit_exponents(1, n), zero), n) == (-1, 1, 0)
    assert weight(t_monomial((1, 1, 0, 0)), n) == (0, 0, 0)
    assert weight(u_power(n), n) == (0, 0, 0)
    assert weight(v_power(n, 3), n) == (0, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_window_monomials_have_unit_weight(n):
    for i in range(1, n + 1):
        assert weight(sigma_window(i, n), n) == character(i, n)
        assert weight(tau_window(i, n), n) == character(i, n)


@st.composite
def monomial_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    exps = st.lists(
        st.integers(min_value=0, max_value=5), min_size=n + 1, max_size=n + 1
    )
    m1 = WeightMonomial(tuple(draw(exps)), tuple(draw(exps)))
    m2 = WeightMonomial(tuple(draw(exps)), tuple(draw(exps)))
    return n, m1, m2


@given(monomial_pairs())
@settings(max_examples=80, deadline=None)
def test_weight_is_additive(data):
    n, m1, m2 = data
    w1, w2 = weight(m1, n), weight(m2, n)
    assert weight(m1 * m2, n) == tuple(a + b for a, b in zip(w1, w2))


def test_exponents_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        WeightMonomial((1, -1), (0, 0))


# -- invariants ----------------------------------------------------------------


def test_u_v_t_relation():
    n = 2
    assert u_power(n) * v_power(n) == t_monomial((1, 1, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_invariant_monomial_factors(n):
    zero = tuple([0] * n)
    for m in monomials_of_weight(n, zero, 2 * (n + 1) + 2):
        cert = invariant_certificate(m, n)
        assert cert["u_power"] == 0 or cert["v_power"] == 0
        rebuilt = (
            t_monomial(cert["t_exponents"])
            * u_power(n, cert["u_power"])
            * v_power(n, cert["v_power"])
        )
        assert rebuilt == m


def test_invariant_certificate_rejects_noninvariants():
    with pytest.raises(ValueError, match="not an invariant"):
        invariant_certificate(WeightMonomial(unit_exponents(0, 2), (0, 0, 0)), 2)


def test_monomials_of_weight_is_sound_and_complete_small():
    # brute-force cross-check in 4 variables (n = 1)
    n, bound = 1, 5
    target = character(1, n)
    expected = set()
    for c0 in range(bound + 1):
        for c1 in range(bound + 1):
            for d0 in range(bound + 1):
                for d1 in range(bound + 1):
                    if c0 + c1 + d0 + d1 > bound:
                        continue
                    m = WeightMonomial((c0, c1), (d0, d1))
                    if weight(m, n) == target:
                        expected.add(m)
    got = monomials_of_weight(n, target, bound)
    assert len(got) == len(set(got))
    assert set(got) == expected


def _brute_force_exponents(n, bound):
    """Every (c, d) of total degree <= bound, grouped by weight, each
    group sorted by (total degree, c, d)."""
    groups = {}
    for exps in itertools.product(range(bound + 1), repeat=2 * (n + 1)):
        if sum(exps) <= bound:
            c, d = exps[: n + 1], exps[n + 1 :]
            groups.setdefault(weight(WeightMonomial(c, d), n), []).append(
                (sum(exps), c, d)
            )
    return {w: [(c, d) for _, c, d in sorted(g)] for w, g in groups.items()}


def _hom_targets(n):
    return [
        tuple(b - a for a, b in zip(character(i, n), character(j, n)))
        for i in range(n + 1)
        for j in range(n + 1)
    ]


def test_weight_exponents_match_brute_force_in_order():
    # n = 2: six variables, every hom weight chi_j - chi_i, element by element
    n, top = 2, 6
    brute = _brute_force_exponents(n, top)
    for bound in range(top + 1):
        # One table serves every weight, as in end_algebra.
        texps = toric._t_exponents_by_room(n, bound)
        for target in _hom_targets(n):
            expected = [
                (c, d) for c, d in brute.get(target, []) if sum(c) + sum(d) <= bound
            ]
            assert toric._weight_exponents(n, target, bound, texps) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomials_of_weight_wraps_the_exponent_enumerator(n):
    for bound in (0, 1, 2, 5, default_degree_bound(n)):
        texps = toric._t_exponents_by_room(n, bound)
        for target in _hom_targets(n):
            pairs = toric._weight_exponents(n, target, bound, texps)
            monomials = monomials_of_weight(n, target, bound)
            assert [(m.c, m.d) for m in monomials] == pairs
            assert all(weight(m, n) == target for m in monomials)


# -- section bases -------------------------------------------------------------


def test_section_basis_smallest_case():
    sb = section_basis(1, 1, 6)
    assert sb.sigma.to_text() == "x0"
    assert sb.tau.to_text() == "y1"
    assert all(
        cert["generator"] in ("sigma", "tau") for cert in sb.certificates
    )
    assert len(sb.monomials) == len(sb.certificates)
    # the two exchange relations present the span over the invariants
    assert len(sb.relations) == 2


def test_section_basis_top_window_is_last_variable():
    sb = section_basis(3, 3, 8)
    assert sb.tau.to_text() == "y3"


@pytest.mark.parametrize("n,i", [(2, 1), (2, 2), (3, 2)])
def test_section_basis_certificates_cover_everything(n, i):
    sb = section_basis(i, n, 2 * (n + 1) + 2)
    assert len(sb.monomials) > 0
    for m, cert in zip(sb.monomials, sb.certificates):
        assert weight(m, n) == character(i, n)
        assert cert["monomial"] == m.to_text()


def test_section_basis_bound_must_see_generators():
    with pytest.raises(ValueError, match="bound"):
        section_basis(2, 4, 2)  # tau_2 = y2*y3*y4 has degree 3


# -- wedge ---------------------------------------------------------------------


def test_wedge_component_list_shape():
    comps = wedge_components(2)
    assert [c.to_text() for c in comps] == ["y2", "x0"]
    comps = wedge_components(3)
    assert [c.to_text() for c in comps] == ["y2*y3^2", "x0*y3", "x0^2*x1"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wedge_nonvanishing_holds(n):
    report = wedge_nonvanishing(n)
    assert report["holds"], report["counterexamples"]
    assert report["patterns_checked"] == 4 ** (n + 1)


def test_wedge_single_pattern_witness():
    # killing only x0 and y2 kills every component and is unstable
    n = 2
    comps = wedge_components(n)
    xzero, yzero = {0}, {2}
    for comp in comps:
        xs = {i for i in range(n + 1) if comp.c[i] > 0}
        ys = {i for i in range(n + 1) if comp.d[i] > 0}
        assert (xs & xzero) or (ys & yzero)
    assert any(j < k for j in xzero for k in yzero)


def test_wedge_rejects_tiny_n():
    with pytest.raises(ValueError, match="n >= 2"):
        wedge_nonvanishing(1)


# -- endomorphism comparison ----------------------------------------------------


def test_word_image_dictionary():
    assert word_image(("a0",), 2).to_text() == "x0"
    assert word_image(("b1", "a1", "a0"), 2).to_text() == "x0*x1*y1"
    assert word_image((), 2) == one_monomial(2)


@pytest.mark.parametrize("arrow", ["a3", "b5", "a-1", "c0"])
def test_word_image_rejects_arrows_outside_the_tube(arrow):
    with pytest.raises(ValueError, match="unexpected arrow"):
        word_image(("a0", arrow), 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_end_algebra_isomorphism(n):
    report = end_algebra(n)
    assert report.ok, report.mismatches[:5]
    assert report.products_checked > 0


def test_end_algebra_small_bound_ranks():
    report = end_algebra(1, 6)
    # loops at the first vertex: invariants of degree 0,2,4,6
    assert report.rank_table[(0, 0)] == {0: 1, 2: 4, 4: 9, 6: 16}
    # hom from vertex 0 to vertex 1 starts with the two windows
    assert report.rank_table[(0, 1)][1] == 2


def test_end_algebra_generator_images():
    report = end_algebra(2, 6)
    assert report.generator_images["a1"] == "x1"
    assert report.generator_images["b2"] == "y2"
    assert report.generator_images["t0"] == "x0*y0"


def test_end_algebra_json_shape():
    blob = end_algebra(1, 6).to_json()
    assert blob["ok"] is True
    assert blob["rank_table"]["0,0"]["0"] == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isomorphism_intertwines_cyclic_relabel(n):
    ring = PolyRing(QQ, tuple(f"t{k}" for k in range(n + 1)))
    tube = tube_algebra(n, ring)
    m = n + 1
    arrow_map = {}
    for i in range(m):
        arrow_map[f"a{i}"] = f"a{(i + 1) % m}"
        arrow_map[f"b{i}"] = f"b{(i + 1) % m}"
    for i in range(m):
        src = f"L{i}"
        for path in tube.irreducible_words(src, None, 2 * m):
            if path.is_lazy:
                continue
            shifted = tuple(arrow_map[a] for a in path.arrows)
            # x_i -> x_{i+1}, y_i -> y_{i+1} cyclically
            image = word_image(path.arrows, n)
            rotated = WeightMonomial(
                image.c[-1:] + image.c[:-1], image.d[-1:] + image.d[:-1]
            )
            assert word_image(shifted, n) == rotated


# -- base change ----------------------------------------------------------------


def test_base_change_collapsed_to_one_variable():
    S = PolyRing(QQ, ("t",))
    t = S.gen("t")
    report = base_change_end(2, (t, t, t), 8)
    assert report.ok
    # the specialised presentation has every backtrack worth t
    tube = tube_algebra(2, S, (t, t, t))
    nf = tube.multiply(tube.arrow_element("b1"), tube.arrow_element("a1"))
    [(path, coef)] = list(nf.terms.items())
    assert coef == t and path.is_lazy


def test_base_change_two_variable_split():
    S = PolyRing(QQ, ("x", "y"))
    x, y = S.gens()
    report = base_change_end(1, (x, y), 8)
    assert report.ok
    assert report.substitution == ["x", "y"]


def test_base_change_identity_is_noop():
    S = PolyRing(QQ, ("t0", "t1"))
    report = base_change_end(1, S.gens(), 6)
    assert report.ok


def test_base_change_with_a_zero_component():
    S = PolyRing(Field.prime(5), ("z",))
    z = S.gen("z")
    report = base_change_end(1, (z, S.zero()), 6)
    assert report.ok
    assert report.products_checked > 0


def test_base_change_needs_matching_length():
    S = PolyRing(QQ, ("t",))
    with pytest.raises(ValueError, match="substitution values"):
        base_change_end(2, (S.gen("t"),), 6)


# -- default bound --------------------------------------------------------------


def test_default_bound_contains_double_winds():
    for n in (1, 2, 3, 4):
        assert default_degree_bound(n) >= 2 * (n + 1) + 4
        assert u_power(n, 2).total_degree() <= default_degree_bound(n)


def test_broken_invariant_is_an_internal_error(monkeypatch, capsys):
    # With u^r miscomputed the invariant certificates no longer rebuild
    # their monomials: a bug, not bad input, so it raises InternalError
    # (CLI exit 70), under python -O too.
    monkeypatch.setattr(toric, "u_power", lambda n, r=1: one_monomial(n))
    with pytest.raises(InternalError, match="rebuilds"):
        section_basis(1, 2, 4)
    assert main(["toric", "sections", "--n", "2", "--index", "1"]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_a_section_that_fails_its_certificate_is_an_internal_error(monkeypatch, capsys):
    # Every enumerated weight-chi_i monomial is a window monomial times an
    # invariant; one that is not is an enumeration bug, not bad input.
    monkeypatch.setattr(toric, "monomials_of_weight",
                        lambda n, target, bound: [one_monomial(2)])
    assert main(["toric", "sections", "--n", "2", "--index", "1"]) == EXIT_INTERNAL
    assert "neither window monomial divides it" in capsys.readouterr().err
    sigma = toric.sigma_window(1, 2)
    monkeypatch.setattr(toric, "monomials_of_weight",
                        lambda n, target, bound: [sigma * sigma])
    with pytest.raises(InternalError, match="not an invariant monomial"):
        section_basis(1, 2, 4)


def test_broken_normal_form_is_an_internal_error(monkeypatch):
    # A product of two tube words normalises to one monomial term with
    # scalar 1; anything else is a rewriting bug, not malformed input.
    honest = Presentation.word_product

    def doubled(self, x, y):
        return [(p, e, 2 * s) for p, e, s in honest(self, x, y)]

    monkeypatch.setattr(Presentation, "word_product", doubled)
    with pytest.raises(InternalError, match="not one monic term"):
        end_algebra(1)


# -- bounds too small to compose ------------------------------------------------


@pytest.mark.parametrize("bound", [0, 1])
def test_a_bound_below_two_is_refused(bound):
    # No two arrows compose within the bound, so nothing would be checked
    # and "ok" would mean nothing.
    S = PolyRing(QQ, ("x", "y"))
    x, y = S.gens()
    with pytest.raises(ValueError, match="no composable pair"):
        end_algebra(1, bound)
    with pytest.raises(ValueError, match="no composable pair"):
        base_change_end(1, (x, y), bound)
    with pytest.raises(ValueError, match="no composable pair"):
        base_change_end(0, (x,), bound)


def test_bound_two_already_checks_products():
    S = PolyRing(QQ, ("t",))
    t = S.gen("t")
    assert end_algebra(1, 2).products_checked > 0
    assert base_change_end(0, (t,), 2).products_checked > 0


@pytest.mark.parametrize("n, bound", [(0, 4), (1, 5), (2, 6)])
def test_composable_pairs_are_the_words_within_the_bound(n, bound):
    # end_algebra and base_change_end take the product w2*w1 of each
    # pair, so each pair must compose within the bound.
    tube = tube_algebra(n, PolyRing(QQ, tuple(f"t{k}" for k in range(n + 1))))
    table = toric._tube_words(tube, n, bound)
    pairs = list(toric._composable_pairs(table, n, bound))
    for w1, w2 in pairs:
        word = w2.arrows + w1.arrows
        assert w1.arrows and w2.arrows and len(word) <= bound
        assert tube.make_path(word) == Path(word, None)
    words = [w for ws in table.values() for w in ws if w.arrows]
    every = {(w1, w2) for w1 in words for w2 in words
             if len(w1.arrows) + len(w2.arrows) <= bound
             and tube.path_source(w2) == tube.path_target(w1)}
    assert len(pairs) == len(every) > 0 and set(pairs) == every


@pytest.mark.parametrize("argv", [
    ["toric", "end", "--n", "1", "--bound", "0"],
    ["toric", "end", "--n", "1", "--bound", "1"],
    ["toric", "base-change", "--n", "1", "--f", "x", "y", "--bound", "0"],
    ["verify", "all", "--n", "2", "--bound", "0"],
    ["verify", "all", "--n", "2", "--bound", "1"],
])
def test_vacuous_toric_bound_exits_usage(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "no composable pair" in captured.err
    assert captured.out == ""


# -- a wrong dictionary is caught -----------------------------------------------


def _compact(mismatch):
    kind = mismatch.get("kind")
    if kind is None:
        return tuple(mismatch["pair"]), mismatch["predicted"], mismatch["actual"]
    if kind == "not_multiplicative":
        return kind, tuple(mismatch["pair"]), mismatch["lhs"], mismatch["rhs"]
    return kind, tuple(mismatch["hom"]), mismatch["monomial"]


def _swap_x0_x1(honest):
    def swapped(word, n):
        m = honest(word, n)
        return WeightMonomial((m.c[1], m.c[0]) + m.c[2:], m.d)

    return swapped


def test_swapped_variables_are_caught(monkeypatch):
    monkeypatch.setattr(toric, "word_image", _swap_x0_x1(toric.word_image))
    report = end_algebra(1, 2)
    assert not report.ok and not report.to_json()["ok"]
    assert [_compact(m) for m in report.mismatches] == [
        ("missing_path", (0, 1), "x0"),
        ("wrong_weight_or_degree", (0, 1), "x1"),
        ("missing_path", (1, 0), "x1"),
        ("wrong_weight_or_degree", (1, 0), "x0"),
        ("not_multiplicative", ("b0", "a0"), "x1*y0", "x0*y0"),
        ("not_multiplicative", ("a1", "b1"), "x0*y1", "x1*y1"),
        ("not_multiplicative", ("b1", "a1"), "x0*y1", "x1*y1"),
        ("not_multiplicative", ("a0", "b0"), "x1*y0", "x0*y0"),
    ]
    assert (report.basis_pairs_checked, report.products_checked) == (14, 8)


def test_a_dictionary_forgetting_every_arrow_is_caught(monkeypatch, capsys):
    monkeypatch.setattr(toric, "word_image", lambda word, n: one_monomial(n))
    report = end_algebra(1, 2)
    assert not report.ok
    assert [_compact(m) for m in report.mismatches] == [
        ("not_injective", (0, 0), "1"),
        ("not_injective", (0, 0), "1"),
        ("missing_path", (0, 0), "y0*y1"),
        ("missing_path", (0, 0), "x0*x1"),
        ("not_injective", (0, 1), "1"),
        ("missing_path", (0, 1), "x0"),
        ("missing_path", (0, 1), "y1"),
        ("wrong_weight_or_degree", (0, 1), "1"),
        ("not_injective", (1, 0), "1"),
        ("missing_path", (1, 0), "y0"),
        ("missing_path", (1, 0), "x1"),
        ("wrong_weight_or_degree", (1, 0), "1"),
        ("not_injective", (1, 1), "1"),
        ("not_injective", (1, 1), "1"),
        ("missing_path", (1, 1), "y0*y1"),
        ("missing_path", (1, 1), "x0*x1"),
        ("not_multiplicative", ("b0", "a0"), "1", "x0*y0"),
        ("not_multiplicative", ("a1", "b1"), "1", "x1*y1"),
        ("not_multiplicative", ("b1", "a1"), "1", "x1*y1"),
        ("not_multiplicative", ("a0", "b0"), "1", "x0*y0"),
    ]
    assert main(["toric", "end", "--n", "1", "--bound", "2"]) == EXIT_FAILURE
    assert '"ok": false' in capsys.readouterr().out


def test_base_change_on_other_scalars_is_caught(monkeypatch):
    # the specialised algebra is built on 2*f instead of f
    honest = toric.tube_algebra

    def doubled(n, ring, f=None):
        if f is None:
            return honest(n, ring)
        return honest(n, ring, tuple(ring.const(2) * fi for fi in f))

    monkeypatch.setattr(toric, "tube_algebra", doubled)
    S = PolyRing(QQ, ("t",))
    t = S.gen("t")
    report = base_change_end(1, (t, t), 2)
    assert not report.ok and not report.to_json()["ok"]
    assert [_compact(m) for m in report.mismatches] == [
        (("b0", "a0"), "t", "2*t*e[L0]"),
        (("a1", "b1"), "t", "2*t*e[L0]"),
        (("b1", "a1"), "t", "2*t*e[L1]"),
        (("a0", "b0"), "t", "2*t*e[L1]"),
    ]


def test_base_change_with_swapped_variables_is_caught(monkeypatch):
    monkeypatch.setattr(toric, "word_image", _swap_x0_x1(toric.word_image))
    S = PolyRing(QQ, ("t",))
    t = S.gen("t")
    report = base_change_end(1, (t, t), 2)
    assert not report.ok
    assert [_compact(m) for m in report.mismatches] == [
        (("b0", "a0"), "1", "t*e[L0]"),
        (("a1", "b1"), "1", "t*e[L0]"),
        (("b1", "a1"), "1", "t*e[L1]"),
        (("a0", "b0"), "1", "t*e[L1]"),
    ]


def test_base_change_with_the_right_scalar_on_the_wrong_word_is_caught(monkeypatch):
    # a0 -> x0^2: the predicted scalar still matches, but the product
    # b0*a0 should leave x0 where the specialised algebra leaves a lazy path
    honest = toric.word_image

    def heavy_a0(word, n):
        m = honest(word, n)
        return WeightMonomial((m.c[0] + list(word).count("a0"),) + m.c[1:], m.d)

    monkeypatch.setattr(toric, "word_image", heavy_a0)
    S = PolyRing(QQ, ("x", "y"))
    x, y = S.gens()
    report = base_change_end(1, (x, y), 2)
    assert not report.ok
    assert [_compact(m) for m in report.mismatches] == [
        (("b0", "a0"), "x", "x*e[L0]"),
        (("a0", "b0"), "x", "x*e[L1]"),
    ]


# -- work done per comparison ---------------------------------------------------


def _count_images_and_monomials(monkeypatch):
    images, built = Counter(), []
    honest_image = toric.word_image
    honest_init = WeightMonomial.__post_init__

    def counted_image(word, n):
        images[tuple(word)] += 1
        return honest_image(word, n)

    def counted_init(self):
        built.append(self)
        honest_init(self)

    monkeypatch.setattr(toric, "word_image", counted_image)
    monkeypatch.setattr(WeightMonomial, "__post_init__", counted_init)
    return images, built


def test_end_algebra_images_each_word_once(monkeypatch):
    images, built = _count_images_and_monomials(monkeypatch)
    report = end_algebra(3, 12)
    assert report.ok
    assert report.basis_pairs_checked == 4872
    assert images and max(images.values()) == 1
    # word_image builds one WeightMonomial per word; nothing else builds any
    assert len(built) == sum(images.values()) < report.basis_pairs_checked


def test_base_change_takes_each_f_power_product_once(monkeypatch):
    n, bound = 3, 12
    generic = tube_algebra(n, PolyRing(QQ, tuple(f"t{k}" for k in range(n + 1))))
    words = toric._tube_words(generic, n, bound)
    texps = set()
    for w1, w2 in toric._composable_pairs(words, n, bound):
        m = word_image(w2.arrows, n) * word_image(w1.arrows, n)
        texps.add(tuple(map(min, m.c, m.d)))
    images, built = _count_images_and_monomials(monkeypatch)
    powers = []
    honest_pow = Poly.__pow__

    def counted_pow(self, e):
        powers.append(e)
        return honest_pow(self, e)

    monkeypatch.setattr(Poly, "__pow__", counted_pow)
    S = PolyRing(QQ, ("t",))
    t = S.gen("t")
    report = base_change_end(n, [t] * (n + 1), bound)
    assert report.ok
    assert len(powers) == (n + 1) * len(texps)
    assert len(texps) < report.products_checked
    assert images and max(images.values()) == 1
    assert len(built) == sum(images.values()) < report.products_checked
