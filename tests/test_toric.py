"""Tests for the weight-graded ring construction and the comparison
with the path algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tube_ncr import toric
from tube_ncr.cli import EXIT_INTERNAL, main
from tube_ncr.exactalg import Field, InternalError, PolyRing
from tube_ncr.quivalg import Presentation, tube_algebra
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
    x_var,
    y_var,
)

QQ = Field.rationals()


# -- weights -------------------------------------------------------------------


def test_weight_of_generators():
    n = 3
    assert weight(x_var(0, n), n) == (1, 0, 0)
    assert weight(x_var(3, n), n) == (0, 0, -1)
    assert weight(y_var(0, n), n) == (-1, 0, 0)
    assert weight(x_var(1, n), n) == (-1, 1, 0)
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
        invariant_certificate(x_var(0, 2), 2)


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
    nf = tube.normal_form(("b1", "a1"))
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


def test_broken_normal_form_is_an_internal_error(monkeypatch):
    # A product of two tube words normalises to one monomial term with
    # scalar 1; anything else is a rewriting bug, not malformed input.
    honest = Presentation.normal_form

    def doubled(self, word, coef=None):
        element = honest(self, word, coef)
        return element + element

    monkeypatch.setattr(Presentation, "normal_form", doubled)
    with pytest.raises(InternalError, match="not one monic term"):
        end_algebra(1)
