"""Tests for exact fields, polynomials, ring maps, and truncated solving."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tube_ncr.exactalg import (
    Field,
    Poly,
    PolyParseError,
    PolyRing,
    RingMap,
    echelon,
    kernel_basis,
    kernel_module_generators,
    matrix_rank,
    monomials_upto,
    row_reduce,
    solve_sparse,
    truncated_solve,
)

QQ = Field.rationals()


def ring_qq(*names):
    return PolyRing(QQ, names)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(2**31 + 11)


def test_prime_field_inverse():
    F5 = Field.prime(5)
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == 1


def test_rational_scalar_parse_roundtrip():
    assert QQ.parse_scalar("-2/5") == Fraction(-2, 5)
    assert QQ.format_scalar(Fraction(-2, 5)) == "-2/5"
    F7 = Field.prime(7)
    assert F7.parse_scalar("10") == 3


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------


def test_power_is_square_and_multiply():
    R = ring_qq("x")
    start = time.perf_counter()
    p = R.parse("x^1000000000")
    assert time.perf_counter() - start < 2.0
    assert p.terms == {(1000000000,): 1}
    p = RXY.parse("x + 2*y")
    assert p ** 5 == p * p * p * p * p
    assert p ** 0 == RXY.one()


def test_monomial_product():
    R = ring_qq("t0", "t1")
    t0, t1 = R.gens()
    assert (t0 * t1).to_text() == "t0*t1"


def test_additive_inverse_gives_empty_term_map():
    R = ring_qq("t0", "t1")
    p = R.parse("3*t0^2*t1 - 1")
    assert (p + (-p)).terms == {}


def test_characteristic_dispatch():
    # (y + x^n) + (y - x^n) is 2y in characteristic 0 and 0 in char 2.
    for n in (2, 3):
        R0 = PolyRing(QQ, ("x", "y"))
        plus = R0.parse(f"y + x^{n}")
        minus = R0.parse(f"y - x^{n}")
        assert (plus + minus) == R0.parse("2*y")
        R2 = PolyRing(Field.prime(2), ("x", "y"))
        plus2 = R2.parse(f"y + x^{n}")
        minus2 = R2.parse(f"y - x^{n}")
        assert (plus2 + minus2).is_zero()
        # The difference 2*x^n collapses exactly in characteristic 2.
        assert (plus - minus) == R0.parse(f"2*x^{n}")
        assert (plus2 - minus2).is_zero()


def test_ring_mismatch_rejected():
    R1 = ring_qq("x")
    R2 = ring_qq("y")
    with pytest.raises(ValueError):
        R1.parse("x") + R2.parse("y")


def test_parse_errors():
    R = ring_qq("x", "y")
    with pytest.raises(PolyParseError):
        R.parse("x + z")
    with pytest.raises(PolyParseError):
        R.parse("x^")
    with pytest.raises(PolyParseError):
        R.parse("")


def test_text_form_is_canonical_and_reparses():
    R = ring_qq("t0", "t1")
    p = R.parse("t1 - t0^2 + 3")
    assert p.to_text() == "- t0^2 + t1 + 3".replace("- ", "-", 1)
    assert R.parse(p.to_text()) == p


def test_json_roundtrip():
    R = ring_qq("t0", "t1")
    p = R.parse("3*t0^2*t1 - 1")
    assert Poly.from_json(R, p.to_json()) == p
    assert p.to_json() == {
        "terms": [{"exp": [2, 1], "coef": "3"}, {"exp": [0, 0], "coef": "-1"}]
    }


@st.composite
def small_polys(draw, ring):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, 3)) for _ in ring.names)
        coef = draw(st.integers(-5, 5))
        if coef:
            terms[exp] = Fraction(coef)
    return Poly(ring, {e: c for e, c in terms.items() if c})


RXY = ring_qq("x", "y")


@settings(max_examples=60, deadline=None)
@given(small_polys(RXY), small_polys(RXY), small_polys(RXY))
def test_poly_ring_axioms(p, q, r):
    assert (p + q) == (q + p)
    assert (p * q) == (q * p)
    assert (p * (q + r)) == (p * q + p * r)
    assert ((p * q) * r) == (p * (q * r))


# ---------------------------------------------------------------------------
# Ring maps
# ---------------------------------------------------------------------------


def test_substitute_conifold_defining_equation():
    R = ring_qq("t0", "t1")
    S = ring_qq("x", "y")
    m = RingMap(R, S, [S.gen("x"), S.gen("y")])
    assert m(R.parse("t0*t1")) == S.parse("x*y")


def test_substitute_identity():
    R = ring_qq("t0", "t1")
    p = R.parse("t0^2 - 3*t1")
    assert RingMap.identity(R)(p) == p


def test_substitute_collapses_to_single_variable():
    R = ring_qq("t0", "t1", "t2")
    S = ring_qq("t")
    m = RingMap(R, S, [S.gen("t")] * 3)
    assert m(R.parse("t0*t1*t2")) == S.parse("t^3")


@settings(max_examples=40, deadline=None)
@given(small_polys(RXY), small_polys(RXY))
def test_substitution_is_a_ring_homomorphism(p, q):
    S = ring_qq("u", "v")
    m = RingMap(RXY, S, [S.parse("u + v"), S.parse("u*v")])
    assert m(p * q) == m(p) * m(q)
    assert m(p + q) == m(p) + m(q)


# ---------------------------------------------------------------------------
# Truncated solving
# ---------------------------------------------------------------------------


def sympy_kernel_oracle(entries, var_names, bound):
    """Independent bounded-kernel computation via sympy.

    Solves A v = 0 with v polynomial of degree <= bound by brute-force
    linear algebra over the monomial coefficients, then returns the
    kernel dimension and a span membership test.
    """
    import sympy

    gens = sympy.symbols(var_names)
    if not isinstance(gens, tuple):
        gens = (gens,)
    mons = monomials_upto(len(gens), bound)

    def mon_expr(exp):
        e = sympy.Integer(1)
        for g, k in zip(gens, exp):
            e *= g**k
        return e

    ncols = len(entries)
    unknowns = []
    for j in range(ncols):
        unknowns.append(sympy.symbols(f"c{j}_0:{len(mons)}"))
    expr = sympy.Integer(0)
    for j, entry in enumerate(entries):
        vj = sum(c * mon_expr(m) for c, m in zip(unknowns[j], mons))
        expr += sympy.sympify(entry) * vj
    poly = sympy.Poly(sympy.expand(expr), *gens)
    flat = [u for row in unknowns for u in row]
    system = [sympy.Eq(c, 0) for c in poly.coeffs()]
    sols = sympy.linsolve(system, flat)
    # Kernel dimension = number of free parameters in the solution set.
    sol = list(sols)[0]
    free = {s for e in sol for s in e.free_symbols}
    return len(free)


def test_kernel_of_xy_row_matches_oracle_and_frozen_value():
    R = RXY
    x, y = R.gens()
    result = truncated_solve([[x, y]], "kernel", degree_bound=3)
    # Every reported vector is an exact solution.
    for v in result.vectors:
        assert (x * v[0] + y * v[1]).is_zero()
    # Independent oracle agreement on the bounded-kernel dimension:
    # solutions are (y*h, -x*h) with deg h <= 2, i.e. 6 dimensions.
    assert len(result.vectors) == sympy_kernel_oracle(["x", "y"], ("x", "y"), 3) == 6
    # Module generators collapse to the single syzygy (y, -x).
    gens = kernel_module_generators([[x, y]], 3)
    assert len(gens) == 1
    assert gens[0][0] == y and gens[0][1] == -x


def test_kernel_of_t1_t0_row():
    R = ring_qq("t0", "t1")
    t0, t1 = R.gens()
    result = truncated_solve([[t1, t0]], "kernel", degree_bound=4)
    for v in result.vectors:
        assert (t1 * v[0] + t0 * v[1]).is_zero()
    assert len(result.vectors) == sympy_kernel_oracle(
        ["t1", "t0"], ("t0", "t1"), 4
    ) == 10
    gens = kernel_module_generators([[t1, t0]], 4)
    assert len(gens) == 1
    assert gens[0][0] == t0 and gens[0][1] == -t1


def test_membership_with_witness():
    R = RXY
    x, _ = R.gens()
    res = truncated_solve([[x]], "membership", target=[x * x], degree_bound=2)
    assert res.status == "member"
    assert res.witness[0] == x


def test_membership_inconclusive_at_bound():
    R = RXY
    x, y = R.gens()
    res = truncated_solve([[x]], "membership", target=[y], degree_bound=4)
    assert res.status == "inconclusive_at_bound"


def test_kernel_grows_consistently_with_bound():
    # Rerunning at bound+2 yields a span containing the bound-level span.
    R = RXY
    x, y = R.gens()
    small = truncated_solve([[x, y]], "kernel", degree_bound=2)
    big = truncated_solve([[x, y]], "kernel", degree_bound=4)
    big_rows = []
    mons = monomials_upto(2, 5)
    mon_index = {m: i for i, m in enumerate(mons)}

    def flatten(vec):
        row = {}
        for j, p in enumerate(vec):
            for e, c in p.terms.items():
                row[j * len(mons) + mon_index[e]] = c
        return row

    big_rows = [flatten(v) for v in big.vectors]
    base_rank = matrix_rank(big_rows, QQ)
    for v in small.vectors:
        assert matrix_rank(big_rows + [flatten(v)], QQ) == base_rank


def test_bound_below_data_degree_rejected():
    R = RXY
    x, y = R.gens()
    with pytest.raises(ValueError):
        truncated_solve([[x * x * y]], "kernel", degree_bound=1)


def test_monomials_upto_deglex_order():
    mons = monomials_upto(2, 2)
    assert mons == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


# ---------------------------------------------------------------------------
# Sparse elimination
# ---------------------------------------------------------------------------


@st.composite
def sparse_matrices(draw, field):
    """Rows as dicts col -> nonzero field element, often rank deficient."""
    ncols = draw(st.integers(1, 7))
    if field.p is None:
        scalars = st.builds(
            Fraction, st.integers(-6, 6), st.integers(1, 5)
        ).filter(bool)
    else:
        scalars = st.integers(1, field.p - 1)
    base = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), scalars, max_size=ncols),
        max_size=5,
    ))
    # Insert combinations of the base rows so that dependencies occur.
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        if not base:
            break
        combo: dict = {}
        for row in base:
            c = draw(scalars)
            for col, v in row.items():
                combo[col] = field.add(combo.get(col, field.zero), field.mul(c, v))
        rows.insert(draw(st.integers(0, len(rows))),
                    {col: v for col, v in combo.items() if v})
    return rows, ncols


def check_echelon_against_rref(rows, ncols, field):
    reduced, rref_pivots = row_reduce(rows, field)
    ech_rows, ech_pivots = echelon(rows, field)
    assert len(ech_rows) == len(reduced) == matrix_rank(rows, field)
    assert ech_pivots == rref_pivots
    for col, ridx in ech_pivots.items():
        assert min(ech_rows[ridx]) == col
        if field.p is not None:
            assert ech_rows[ridx][col] == 1
    # The echelon rows span the row space of the input.
    assert len(row_reduce(rows + ech_rows, field)[0]) == len(reduced)
    kernel = kernel_basis(rows, ncols, field)
    assert len(kernel) == ncols - len(ech_rows)
    for vec in kernel:
        for row in rows:
            dot = field.zero
            for col, v in row.items():
                dot = field.add(dot, field.mul(v, vec.get(col, field.zero)))
            assert not dot


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(QQ))
def test_echelon_matches_rref_over_rationals(data):
    rows, ncols = data
    check_echelon_against_rref(rows, ncols, QQ)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(QQ))
def test_echelon_rank_matches_sympy_over_rationals(data):
    sympy = pytest.importorskip("sympy")
    rows, ncols = data
    dense = sympy.Matrix(
        [[sympy.Rational(row.get(c, 0)) for c in range(ncols)] for row in rows]
    ) if rows else sympy.zeros(0, ncols)
    assert len(echelon(rows, QQ)[0]) == dense.rank()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 7, 32003]).flatmap(
    lambda p: sparse_matrices(Field.prime(p)).map(lambda d: (p, d))
))
def test_echelon_matches_rref_over_prime_fields(case):
    p, (rows, ncols) = case
    check_echelon_against_rref(rows, ncols, Field.prime(p))


def test_kernel_basis_vectors_and_key_order_are_fixed():
    # Free coordinate first, then pivot coordinates in pivot order (1, 0).
    F = Field.prime(7)
    rows = [{1: 2, 2: 5, 3: 1}, {0: 1, 2: 3, 4: 1}, {0: 2, 2: 6, 4: 2}]
    assert [list(v.items()) for v in kernel_basis(rows, 5, F)] == [
        [(2, 1), (1, 1), (0, 4)],
        [(3, 1), (1, 3)],
        [(4, 1), (0, 6)],
    ]


def test_later_pivot_left_of_an_earlier_one_is_fully_reduced():
    # The second row leads left of the first pivot and also meets it.
    F = Field.prime(7)
    rows = [{1: 1, 2: 1}, {0: 1, 1: 1}]
    reduced, pivots = row_reduce(rows, F)
    assert reduced == [{1: 1, 2: 1}, {0: 1, 2: 6}]
    assert kernel_basis(rows, 3, F) == [{2: 1, 1: 6, 0: 1}]
    assert solve_sparse([{1: 1}, {0: 1, 1: 1}], [1, 0], F) == [6, 1]
