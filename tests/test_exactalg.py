"""Tests for exact fields, polynomials, elimination, and truncated solving."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tube_ncr import exactalg
from tube_ncr.exactalg import (
    CellIndex,
    Echelon,
    Field,
    InternalError,
    Poly,
    PolyParseError,
    PolyRing,
    bounded_members,
    data_degree,
    deglex_key,
    kernel_basis,
    linear_rows,
    membership_bound,
    monomials_upto,
    row_reduce,
    solve_sparse,
    truncated_solve,
)

QQ = Field.rationals()


def ring_qq(*names):
    return PolyRing(QQ, names)


def echelon_of(rows, field):
    """An ``Echelon`` with every row of ``rows`` inserted, in order."""
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    return ech


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


def test_rational_scalar_format():
    assert QQ.format_scalar(Fraction(-2, 5)) == "-2/5"


def in_rational_normal_form(v) -> bool:
    """An int when integral, otherwise a Fraction with denominator > 1."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


@pytest.mark.parametrize("field", [QQ, Field.prime(7)], ids=repr)
def test_field_scalars_are_ints_or_fractions(field):
    for bad in (2.5, 0.5, 1.0, "3"):
        with pytest.raises(ValueError, match=type(bad).__name__):
            field.of(bad)
        with pytest.raises(ValueError, match=type(bad).__name__):
            PolyRing(field, ("x",)).const(bad)
    assert field.of(Fraction(4, 2)) == 2 and type(field.of(Fraction(4, 2))) is int


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


def test_scale_coerces_the_scalar_into_the_field():
    F5 = Field.prime(5)
    ring = PolyRing(F5, ("x",))
    x = ring.gen("x")
    assert (ring.const(5) * x).is_zero()
    assert (ring.const(7) * x).terms == {(1,): 2}
    assert (ring.const(-1) * x).terms == {(1,): 4}
    half = ring.const(Fraction(1, 2)) * x
    assert half.terms == {(1,): 3} and type(half.terms[(1,)]) is int
    assert ring.const(2) * half == x


def test_ring_mismatch_rejected():
    R1 = ring_qq("x")
    R2 = ring_qq("y")
    with pytest.raises(ValueError):
        R1.parse("x") + R2.parse("y")


def test_equal_rings_act_as_one_and_unequal_rings_raise():
    R1, R2 = ring_qq("x", "y"), ring_qq("x", "y")
    assert R1 is not R2 and R1 == R2
    p, q, q1 = R1.parse("x + 2*y"), R2.parse("x - y^2"), R1.parse("x - y^2")
    assert (p + q).terms == (p + q1).terms
    assert (p * q).terms == (p * q1).terms
    assert p == R2.parse("x + 2*y") and q == q1
    for other in (ring_qq("y", "x"), PolyRing(Field.prime(7), ("x", "y"))):
        r = other.parse("x")
        assert p != other.parse("x + 2*y")
        with pytest.raises(ValueError, match="ring mismatch"):
            p + r
        with pytest.raises(ValueError, match="ring mismatch"):
            p * r


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


def test_poly_to_json():
    R = ring_qq("t0", "t1")
    p = R.parse("3*t0^2*t1 - 1")
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


# Small values, so that sums, products and inverses are often integral.
RATIONALS = st.one_of(st.integers(-12, 12),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


def fraction_product(s: dict, t: dict) -> dict:
    out: dict = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None, None, 2, 7, 32003]), st.data())
def test_field_and_poly_results_are_in_normal_form(p, data):
    """Each result equals a plain-Fraction reference; over the rationals it
    is an int exactly when integral, over F_p an int in range(p)."""
    field = Field(p)
    scalars = RATIONALS if p is None else RATIONALS.filter(
        lambda x: Fraction(x).denominator % p)

    def normal(v) -> bool:
        return in_rational_normal_form(v) if p is None else type(v) is int and 0 <= v < p

    def check(got, want):
        # Fraction -> field is a ring map on these denominators, so the
        # field result is the image of the Fraction result.
        assert got == field.of(want) and normal(got)

    check(field.zero, Fraction(0))
    check(field.one, Fraction(1))
    xs = data.draw(st.lists(scalars, min_size=1, max_size=6))
    for x in xs:
        a, fa = field.of(x), Fraction(x)
        check(a, fa)
        check(field.neg(a), -fa)
        if a:
            check(field.inv(a), 1 / fa)
        for y in xs:
            b, fb = field.of(y), Fraction(y)
            check(field.add(a, b), fa + fb)
            check(field.mul(a, b), fa * fb)

    ring = PolyRing(field, ("x", "y"))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    # Reference term maps, without the terms that vanish in the field.
    rf, rg = ({e: Fraction(c) for e, c in data.draw(
        st.dictionaries(exps, scalars, max_size=4)).items() if field.of(c)}
        for _ in range(2))
    f, g = (Poly(ring, {e: field.of(c) for e, c in ref.items()}) for ref in (rf, rg))
    k = data.draw(st.integers(0, 3))
    power = {(0, 0): Fraction(1)}
    for _ in range(k):
        power = fraction_product(power, rf)
    for poly, ref in [(f + g, {e: rf.get(e, 0) + rg.get(e, 0) for e in rf.keys() | rg}),
                      (f - g, {e: rf.get(e, 0) - rg.get(e, 0) for e in rf.keys() | rg}),
                      (-f, {e: -c for e, c in rf.items()}),
                      (f * g, fraction_product(rf, rg)),
                      (ring.const(xs[0]) * f, {e: c * Fraction(xs[0]) for e, c in rf.items()}),
                      (f ** k, power)]:
        assert poly.terms == {e: field.of(c) for e, c in ref.items() if field.of(c)}
        assert all(normal(c) for c in poly.terms.values())


# ---------------------------------------------------------------------------
# Truncated solving and bounded kernels
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


def bounded_kernel(entries, bound):
    """Kernel of v -> sum_j entries[j] * v_j with deg v_j <= bound.

    The equations come from ``linear_rows`` and the basis from
    ``kernel_basis``, the kernel path of ``cohom._window_blocks``; each
    vector comes back as one ``Poly`` per entry.
    """
    ring = entries[0].ring
    cells = CellIndex(monomials_upto(ring.nvars, bound))
    cols = [cells.number(j) * cells.n + k for j in range(len(entries))
            for k in range(cells.n)]
    cells.read_images(lambda j: [(0, exp, coef) for exp, coef in entries[j].terms.items()])
    rows = linear_rows(cols, cells)
    decoded = cells.decode(cols)
    vectors = []
    for vec in kernel_basis(list(rows.values()), len(cols), ring.field):
        parts = [ring.zero()] * len(entries)
        for k, coef in vec.items():
            j, m = decoded[k]
            parts[j] = parts[j] + Poly(ring, {m: coef})
        vectors.append(parts)
    return vectors


def test_kernel_of_xy_row_matches_oracle_and_frozen_value():
    R = RXY
    x, y = R.gens()
    vectors = bounded_kernel([x, y], 3)
    # Every reported vector is an exact solution.
    for v in vectors:
        assert (x * v[0] + y * v[1]).is_zero()
    # Independent oracle agreement on the bounded-kernel dimension:
    # solutions are (y*h, -x*h) with deg h <= 2, i.e. 6 dimensions.
    assert len(vectors) == sympy_kernel_oracle(["x", "y"], ("x", "y"), 3) == 6


def test_kernel_of_t1_t0_row():
    R = ring_qq("t0", "t1")
    t0, t1 = R.gens()
    vectors = bounded_kernel([t1, t0], 4)
    for v in vectors:
        assert (t1 * v[0] + t0 * v[1]).is_zero()
    assert len(vectors) == sympy_kernel_oracle(
        ["t1", "t0"], ("t0", "t1"), 4
    ) == 10


def test_membership_with_witness():
    R = RXY
    x, _ = R.gens()
    res = truncated_solve(R, [{0: x}], {0: x * x}, 2)
    assert res.status == "member"
    assert res.witness[0] == x


def test_membership_inconclusive_at_bound():
    R = RXY
    x, y = R.gens()
    res = truncated_solve(R, [{0: x}], {0: y}, 4)
    assert res.status == "inconclusive_at_bound"


def test_kernel_grows_consistently_with_bound():
    # Rerunning at bound+2 yields a span containing the bound-level span.
    R = RXY
    x, y = R.gens()
    small = bounded_kernel([x, y], 2)
    big = bounded_kernel([x, y], 4)
    mons = monomials_upto(2, 5)
    mon_index = {m: i for i, m in enumerate(mons)}

    def flatten(vec):
        row = {}
        for j, p in enumerate(vec):
            for e, c in p.terms.items():
                row[j * len(mons) + mon_index[e]] = c
        return row

    big_rows = [flatten(v) for v in big]
    base_rank = len(echelon_of(big_rows, QQ).rows)
    for v in small:
        assert len(echelon_of(big_rows + [flatten(v)], QQ).rows) == base_rank


def test_bound_is_raised_to_the_data_degree():
    R = RXY
    x, y = R.gens()
    res = truncated_solve(R, [{0: x * x * y}], {0: x * x * y}, 1)
    assert res.bound == 3
    assert res.status == "member"
    assert res.witness == [R.one()]


def sympy_bounded_membership(columns, target, bound):
    """Is ``target`` a sum of the columns with coefficients of degree at
    most ``bound``?  The same bounded system, solved by sympy."""
    import sympy

    x, y = sympy.symbols("x y")

    def expr(poly):
        return sum((sympy.Rational(c.numerator, c.denominator) * x**e[0] * y**e[1]
                    for e, c in poly.terms.items()), sympy.Integer(0))

    mons = monomials_upto(2, bound)
    unknowns = sympy.symbols(f"c0:{len(columns) * len(mons)}")
    coefs = [sum(u * x**m[0] * y**m[1]
                 for u, m in zip(unknowns[j * len(mons):], mons))
             for j in range(len(columns))]
    equations = []
    for coord in set(target).union(*columns):
        residual = -expr(target[coord]) if coord in target else sympy.Integer(0)
        for coef, column in zip(coefs, columns):
            if coord in column:
                residual += coef * expr(column[coord])
        equations.extend(sympy.Poly(sympy.expand(residual), x, y).coeffs())
    # linsolve reads an empty system as inconsistent, so pad it with 0 = 0.
    return sympy.linsolve(equations + [sympy.Integer(0)], unknowns) != sympy.EmptySet


def sparse_vectors(min_size):
    """Sparse vectors over Q[x, y]: up to two coordinates, each entry up
    to three terms of degree at most 2."""
    polys = st.dictionaries(st.sampled_from(monomials_upto(2, 2)),
                            st.integers(-2, 2).filter(bool),
                            min_size=min_size, max_size=3)
    return st.dictionaries(st.integers(0, 1), polys.map(lambda terms: Poly(
        RXY, {e: Fraction(c) for e, c in terms.items()})),
        min_size=min_size, max_size=2)


@st.composite
def span_targets(draw, columns):
    """A target, half of the time drawn from the span of ``columns`` with
    coefficients of degree at most 1."""
    if not draw(st.booleans()):
        return draw(sparse_vectors(1))
    target = {}
    for column in columns:
        coef = Poly(RXY, {e: Fraction(c) for e, c in draw(st.dictionaries(
            st.sampled_from(monomials_upto(2, 1)), st.integers(-2, 2),
            max_size=2)).items() if c})
        for coord, entry in column.items():
            target[coord] = target.get(coord, RXY.zero()) + coef * entry
    return target


@st.composite
def membership_problems(draw):
    """Sparse columns over Q[x, y], a target and a degree bound."""
    columns = draw(st.lists(sparse_vectors(0), min_size=1, max_size=3))
    return columns, draw(span_targets(columns)), draw(st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(membership_problems())
def test_truncated_solve_agrees_with_sympy(problem):
    columns, target, degree_bound = problem
    res = truncated_solve(RXY, columns, target, degree_bound)
    assert (res.status == "member") == sympy_bounded_membership(
        columns, target, res.bound)
    if res.status == "member":
        rebuilt = {}
        for coef, column in zip(res.witness, columns):
            for coord, entry in column.items():
                rebuilt[coord] = rebuilt.get(coord, RXY.zero()) + coef * entry
        assert ({c: p for c, p in rebuilt.items() if not p.is_zero()}
                == {c: p for c, p in target.items() if not p.is_zero()})
        assert all(p.total_degree() <= res.bound for p in res.witness)


def tuple_rows(columns, image_of):
    """The field equations of (generator, exponent) columns, keyed by
    (coordinate, exponent): the oracle's own row builder, kept apart from
    ``linear_rows`` and its integer cells."""
    rows = {}
    for j, (g, m) in enumerate(columns):
        for coord, exp, coef in image_of(g):
            rows.setdefault((coord, tuple(a + b for a, b in zip(exp, m))), {})[j] = coef
    return rows


def independent_solve(ring, columns, target, bound, solve=solve_sparse):
    """Bounded membership as one solve of its own equations: the system
    of ``bounded_members`` with the target as right-hand side, solved by
    ``solve`` (``solve_sparse`` or a function with its contract)."""
    mons = monomials_upto(ring.nvars, bound)
    eqs = tuple_rows(
        [(j, m) for j in range(len(columns)) for m in mons],
        lambda j: [(c, exp, coef) for c, p in columns[j].items()
                   for exp, coef in p.terms.items()],
    )
    rhs_of = {(c, exp): coef for c, p in target.items()
              for exp, coef in p.terms.items()}
    for key in rhs_of:
        eqs.setdefault(key, {})  # a term no column reaches: 0 = coef
    field = ring.field
    solution = solve(
        list(eqs.values()), [rhs_of.get(key, field.zero) for key in eqs], field)
    if solution is None:
        return "inconclusive_at_bound", None
    solution += [field.zero] * (len(columns) * len(mons) - len(solution))
    return "member", [
        Poly(ring, {m: solution[j * len(mons) + k] for k, m in enumerate(mons)
                    if solution[j * len(mons) + k]})
        for j in range(len(columns))
    ]


def over_field(field, vector):
    """A sparse vector over Q[x, y] with its coefficients mapped into ``field``."""
    ring = PolyRing(field, RXY.names)
    return {coord: Poly(ring, {e: field.of(c) for e, c in p.terms.items()
                               if field.of(c)})
            for coord, p in vector.items()}


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([None, 2, 3, 5, 32003]))
def test_many_targets_on_one_span_agree_with_independent_solves(data, p):
    # One reduction answers each target exactly as a fresh elimination
    # with that target as right-hand side would.
    field = QQ if p is None else Field.prime(p)
    ring = PolyRing(field, RXY.names)
    columns, target, degree_bound = data.draw(membership_problems())
    targets = [target] + data.draw(st.lists(span_targets(columns), max_size=4))
    columns = [over_field(field, column) for column in columns]
    targets = [over_field(field, t) for t in targets]
    bound = max(membership_bound(degree_bound, data_degree(columns), t)
                for t in targets)
    for t, res in zip(targets, bounded_members(ring, columns, targets, bound)):
        assert res.bound == bound
        assert (res.status, res.witness) == independent_solve(ring, columns, t, bound)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([None, 2, 3, 5, 32003]))
def test_each_target_gets_one_answer_alone_or_in_any_batch(data, p):
    # A batch mixes drawn targets, a column itself (a member), the zero
    # target, a target on coordinate 2, which no column reaches, and the
    # first target plus a column, which lies in the span of the columns
    # and the first target.  Each is compared with the oracle's reduced
    # form of its own system, so the check does not share the reader of
    # ``bounded_members``.
    field = QQ if p is None else Field.prime(p)
    ring = PolyRing(field, RXY.names)
    columns, target, degree_bound = data.draw(membership_problems())
    shifted = dict(target)
    for coord, entry in columns[0].items():
        shifted[coord] = shifted.get(coord, RXY.zero()) + entry
    targets = [target] + data.draw(st.lists(span_targets(columns), max_size=3))
    targets += [columns[0], {}, {2: RXY.one()}, shifted]
    columns = [over_field(field, column) for column in columns]
    targets = [over_field(field, t) for t in targets]
    bound = max(membership_bound(degree_bound, data_degree(columns), t)
                for t in targets)
    order = data.draw(st.permutations(range(len(targets))))
    batch = bounded_members(ring, columns, targets, bound)
    shuffled = bounded_members(ring, columns, [targets[i] for i in order], bound)
    for k, t in enumerate(targets):
        expected = (bound, *independent_solve(ring, columns, t, bound, oracle_solution))
        alone = bounded_members(ring, columns, [t], bound)[0]
        for res in (alone, batch[k], shuffled[order.index(k)]):
            assert (res.bound, res.status, res.witness) == expected


def test_a_target_in_the_span_of_an_earlier_one_is_not_a_member():
    # One unknown c, the coefficient of the column {0: x, 1: y} at bound 0,
    # with equations c = b(0, x) and c = b(1, y).  The reduced form holds
    # the row 0 = b(0, x) - b(1, y), led by the first target's column: the
    # second target's column is no pivot, yet it is inconsistent.
    x, y = RXY.gens()
    results = bounded_members(RXY, [{0: x, 1: y}], [{0: x}, {1: y}, {0: x, 1: y}], 0)
    assert [r.status for r in results] == [
        "inconclusive_at_bound", "inconclusive_at_bound", "member"]
    assert results[2].witness == [RXY.one()]


def test_monomials_upto_deglex_order():
    mons = monomials_upto(2, 2)
    assert mons == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    # Callers rely on this order without sorting again.
    for nvars in range(1, 5):
        for bound in range(6):
            mons = monomials_upto(nvars, bound)
            assert mons == sorted(mons, key=deglex_key)


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


def rref_insert(reduced, pivots, row, field):
    """Insert one row into a reduced row echelon system in place.

    The plain loop through ``Field`` arithmetic: the row is cleared in
    every existing pivot column, normalised to a leading 1 and
    back-substituted into every earlier row.  Returns True when the row
    was independent (and appended), False when it reduced to zero.
    """
    row = dict(row)
    # A reduced pivot row is 1 in its own pivot column and 0 in every
    # other, so clearing one pivot column never refills another.
    for lead in [c for c in row if c in pivots]:
        factor = row[lead]
        for col, val in reduced[pivots[lead]].items():
            s = field.add(row.get(col, field.zero), field.neg(field.mul(factor, val)))
            if s:
                row[col] = s
            else:
                row.pop(col, None)
    if not row:
        return False
    lead = min(row)
    inv = field.inv(row[lead])
    row = {c: field.mul(v, inv) for c, v in row.items()}
    for other in reduced:
        if lead in other:
            factor = other[lead]
            for col, val in row.items():
                s = field.add(other.get(col, field.zero), field.neg(field.mul(factor, val)))
                if s:
                    other[col] = s
                else:
                    other.pop(col, None)
    pivots[lead] = len(reduced)
    reduced.append(row)
    return True


def rref_oracle(rows, field):
    """Reduced row echelon form by inserting the rows one at a time."""
    reduced, pivots = [], {}
    for row in rows:
        rref_insert(reduced, pivots, row, field)
    return reduced, pivots


def oracle_solution(rows, rhs, field):
    """solve_sparse's contract, read off the oracle's reduced form."""
    sentinel = max((max(r) for r in rows if r), default=0) + 1
    augmented = [{**row, sentinel: b} if b else dict(row)
                 for row, b in zip(rows, rhs)]
    reduced, pivots = rref_oracle(augmented, field)
    if sentinel in pivots:
        return None
    solution = [field.zero] * sentinel
    for col, ridx in pivots.items():
        solution[col] = reduced[ridx].get(sentinel, field.zero)
    return solution


def check_echelon_against_rref(rows, ncols, field):
    reduced, rref_pivots = rref_oracle(rows, field)
    ech = echelon_of(rows, field)
    ech_rows, ech_pivots = ech.rows, ech.pivots
    assert len(ech_rows) == len(reduced)
    assert list(ech_pivots.items()) == list(rref_pivots.items())
    for col, ridx in ech_pivots.items():
        assert min(ech_rows[ridx]) == col
        if field.p is not None:
            assert ech_rows[ridx][col] == 1
    # The echelon rows span the row space of the input.
    assert len(rref_oracle(rows + ech_rows, field)[0]) == len(reduced)
    kernel = kernel_basis(rows, ncols, field)
    assert len(kernel) == ncols - len(ech_rows)
    for vec in kernel:
        for row in rows:
            dot = field.zero
            for col, v in row.items():
                dot = field.add(dot, field.mul(v, vec.get(col, field.zero)))
            assert not dot


def check_row_reduce_against_oracle(rows, field):
    reduced, pivots = row_reduce(rows, field)
    expected, expected_pivots = rref_oracle(rows, field)
    assert reduced == expected
    assert list(pivots.items()) == list(expected_pivots.items())
    if field.p is None:
        assert all(in_rational_normal_form(v) for row in reduced for v in row.values())


def check_solve_against_oracle(rows, rhs, field):
    expected = oracle_solution(rows, rhs, field)
    assert solve_sparse(rows, rhs, field) == expected


@st.composite
def systems(draw, field):
    """A sparse matrix with a right-hand side, consistent about half the time."""
    rows, ncols = draw(sparse_matrices(field))
    if field.p is None:
        scalars = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    else:
        scalars = st.integers(0, field.p - 1)
    if draw(st.booleans()):
        x = draw(st.lists(scalars, min_size=ncols, max_size=ncols))
        rhs = []
        for row in rows:
            b = field.zero
            for col, v in row.items():
                b = field.add(b, field.mul(v, x[col]))
            rhs.append(b)
    else:
        rhs = draw(st.lists(scalars, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


PRIMES = st.sampled_from([2, 3, 7, 32003])


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(QQ))
def test_row_reduce_matches_oracle_over_rationals(data):
    check_row_reduce_against_oracle(data[0], QQ)


@settings(max_examples=200, deadline=None)
@given(PRIMES.flatmap(
    lambda p: sparse_matrices(Field.prime(p)).map(lambda d: (p, d))
))
def test_row_reduce_matches_oracle_over_prime_fields(case):
    p, (rows, _) = case
    check_row_reduce_against_oracle(rows, Field.prime(p))


@settings(max_examples=150, deadline=None)
@given(systems(QQ))
def test_solve_sparse_matches_oracle_over_rationals(system):
    check_solve_against_oracle(*system, QQ)


@settings(max_examples=150, deadline=None)
@given(PRIMES.flatmap(
    lambda p: systems(Field.prime(p)).map(lambda s: (p, s))
))
def test_solve_sparse_matches_oracle_over_prime_fields(case):
    p, system = case
    check_solve_against_oracle(*system, Field.prime(p))


def test_solve_sparse_rejects_a_corrupted_reduction(monkeypatch):
    F = Field.prime(7)
    rows, rhs = [{0: 1, 1: 1}, {1: 1}], [3, 1]
    assert solve_sparse(rows, rhs, F) == [2, 1]
    honest = exactalg.row_reduce

    def corrupted(rows, field):
        reduced, pivots = honest(rows, field)
        reduced[0] = {**reduced[0], 2: (reduced[0][2] + 1) % 7}
        return reduced, pivots

    monkeypatch.setattr(exactalg, "row_reduce", corrupted)
    with pytest.raises(InternalError, match="equation") as info:
        solve_sparse(rows, rhs, F)
    assert not isinstance(info.value, ValueError)


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
    assert len(echelon_of(rows, QQ).rows) == dense.rank()


@settings(max_examples=150, deadline=None)
@given(PRIMES.flatmap(
    lambda p: sparse_matrices(Field.prime(p)).map(lambda d: (p, d))
))
def test_echelon_matches_rref_over_prime_fields(case):
    p, (rows, ncols) = case
    check_echelon_against_rref(rows, ncols, Field.prime(p))


def int_copy(row, field):
    """A fresh int row that spans as ``row`` does: over the rationals its
    entries times the least common denominator, over F_p a plain copy."""
    if field.p is not None:
        return dict(row)
    den = math.lcm(*(Fraction(v).denominator for v in row.values()))
    return {c: int(v * den) for c, v in row.items()}


def check_echelon_inserts_against_oracle(rows, field):
    ech, owner = Echelon(field), Echelon(field)
    reduced, pivots = [], {}
    for row in rows:
        before = dict(row)
        grew = rref_insert(reduced, pivots, row, field)
        assert ech.insert(row) is grew
        assert row == before
        assert len(ech.rows) == len(reduced)
        # ``take`` on a fresh int copy gives what ``insert`` gave, and
        # keeps the very row it was handed.
        copy = int_copy(row, field)
        assert owner.take(copy) is grew
        if grew:
            assert owner.rows[-1] is copy
    assert list(ech.pivots.items()) == list(pivots.items())
    assert owner.rows == ech.rows
    assert list(owner.pivots.items()) == list(ech.pivots.items())


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(QQ))
def test_echelon_insert_verdicts_match_oracle_over_rationals(data):
    rows, _ = data
    check_echelon_inserts_against_oracle(rows, QQ)


@settings(max_examples=200, deadline=None)
@given(PRIMES.flatmap(
    lambda p: sparse_matrices(Field.prime(p)).map(lambda d: (p, d))
))
def test_echelon_insert_verdicts_match_oracle_over_prime_fields(case):
    p, (rows, _) = case
    check_echelon_inserts_against_oracle(rows, Field.prime(p))


def test_echelon_insert_clears_fractions():
    ech = Echelon(QQ)
    assert ech.insert({1: Fraction(1, 2), 3: Fraction(2, 3)})
    assert ech.insert({0: Fraction(5, 4), 1: Fraction(-1, 6)})
    # 2 * second + 4 * first
    assert not ech.insert({0: Fraction(5, 2), 1: Fraction(5, 3), 3: Fraction(8, 3)})
    assert ech.rows == [{1: 3, 3: 4}, {0: 15, 1: -2}]
    assert ech.pivots == {1: 0, 0: 1}


def check_probe_against_oracle(rows, ncols, field):
    """Insert the first half of ``rows``; the probe on the rest must say
    whether every one of them lies in their span, as exact insertion
    does (a probe misses an independent row with chance 2^-31 or less)."""
    rows = [row for row in rows if row]
    half = len(rows) // 2
    ech, reduced, pivots = Echelon(field), [], {}
    for row in rows[:half]:
        ech.insert(row)
        rref_insert(reduced, pivots, row, field)
    spans = not any(rref_insert(reduced, pivots, row, field) for row in rows[half:])
    rank = len(ech.rows)
    assert ech.probe(rows[half:], ncols, random.Random(1)) is spans
    assert len(ech.rows) == rank
    return spans


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(QQ))
def test_probe_matches_exact_insertion_over_rationals(data):
    event("spans" if check_probe_against_oracle(*data, QQ) else "a row outside")


@settings(max_examples=150, deadline=None)
@given(PRIMES.flatmap(
    lambda p: sparse_matrices(Field.prime(p)).map(lambda d: (p, d))
))
def test_probe_matches_exact_insertion_over_prime_fields(case):
    p, (rows, ncols) = case
    event("spans" if check_probe_against_oracle(rows, ncols, Field.prime(p))
          else "a row outside")


def test_probe_repeats_over_a_small_prime():
    # Over F_2 one kernel vector misses the row x1 + x2 half the time, so
    # the probe draws until 2^r >= 2^31 - 1: 31 vectors.
    draws = []

    class Counting(random.Random):
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

    ech = Echelon(Field.prime(2))
    ech.insert({0: 1, 2: 1})
    assert ech.probe([{1: 1, 2: 1}], 3, Counting(1)) is False
    draws.clear()
    assert ech.probe([{0: 1, 2: 1}], 3, Counting(1)) is True
    # One draw per column, from the least column of the rows on.
    assert len(draws) == 31 * 3


def test_probe_gives_up_where_its_prime_divides_a_lead_or_a_denominator():
    P = exactalg._PROBE_PRIME
    ech = Echelon(QQ)
    ech.insert({0: P, 1: 1})
    assert ech.probe([{0: 2 * P, 1: 2}], 2, random.Random(1)) is False
    ech = Echelon(QQ)
    ech.insert({0: 1, 1: 1})
    assert ech.probe([{0: Fraction(1, P), 1: Fraction(1, P)}], 2, random.Random(1)) is False
    assert ech.probe([{0: Fraction(1, 3), 1: Fraction(1, 3)}], 2, random.Random(1)) is True
    assert ech.probe([], 2, random.Random(1)) is True


@st.composite
def polynomial_maps(draw):
    """A small polynomial matrix in two variables over Q or F_7, as the
    monomials up to a bound, columns (generator, monomial) and the image
    of each generator.  Over Q some scalars are 1/2 or -3/4.  Image
    exponents reach degree 4, so an exponent sum can pass the bound."""
    field = draw(st.sampled_from([QQ, Field.prime(7)]), label="field")
    ring = PolyRing(field, ("x", "y"))
    scalars = (st.integers(1, 6) if field.p else
               st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-3, 4)]))
    ngens, ncoords = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    entries = {
        (g, i): Poly(ring, {e: field.of(c) for e, c in draw(st.dictionaries(
            exps, scalars, max_size=3)).items()})
        for g in range(ngens) for i in range(ncoords)
    }
    mons = monomials_upto(2, draw(st.integers(0, 2), label="bound"))
    shifts = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True))
    columns = [(g, m) for g in range(ngens) for m in shifts]
    if draw(st.booleans()):
        columns = draw(st.permutations(columns))
    return ring, mons, ncoords, entries, columns


@settings(max_examples=150, deadline=None)
@given(polynomial_maps())
def test_linear_rows_match_a_dense_expansion(data):
    ring, mons, ncoords, entries, columns = data
    cells = CellIndex(mons)
    cell_of = [cells.number(g) * len(mons) + mons.index(m) for g, m in columns]
    calls = []

    def image_of(g):
        calls.append(g)
        return [(i, exp, coef) for i in range(ncoords)
                for exp, coef in entries[(g, i)].terms.items()]

    cells.read_images(image_of)
    rows = linear_rows(cell_of, cells)
    # Dense reference, keyed by (coordinate, exponent): column j is the
    # product entries[(g, i)] * x^m.
    expected: dict = {}
    for j, (g, m) in enumerate(columns):
        for i in range(ncoords):
            product = entries[(g, i)] * ring.monomial(m)
            for exp, coef in product.terms.items():
                expected.setdefault((i, exp), {})[j] = coef
    # Every (coordinate, exponent) has its own row key, also an exponent
    # past the monomials' bound.
    keys = {key: cells.row_key(*key) for key in expected}
    assert None not in keys.values() and len(set(keys.values())) == len(keys)
    if any(sum(exp) > sum(mons[-1]) for _, exp in expected):
        event("an exponent sum past the bound")
    assert rows == {keys[key]: row for key, row in expected.items()}
    # Each generator's image is read once, and over Q an integral scalar
    # comes out as an int.
    assert calls == list(dict.fromkeys(g for g, _ in columns))
    if ring.field.p is None:
        assert all(type(c) is int for row in rows.values() for c in row.values()
                   if c.denominator == 1)


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
