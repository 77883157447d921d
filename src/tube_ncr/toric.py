"""Independent second construction of the tube algebra from torus
weights on a polynomial Cox ring.

Variables x0..xn, y0..yn carry opposite characters of an n-torus:
weight(x_i) = chi_{i+1} - chi_i and weight(y_i) = -weight(x_i), with
chi_0 = chi_{n+1} = 0, so weights live in Z^n with coordinates
chi_1..chi_n.  The products t_i = x_i*y_i, u = x_0...x_n and
v = y_0...y_n are invariant, and u*v = t_0...t_n.

The weight-chi_i piece is spanned over the invariants by the two
window monomials sigma_i = x_0...x_{i-1} and tau_i = y_i...y_n;
``section_basis`` enumerates that piece up to a degree bound and
certifies the factorisation monomial = invariant * window.

``end_algebra`` assembles all weight-(chi_j - chi_i) pieces and checks
that mapping a_i -> x_i, b_i -> y_i identifies the path-algebra basis
(irreducible words decorated by t-monomials) with the monomial bases,
degree by degree, and that the identification is multiplicative.  This
is the machine cross-check that the quiver presentation and the
weight-graded ring describe the same object.  ``base_change_end``
repeats the structure-constant comparison after substituting arbitrary
polynomials for the t's.  Both refuse a length bound below 2, which
admits no composable pair and so would check nothing.

Monomials of a fixed weight are enumerated exactly: the weight
equations force the x-minus-y exponent profile g_i = c_i - d_i to be a
step function determined by one free integer, and the leftover freedom
is a t-monomial; scanning the free integer over the degree window is a
complete enumeration, with no appeal to the statements under test.

The two comparisons run on exponent pairs (c, d) of plain tuples: the
enumeration yields them, a per-run table holds the image of each word,
filled through ``word_image`` so each word is validated once, and
base change forms each product of f-powers once per t-exponent.  A
``WeightMonomial`` is built only to render the text of a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb
from operator import add, sub
from typing import Optional, Sequence

from .exactalg import Field, InternalError, Poly, PolyRing, monomials_upto
from .quivalg import Presentation, tube_algebra, tube_vertex


@dataclass(frozen=True)
class WeightMonomial:
    """Monomial in x0..xn, y0..yn with nonnegative exponents."""

    c: tuple  # x-exponents
    d: tuple  # y-exponents

    def __post_init__(self):
        if len(self.c) != len(self.d):
            raise ValueError("x- and y-exponent vectors differ in length")
        if any(e < 0 for e in self.c) or any(e < 0 for e in self.d):
            raise ValueError("exponents must be nonnegative")

    @property
    def nvars(self) -> int:
        return len(self.c)

    def total_degree(self) -> int:
        return sum(self.c) + sum(self.d)

    def __mul__(self, other: "WeightMonomial") -> "WeightMonomial":
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        return WeightMonomial(
            tuple(a + b for a, b in zip(self.c, other.c)),
            tuple(a + b for a, b in zip(self.d, other.d)),
        )

    def divides(self, other: "WeightMonomial") -> bool:
        return all(a <= b for a, b in zip(self.c, other.c)) and all(
            a <= b for a, b in zip(self.d, other.d)
        )

    def quotient_by(self, other: "WeightMonomial") -> "WeightMonomial":
        if not other.divides(self):
            raise ValueError(f"{other.to_text()} does not divide {self.to_text()}")
        return WeightMonomial(
            tuple(a - b for a, b in zip(self.c, other.c)),
            tuple(a - b for a, b in zip(self.d, other.d)),
        )

    def to_text(self) -> str:
        parts = []
        for i, e in enumerate(self.c):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        for i, e in enumerate(self.d):
            if e == 1:
                parts.append(f"y{i}")
            elif e > 1:
                parts.append(f"y{i}^{e}")
        return "*".join(parts) if parts else "1"


def one_monomial(n: int) -> WeightMonomial:
    return WeightMonomial((0,) * (n + 1), (0,) * (n + 1))


def t_monomial(exponents: Sequence[int]) -> WeightMonomial:
    e = tuple(exponents)
    return WeightMonomial(e, e)


def u_power(n: int, r: int = 1) -> WeightMonomial:
    return WeightMonomial((r,) * (n + 1), (0,) * (n + 1))


def v_power(n: int, s: int = 1) -> WeightMonomial:
    return WeightMonomial((0,) * (n + 1), (s,) * (n + 1))


def sigma_window(i: int, n: int) -> WeightMonomial:
    """x0*...*x_{i-1}, the x-side generator of the weight-chi_i piece."""
    if not 1 <= i <= n:
        raise ValueError(f"window index must satisfy 1 <= i <= n, got {i}")
    return WeightMonomial(
        tuple(1 if k < i else 0 for k in range(n + 1)), (0,) * (n + 1)
    )


def tau_window(i: int, n: int) -> WeightMonomial:
    """y_i*...*y_n, the y-side generator of the weight-chi_i piece."""
    if not 1 <= i <= n:
        raise ValueError(f"window index must satisfy 1 <= i <= n, got {i}")
    return WeightMonomial(
        (0,) * (n + 1), tuple(1 if k >= i else 0 for k in range(n + 1))
    )


def weight(m: WeightMonomial, n: int) -> tuple:
    """Torus weight of a monomial, as a vector in Z^n with coordinates
    chi_1..chi_n (chi_0 and chi_{n+1} are trivial)."""
    if m.nvars != n + 1:
        raise ValueError(f"expected exponent vectors of length {n + 1}")
    chi = [0] * (n + 2)
    for i in range(n + 1):
        g = m.c[i] - m.d[i]
        chi[i + 1] += g
        chi[i] -= g
    return tuple(chi[1 : n + 1])


def character(i: int, n: int) -> tuple:
    """The weight chi_i as a vector (chi_0 = 0 is the empty character)."""
    if not 0 <= i <= n:
        raise ValueError(f"character index out of range: {i}")
    return tuple(1 if k == i else 0 for k in range(1, n + 1))


def invariant_certificate(m: WeightMonomial, n: int) -> dict:
    """Factor a weight-0 monomial as t-monomial times u^r or v^s.

    The x-minus-y exponent profile of a weight-0 monomial is constant;
    stripping the componentwise minimum leaves exactly u^r (constant
    positive) or v^s (constant negative)."""
    if any(weight(m, n)):
        raise ValueError(f"{m.to_text()} is not an invariant monomial")
    g = {m.c[i] - m.d[i] for i in range(n + 1)}
    if len(g) != 1:
        raise InternalError(
            f"{m.to_text()} has weight 0 but x-y profile {sorted(g)}"
        )
    level = g.pop()
    texp = tuple(min(ci, di) for ci, di in zip(m.c, m.d))
    r = max(level, 0)
    s = max(-level, 0)
    rebuilt = t_monomial(texp) * u_power(n, r) * v_power(n, s)
    if rebuilt != m:
        raise InternalError(
            f"certificate of {m.to_text()} rebuilds {rebuilt.to_text()}"
        )
    return {"t_exponents": texp, "u_power": r, "v_power": s}


def _t_exponents_by_room(n: int, degree_bound: int) -> list:
    """Entry r lists the t-exponent vectors of degree <= r in deglex
    order, for r <= bound // 2: ``monomials_upto`` is deglex, so they are
    the first comb(r + n + 1, n + 1) of the longest list."""
    texps = monomials_upto(n + 1, degree_bound // 2)
    return [texps[: comb(r + n + 1, n + 1)] for r in range(degree_bound // 2 + 1)]


def _weight_exponents(n: int, target: tuple, degree_bound: int, texps: list) -> list:
    """The (c, d) exponent pairs of all monomials of the given weight with
    total degree <= bound, sorted by (total degree, c, d); ``texps`` is
    ``_t_exponents_by_room(n, degree_bound)``, built once by the caller.

    Complete by construction: the weight equations determine the
    profile g_i = c_i - d_i up to one free integer s (g_n = s,
    g_{k-1} = g_k + target_k), and the remaining freedom is exactly a
    t-monomial on top of the minimal representative.
    """
    if len(target) != n:
        raise ValueError(f"weight vector must have length {n}")
    # h[k] = g_k - s, accumulated from the right
    h = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        h[k] = h[k + 1] + target[k]
    out = []
    lo = -degree_bound - max(h)
    hi = degree_bound - min(h)
    for s in range(lo, hi + 1):
        g = [s + hk for hk in h]
        base_degree = sum(abs(gi) for gi in g)
        if base_degree > degree_bound:
            continue
        c0 = tuple(max(gi, 0) for gi in g)
        d0 = tuple(max(-gi, 0) for gi in g)
        room = (degree_bound - base_degree) // 2
        for e in texps[room]:
            out.append(
                (base_degree + 2 * sum(e), tuple(map(add, c0, e)),
                 tuple(map(add, d0, e)))
            )
    out.sort()
    return [(c, d) for _, c, d in out]


def monomials_of_weight(n: int, target: tuple, degree_bound: int) -> list:
    """All monomials of the given weight with total degree <= bound,
    sorted by (total degree, c, d)."""
    texps = _t_exponents_by_room(n, degree_bound)
    return [WeightMonomial(c, d) for c, d in _weight_exponents(n, target, degree_bound, texps)]


# ---------------------------------------------------------------------------
# Section bases
# ---------------------------------------------------------------------------


@dataclass
class SectionBasis:
    index: int
    n: int
    degree_bound: int
    character: tuple
    sigma: WeightMonomial
    tau: WeightMonomial
    monomials: list
    certificates: list
    relations: list

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "n": self.n,
            "degree_bound": self.degree_bound,
            "character": list(self.character),
            "generators": {
                "sigma": self.sigma.to_text(),
                "tau": self.tau.to_text(),
            },
            "monomials": [m.to_text() for m in self.monomials],
            "certificates": self.certificates,
            "relations": list(self.relations),
        }


def section_basis(i: int, n: int, degree_bound: int) -> SectionBasis:
    """Enumerate the weight-chi_i monomials up to the degree bound and
    certify that each one is an invariant monomial times sigma_i or
    tau_i; also record the two exchange relations that present the
    span as a module over the invariants.  A monomial that fails its
    certificate is a bug in the enumeration, so it raises
    ``InternalError``, not ``ValueError``."""
    sigma = sigma_window(i, n)
    tau = tau_window(i, n)
    needed = max(sigma.total_degree(), tau.total_degree())
    if degree_bound < needed:
        raise ValueError(
            f"degree bound {degree_bound} cannot see both generators "
            f"(need at least {needed})"
        )
    monomials = monomials_of_weight(n, character(i, n), degree_bound)
    certificates = []
    for m in monomials:
        if sigma.divides(m):
            generator, gen_name = sigma, "sigma"
        elif tau.divides(m):
            generator, gen_name = tau, "tau"
        else:
            raise InternalError(
                f"{m.to_text()} has weight chi_{i} but neither window "
                f"monomial divides it"
            )
        try:
            cert = invariant_certificate(m.quotient_by(generator), n)
        except ValueError as exc:
            raise InternalError(f"{m.to_text()} over {gen_name}: {exc}") from exc
        certificates.append(
            {"monomial": m.to_text(), "generator": gen_name, "invariant": cert}
        )
    # exchange relations: (t_i...t_n) sigma = u tau, (t_0...t_{i-1}) tau = v sigma
    t_high = t_monomial(tuple(1 if k >= i else 0 for k in range(n + 1)))
    t_low = t_monomial(tuple(1 if k < i else 0 for k in range(n + 1)))
    if t_high * sigma != u_power(n) * tau or t_low * tau != v_power(n) * sigma:
        raise InternalError(f"exchange relations fail for chi_{i}, n = {n}")
    relations = [
        f"({t_high.to_text()})*sigma = u*tau",
        f"({t_low.to_text()})*tau = v*sigma",
    ]
    return SectionBasis(
        i, n, degree_bound, character(i, n), sigma, tau, monomials,
        certificates, relations,
    )


# ---------------------------------------------------------------------------
# Wedge nonvanishing
# ---------------------------------------------------------------------------


def wedge_components(n: int) -> list:
    """The monomials sigma_1...sigma_j * tau_{j+2}...tau_n for
    j = 0..n-1, whose simultaneous vanishing is what the instability
    check inspects."""
    out = []
    for j in range(n):
        comp = one_monomial(n)
        for m in range(1, j + 1):
            comp = comp * sigma_window(m, n)
        for m in range(j + 2, n + 1):
            comp = comp * tau_window(m, n)
        out.append(comp)
    return out


def wedge_nonvanishing(n: int) -> dict:
    """Exhaustively check, over all 2^(2(n+1)) patterns of vanishing
    variables, that a pattern killing every wedge component kills some
    x_j and y_k with j < k (i.e. only unstable points are reached)."""
    if n < 2:
        raise ValueError("the wedge check needs n >= 2")
    components = wedge_components(n)
    # per component: which x- and y-variables occur
    supports = []
    for comp in components:
        xs = {i for i in range(n + 1) if comp.c[i] > 0}
        ys = {i for i in range(n + 1) if comp.d[i] > 0}
        supports.append((xs, ys))
    counterexamples = []
    total = 0
    m = n + 1
    for xmask in range(1 << m):
        xzero = {i for i in range(m) if xmask >> i & 1}
        for ymask in range(1 << m):
            total += 1
            yzero = {i for i in range(m) if ymask >> i & 1}
            all_vanish = all(
                (xs & xzero) or (ys & yzero) for xs, ys in supports
            )
            if not all_vanish:
                continue
            unstable = any(j < k for j in xzero for k in yzero)
            if not unstable:
                counterexamples.append(
                    {"x_zero": sorted(xzero), "y_zero": sorted(yzero)}
                )
    return {
        "n": n,
        "patterns_checked": total,
        "components": [c.to_text() for c in components],
        "holds": not counterexamples,
        "counterexamples": counterexamples,
    }


# ---------------------------------------------------------------------------
# Endomorphism algebra comparison
# ---------------------------------------------------------------------------


def default_degree_bound(n: int) -> int:
    """Large enough to contain u^2, v^2, and every single-wind path."""
    return 2 * (n + 1) + 4


def word_image(word, n: int) -> WeightMonomial:
    """Multiplicative dictionary a_i -> x_i, b_i -> y_i on a path."""
    counts = {"a": [0] * (n + 1), "b": [0] * (n + 1)}
    for arrow in word:
        exps, idx = counts.get(arrow[0]), int(arrow[1:])
        if exps is None or not 0 <= idx <= n:
            raise ValueError(f"unexpected arrow {arrow!r} for n = {n}")
        exps[idx] += 1
    return WeightMonomial(tuple(counts["a"]), tuple(counts["b"]))


@dataclass
class EndComparisonReport:
    n: int
    degree_bound: int
    ok: bool
    rank_table: dict = dc_field(default_factory=dict)
    generator_images: dict = dc_field(default_factory=dict)
    mismatches: list = dc_field(default_factory=list)
    basis_pairs_checked: int = 0
    products_checked: int = 0

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree_bound": self.degree_bound,
            "ok": self.ok,
            "rank_table": {
                f"{i},{j}": {str(d): r for d, r in sorted(degrees.items())}
                for (i, j), degrees in sorted(self.rank_table.items())
            },
            "generator_images": dict(sorted(self.generator_images.items())),
            "mismatches": self.mismatches[:20],
            "basis_pairs_checked": self.basis_pairs_checked,
            "products_checked": self.products_checked,
        }


def _tube_words(pres: Presentation, n: int, bound: int) -> dict:
    words = {}
    for i in range(n + 1):
        for j in range(n + 1):
            words[(i, j)] = pres.irreducible_words(
                tube_vertex(i), tube_vertex(j), bound
            )
    return words


def _terms_text(pres: Presentation, terms: list) -> str:
    """The text of the element sum s * x^e * p of flat terms (p, e, s)."""
    return pres.element([(Poly(pres.ring, {e: s}), p) for p, e, s in terms]).to_text()


def _composable_pairs(words: dict, n: int, bound: int):
    """Pairs (w1, w2) of non-lazy words, w1 from L_i to L_j and w2 from
    L_j to L_k, of combined length <= bound, in (i, j, k) order, so that
    w2*w1 composes."""
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                for w1 in words[(i, j)]:
                    if w1.is_lazy:
                        continue
                    for w2 in words[(j, k)]:
                        if w2.is_lazy or len(w1.arrows) + len(w2.arrows) > bound:
                            continue
                        yield w1, w2


class _WordImages(dict):
    """Exponent pairs (c, d) of word images, keyed by arrow tuple and
    filled through ``word_image``, so each word is validated once."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, arrows):
        m = word_image(arrows, self.n)
        self[arrows] = pair = (m.c, m.d)
        return pair


def _product(first: tuple, second: tuple) -> tuple:
    """Product of two monomials given as exponent pairs (c, d)."""
    return tuple(map(add, first[0], second[0])), tuple(map(add, first[1], second[1]))


def _text(pair: tuple) -> str:
    return WeightMonomial(*pair).to_text()


def _check_bound(bound: int) -> None:
    if bound < 2:
        raise ValueError(
            f"length bound {bound} admits no composable pair of arrows "
            f"(need at least 2)"
        )


def end_algebra(n: int, length_bound: Optional[int] = None) -> EndComparisonReport:
    """Compare the weight-graded monomial spaces with the path-algebra
    basis: the dictionary a_i -> x_i, b_i -> y_i must send the
    irreducible words decorated by t-monomials bijectively onto the
    weight-(chi_j - chi_i) monomials, degree by degree, and must turn
    path composition into monomial multiplication."""
    if n < 1:
        raise ValueError("need n >= 1")
    bound = default_degree_bound(n) if length_bound is None else length_bound
    _check_bound(bound)
    ring = PolyRing(Field.rationals(), tuple(f"t{k}" for k in range(n + 1)))
    tube = tube_algebra(n, ring)
    report = EndComparisonReport(n, bound, True)
    report.generator_images = {
        **{f"a{i}": f"x{i}" for i in range(n + 1)},
        **{f"b{i}": f"y{i}" for i in range(n + 1)},
        **{f"t{i}": f"x{i}*y{i}" for i in range(n + 1)},
    }
    words = _tube_words(tube, n, bound)
    images = _WordImages(n)
    texps = _t_exponents_by_room(n, bound)
    for i in range(n + 1):
        chi_i = character(i, n)
        for j in range(n + 1):
            chi_j = character(j, n)
            target = tuple(b - a for a, b in zip(chi_i, chi_j))
            cox_side = _weight_exponents(n, target, bound, texps)
            seen = {}
            for path in words[(i, j)]:
                base = images[path.arrows]
                decorations = texps[(bound - len(path.arrows)) // 2]
                report.basis_pairs_checked += len(decorations)
                for e in decorations:
                    m = _product(base, (e, e))
                    if m in seen:
                        report.mismatches.append(
                            {
                                "kind": "not_injective",
                                "hom": [i, j],
                                "monomial": _text(m),
                            }
                        )
                    seen[m] = path
            cox_set = set(cox_side)
            for m in cox_set - set(seen):
                report.mismatches.append(
                    {
                        "kind": "missing_path",
                        "hom": [i, j],
                        "monomial": _text(m),
                    }
                )
            for m in set(seen) - cox_set:
                report.mismatches.append(
                    {
                        "kind": "wrong_weight_or_degree",
                        "hom": [i, j],
                        "monomial": _text(m),
                    }
                )
            degrees = {}
            for c, d in cox_side:
                degree = sum(c) + sum(d)
                degrees[degree] = degrees.get(degree, 0) + 1
            report.rank_table[(i, j)] = degrees
    # multiplicativity on composable pairs of words
    for w1, w2 in _composable_pairs(words, n, bound):
        product = tube.word_product(w2, w1)
        if len(product) != 1 or product[0][2] != ring.field.one:
            raise InternalError(
                f"normal form of {w2.arrows + w1.arrows} is "
                f"{_terms_text(tube, product)}, not one monic term"
            )
        [(nf_path, texp, _)] = product
        lhs = _product(images[w2.arrows], images[w1.arrows])
        rhs = _product((texp, texp), images[nf_path.arrows])
        report.products_checked += 1
        if lhs != rhs:
            report.mismatches.append(
                {
                    "kind": "not_multiplicative",
                    "pair": ["*".join(w2.arrows), "*".join(w1.arrows)],
                    "lhs": _text(lhs),
                    "rhs": _text(rhs),
                }
            )
    report.ok = not report.mismatches
    return report


@dataclass
class BaseChangeReport:
    n: int
    degree_bound: int
    ok: bool
    substitution: list = dc_field(default_factory=list)
    products_checked: int = 0
    mismatches: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree_bound": self.degree_bound,
            "ok": self.ok,
            "substitution": list(self.substitution),
            "products_checked": self.products_checked,
            "mismatches": self.mismatches[:20],
        }


def base_change_end(
    n: int, f: Sequence[Poly], length_bound: Optional[int] = None
) -> BaseChangeReport:
    """Verify that substituting f_i for t_i commutes with the
    path-to-monomial dictionary: the structure constants of the
    specialised path algebra equal the t-exponents read off from the
    monomial products, evaluated at f."""
    if len(f) != n + 1:
        raise ValueError(f"need {n + 1} substitution values, got {len(f)}")
    bound = default_degree_bound(n) if length_bound is None else length_bound
    _check_bound(bound)
    ring = f[0].ring
    specialised = tube_algebra(n, ring, tuple(f))
    report = BaseChangeReport(
        n, bound, True, [p.to_text() for p in f]
    )
    words = _tube_words(specialised, n, bound)
    images = _WordImages(n)
    f_powers = {}  # t-exponent -> prod f_i^e_i
    for w1, w2 in _composable_pairs(words, n, bound):
        # t-exponents predicted by the monomial product
        c, d = _product(images[w2.arrows], images[w1.arrows])
        texp = tuple(map(min, c, d))
        expected_word = (tuple(map(sub, c, texp)), tuple(map(sub, d, texp)))
        predicted = f_powers.get(texp)
        if predicted is None:
            predicted = ring.one()
            for fi, e in zip(f, texp):
                predicted = predicted * fi**e
            f_powers[texp] = predicted
        actual = specialised.word_product(w2, w1)
        report.products_checked += 1
        words = {path.arrows for path, _, _ in actual}
        good = (len(words) <= 1 and {e: s for _, e, s in actual} == predicted.terms
                and all(images[w] == expected_word for w in words))
        if not good:
            report.mismatches.append(
                {
                    "pair": ["*".join(w2.arrows), "*".join(w1.arrows)],
                    "predicted": predicted.to_text(),
                    "actual": _terms_text(specialised, actual),
                }
            )
    report.ok = not report.mismatches
    return report
