"""Exact coefficient arithmetic and truncated linear algebra.

Everything downstream runs on the primitives in this module: fields (the
rationals, or a prime field F_p with p < 2**31), multivariate polynomial
rings over such a field, ring homomorphisms given by images of the
variables, and an exact linear solver over polynomial entries truncated
at an explicit degree bound.

Conventions fixed here, relied on everywhere else:

* No floating point anywhere.  Rational coefficients are
  ``fractions.Fraction``; prime-field coefficients are ints in
  ``range(p)``.
* Monomial order is degree-lexicographic ("deglex") with the ring's
  declared variable order: compare total degree first, then the exponent
  vectors lexicographically.  All enumeration, text output and kernel
  bases are deterministic given this order.
* Any answer that depends on a truncation bound carries the bound; a
  failed bounded search is reported as "inconclusive at bound", never as
  a bare negative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p in (2, 3):
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (``p is None``) or the prime field F_p.

    Elements are plain Python values: ``Fraction`` for the rationals,
    ints reduced into ``range(p)`` for F_p.  The class only carries the
    arithmetic, so values stay cheap to hash and compare.
    """

    __slots__ = ("p",)

    def __init__(self, p: Optional[int] = None):
        if p is not None:
            if p >= 2**31:
                raise ValueError(f"prime field characteristic too large: {p}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    # -- element arithmetic ------------------------------------------------

    def of(self, n) -> object:
        """Coerce an int or Fraction into a field element."""
        if self.p is None:
            return Fraction(n)
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return n.numerator * pow(n.denominator, self.p - 2, self.p) % self.p
        return n % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse_scalar(self, text: str):
        """Parse "3", "-2", or (rationals only) "2/5"."""
        text = text.strip()
        if "/" in text:
            if self.p is not None:
                num, den = text.split("/", 1)
                return self.div(self.of(int(num)), self.of(int(den)))
            return Fraction(text)
        return self.of(int(text))

    def format_scalar(self, a) -> str:
        if self.p is None and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))

    def to_json(self) -> dict:
        if self.p is None:
            return {"kind": "rationals"}
        return {"kind": "prime", "p": self.p}

    @classmethod
    def from_json(cls, data: dict) -> "Field":
        if data["kind"] == "rationals":
            return cls(None)
        return cls(data["p"])


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*|\+|-)")


class PolyParseError(ValueError):
    pass


class PolyRing:
    """A multivariate polynomial ring over a :class:`Field`.

    Variables are identified by name; the declared order fixes both the
    exponent-vector layout and the deglex monomial order.
    """

    __slots__ = ("field", "names", "index", "_zero_exp")

    def __init__(self, field: Field, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad variable name: {name!r}")
        self.field = field
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self._zero_exp = (0,) * len(names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return hash((self.field, self.names))

    def __repr__(self) -> str:
        return f"{self.field!r}[{', '.join(self.names)}]"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self._zero_exp: self.field.one})

    def const(self, n) -> "Poly":
        c = self.field.of(n)
        return Poly(self, {self._zero_exp: c} if c else {})

    def gen(self, name: str) -> "Poly":
        exp = [0] * self.nvars
        exp[self.index[name]] = 1
        return Poly(self, {tuple(exp): self.field.one})

    def gens(self) -> list["Poly"]:
        return [self.gen(name) for name in self.names]

    def monomial(self, exp: Sequence[int], coef=1) -> "Poly":
        exp = tuple(exp)
        if len(exp) != self.nvars or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent vector {exp} for {self!r}")
        c = self.field.of(coef)
        return Poly(self, {exp: c} if c else {})

    def parse(self, text: str) -> "Poly":
        """Parse the polynomial micro-grammar.

        expr   = ["-"] term { ("+" | "-") term }
        term   = factor { "*" factor }
        factor = base [ "^" integer ]
        base   = integer | variable

        No parentheses; variables must be declared in this ring.
        """
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise PolyParseError(f"bad token at {text[pos:]!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
        if not tokens:
            raise PolyParseError("empty polynomial")

        result = self.zero()
        i = 0

        def take_factor(i: int) -> tuple["Poly", int]:
            if i >= len(tokens):
                raise PolyParseError("expected a factor")
            tok = tokens[i]
            if tok.isdigit():
                base = self.const(int(tok))
            elif tok in self.index:
                base = self.gen(tok)
            else:
                raise PolyParseError(f"unknown variable {tok!r} in {self!r}")
            i += 1
            if i < len(tokens) and tokens[i] == "^":
                i += 1
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise PolyParseError("expected integer exponent after '^'")
                base = base**int(tokens[i])
                i += 1
            return base, i

        sign = 1
        if tokens[0] in ("+", "-"):
            sign = -1 if tokens[0] == "-" else 1
            i = 1
        while True:
            term, i = take_factor(i)
            while i < len(tokens) and tokens[i] == "*":
                factor, i = take_factor(i + 1)
                term = term * factor
            if sign < 0:
                term = -term
            result = result + term
            if i >= len(tokens):
                return result
            if tokens[i] not in ("+", "-"):
                raise PolyParseError(f"expected '+' or '-' at {tokens[i]!r}")
            sign = -1 if tokens[i] == "-" else 1
            i += 1


def deglex_key(exp: tuple) -> tuple:
    """Sort key for deglex order (ascending)."""
    return (sum(exp), exp)


class Poly:
    """An exact multivariate polynomial: map exponent vector -> coefficient.

    Zero coefficients are never stored.  Instances are treated as
    immutable; operations always build fresh term maps.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check_same_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_ring(other)
        field = self.ring.field
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = field.add(terms.get(exp, field.zero), c)
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return Poly(self.ring, terms)

    def __neg__(self) -> "Poly":
        field = self.ring.field
        return Poly(self.ring, {e: field.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_ring(other)
        field = self.ring.field
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = field.add(terms.get(exp, field.zero), field.mul(c1, c2))
                if s:
                    terms[exp] = s
                else:
                    terms.pop(exp, None)
        return Poly(self.ring, terms)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # Square-and-multiply: O(log n) products.
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c) -> "Poly":
        field = self.ring.field
        c = field.of(c) if not isinstance(c, (Fraction, int)) else c
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: field.mul(v, c) for e, v in self.terms.items()})

    def sorted_terms(self) -> list:
        """Terms in descending deglex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda t: deglex_key(t[0]), reverse=True)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``3*t0^2*t1 - 1``."""
        if not self.terms:
            return "0"
        field = self.ring.field
        parts = []
        for exp, coef in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cstr = field.format_scalar(coef)
            neg = cstr.startswith("-")
            if neg:
                cstr = cstr[1:]
            if factors and cstr == "1":
                body = "*".join(factors)
            elif factors:
                body = cstr + "*" + "*".join(factors)
            else:
                body = cstr
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def to_json(self) -> dict:
        field = self.ring.field
        return {
            "terms": [
                {"exp": list(exp), "coef": field.format_scalar(coef)}
                for exp, coef in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, ring: PolyRing, data: dict) -> "Poly":
        terms = {}
        for t in data["terms"]:
            exp = tuple(t["exp"])
            c = ring.field.parse_scalar(t["coef"])
            if c:
                terms[exp] = c
        return cls(ring, terms)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"


class RingMap:
    """A ring homomorphism source -> target given by variable images."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: PolyRing, target: PolyRing, images: Sequence[Poly]):
        if len(images) != source.nvars:
            raise ValueError(
                f"need {source.nvars} images, got {len(images)}"
            )
        for img in images:
            if img.ring != target:
                raise ValueError("image not in the target ring")
        if source.field != target.field:
            # Same-characteristic coefficient transport only; anything
            # fancier is out of scope.
            raise ValueError("source and target fields differ")
        self.source = source
        self.target = target
        self.images = tuple(images)

    @classmethod
    def identity(cls, ring: PolyRing) -> "RingMap":
        return cls(ring, ring, ring.gens())

    def __call__(self, p: Poly) -> Poly:
        return self.apply(p)

    def apply(self, p: Poly) -> Poly:
        if p.ring != self.source:
            raise ValueError("polynomial not in the source ring")
        result = self.target.zero()
        for exp, coef in p.terms.items():
            term = self.target.const(coef)
            for img, e in zip(self.images, exp):
                for _ in range(e):
                    term = term * img
            result = result + term
        return result


# ---------------------------------------------------------------------------
# Monomial enumeration
# ---------------------------------------------------------------------------


def monomials_upto(nvars: int, bound: int) -> list[tuple]:
    """All exponent vectors with total degree <= bound, ascending deglex."""
    if bound < 0:
        return []
    if nvars == 0:
        return [()]
    out: list[tuple] = []
    for d in range(bound + 1):
        level: list[tuple] = []

        def rec_level(prefix: list, remaining: int, pos: int):
            if pos == nvars - 1:
                level.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining + 1):
                rec_level(prefix + [e], remaining - e, pos + 1)

        rec_level([], d, 0)
        level.sort()
        out.extend(level)
    return out


# ---------------------------------------------------------------------------
# Sparse exact linear algebra over a Field
# ---------------------------------------------------------------------------


def rref_insert(reduced: list, pivots: dict, row: dict, field: Field) -> bool:
    """Insert one row into a reduced row echelon system in place.

    ``reduced`` and ``pivots`` are as returned by ``row_reduce``; the row
    is cleared in every existing pivot column, normalised to a leading 1
    and back-substituted into every earlier row.  Returns True when the
    row was independent (and appended), False when it reduced to zero.
    """
    row = dict(row)
    # A reduced pivot row is 1 in its own pivot column and 0 in every
    # other, so clearing one pivot column never refills another.
    for lead in [c for c in row if c in pivots]:
        factor = row[lead]
        for col, val in reduced[pivots[lead]].items():
            s = field.sub(row.get(col, field.zero), field.mul(factor, val))
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
                s = field.sub(other.get(col, field.zero), field.mul(factor, val))
                if s:
                    other[col] = s
                else:
                    other.pop(col, None)
    pivots[lead] = len(reduced)
    reduced.append(row)
    return True


def row_reduce(rows: list[dict], field: Field) -> tuple[list[dict], dict]:
    """Reduced row echelon form of sparse rows (dicts col -> coefficient).

    Returns (reduced nonzero rows, pivots) where pivots maps a pivot
    column to its row index in the returned list.  Deterministic: rows
    are processed in order, pivots chosen as the least column index.
    """
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for row in rows:
        rref_insert(reduced, pivots, row, field)
    return reduced, pivots


def echelon(rows: list[dict], field: Field) -> tuple[list[dict], dict]:
    """Row echelon form of sparse rows, without back-substitution.

    Same contract and the same pivots as ``row_reduce`` (rows in order,
    the least column as pivot; the set of pivot columns of an echelon
    form is fixed by the row space), at a fraction of the cost when only
    the rank or the pivot columns are needed.  The rows span the same
    space but are not reduced: over F_p each has leading coefficient 1;
    over the rationals each is a primitive integer row (``int`` entries),
    eliminated fraction-free.
    """
    if field.p is None:
        return _echelon_rationals(rows)
    return _echelon_prime(rows, field.p)


def _echelon_prime(rows: list[dict], p: int) -> tuple[list[dict], dict]:
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            ridx = pivots.get(lead)
            if ridx is None:
                break
            factor = row[lead]
            # Pivot rows lead with 1, so ``factor`` times it cancels the lead.
            for col, val in reduced[ridx].items():
                s = (row.get(col, 0) - factor * val) % p
                if s:
                    row[col] = s
                else:
                    del row[col]
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], p - 2, p)
        if inv != 1:
            row = {c: v * inv % p for c, v in row.items()}
        pivots[lead] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def _echelon_rationals(rows: list[dict]) -> tuple[list[dict], dict]:
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for row in rows:
        # Clear denominators; a row and its nonzero multiples span alike.
        den = math.lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        while row:
            lead = min(row)
            ridx = pivots.get(lead)
            if ridx is None:
                break
            pivot_row = reduced[ridx]
            # row <- a*row - b*pivot_row cancels the lead, in integers.
            a, b = pivot_row[lead], row[lead]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for col, val in pivot_row.items():
                s = row.get(col, 0) - b * val
                if s:
                    row[col] = s
                else:
                    del row[col]
            if row:
                content = math.gcd(*row.values())
                if content != 1:
                    row = {c: v // content for c, v in row.items()}
        if not row:
            continue
        pivots[min(row)] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def matrix_rank(rows: list[dict], field: Field) -> int:
    return len(echelon(rows, field)[0])


def kernel_basis(rows: list[dict], ncols: int, field: Field) -> list[dict]:
    """Basis of the right kernel of a sparse matrix, deterministic.

    Each basis vector is a dict col -> coefficient, normalised so its
    free coordinate equals 1; vectors are ordered by free column index,
    and within a vector the pivot coordinates follow the pivot order.
    """
    reduced, pivots = row_reduce(rows, field)
    # In reduced form every non-pivot entry of a row sits in a free
    # column, so one pass over the rows collects each free column's
    # pivot coordinates.
    entries: dict[int, list] = {}
    for pivot_col, ridx in pivots.items():
        for col, val in reduced[ridx].items():
            if col != pivot_col:
                entries.setdefault(col, []).append((pivot_col, field.neg(val)))
    basis: list[dict] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: field.one}
        vec.update(entries.get(free, ()))
        basis.append(vec)
    return basis


def solve_sparse(
    rows: list[dict], rhs: list, field: Field
) -> Optional[list]:
    """One solution of rows * x = rhs, or None when inconsistent.

    Free variables are set to zero, so the solution is deterministic.
    The rhs travels as a virtual column with index above every real one,
    so it never becomes a pivot unless the system is inconsistent.
    """
    sentinel = max((max(r) for r in rows if r), default=0) + 1
    augmented = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[sentinel] = b
        augmented.append(r)
    reduced, pivots = row_reduce(augmented, field)
    if sentinel in pivots:
        return None  # some row reduced to 0 = nonzero
    solution = [field.zero] * sentinel
    # Each reduced row reads x_pivot + (free terms) = rhs entry; with the
    # free variables pinned to zero, x_pivot is the rhs entry itself.
    for pivot_col, ridx in pivots.items():
        solution[pivot_col] = reduced[ridx].get(sentinel, field.zero)
    return solution


# ---------------------------------------------------------------------------
# Truncated solving over polynomial matrices
# ---------------------------------------------------------------------------


@dataclass
class TruncatedSolveResult:
    mode: str                      # "kernel" | "membership"
    bound: int
    status: str                    # "ok" | "member" | "inconclusive_at_bound"
    vectors: list = None           # kernel mode: list of Poly vectors
    witness: list = None           # membership mode: Poly coefficients

    def to_json(self) -> dict:
        out = {"mode": self.mode, "bound": self.bound, "status": self.status}
        if self.vectors is not None:
            out["vectors"] = [[p.to_json() for p in v] for v in self.vectors]
        if self.witness is not None:
            out["witness"] = [p.to_json() for p in self.witness]
        return out


def _linearize_columns(ring: PolyRing, ncols: int, bound: int):
    """Unknown layout: one field unknown per (column, monomial <= bound)."""
    mons = monomials_upto(ring.nvars, bound)
    unknowns = [(j, m) for j in range(ncols) for m in mons]
    index = {key: i for i, key in enumerate(unknowns)}
    return mons, unknowns, index


def truncated_solve(
    A: Sequence[Sequence[Poly]],
    mode: str,
    target: Optional[Sequence[Poly]] = None,
    degree_bound: int = 0,
) -> TruncatedSolveResult:
    """Exact linear algebra over Poly entries, truncated at a degree bound.

    kernel mode: a deterministic field-basis of
    ``{v : A v = 0, deg v_j <= degree_bound}``.

    membership mode: decide whether ``target`` lies in the column span of
    ``A`` with coefficient degrees <= degree_bound.  A bounded miss is
    status ``inconclusive_at_bound`` (a higher-degree witness may exist),
    never a bare "no".
    """
    if mode not in ("kernel", "membership"):
        raise ValueError(f"unknown mode {mode!r}")
    if not A or not A[0]:
        raise ValueError("empty matrix")
    ring = A[0][0].ring
    field = ring.field
    nrows, ncols = len(A), len(A[0])
    for row in A:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        for p in row:
            if p.ring != ring:
                raise ValueError("mixed rings in matrix")
    max_deg = max((p.total_degree() for row in A for p in row), default=0)
    if mode == "membership":
        if target is None or len(target) != nrows:
            raise ValueError("membership mode needs a target of length nrows")
        for p in target:
            if p.ring != ring:
                raise ValueError("target not in the matrix ring")
        max_deg = max(max_deg, max((p.total_degree() for p in target), default=0))
    if degree_bound < max_deg:
        raise ValueError(
            f"degree_bound {degree_bound} below max degree {max_deg} in the data"
        )

    mons, unknowns, index = _linearize_columns(ring, ncols, degree_bound)
    eq_index: dict[tuple, int] = {}
    eq_rows: list[dict] = []

    def eq_row(key: tuple) -> dict:
        if key not in eq_index:
            eq_index[key] = len(eq_rows)
            eq_rows.append({})
        return eq_rows[eq_index[key]]

    for i in range(nrows):
        for j in range(ncols):
            p = A[i][j]
            if p.is_zero():
                continue
            for m in mons:
                col = index[(j, m)]
                for exp, coef in p.terms.items():
                    prod = tuple(a + b for a, b in zip(exp, m))
                    row = eq_row((i, prod))
                    s = field.add(row.get(col, field.zero), coef)
                    if s:
                        row[col] = s
                    else:
                        row.pop(col, None)

    if mode == "kernel":
        vecs = kernel_basis(eq_rows, len(unknowns), field)
        out = []
        for vec in vecs:
            polys = []
            for j in range(ncols):
                terms = {}
                for (jj, m), i in index.items():
                    if jj == j and i in vec:
                        terms[m] = vec[i]
                polys.append(Poly(ring, terms))
            out.append(polys)
        return TruncatedSolveResult("kernel", degree_bound, "ok", vectors=out)

    # membership
    rhs_map: dict[int, object] = {}
    for i in range(nrows):
        for exp, coef in target[i].terms.items():
            key = (i, exp)
            row_idx = eq_index.get(key)
            if row_idx is None:
                eq_index[key] = len(eq_rows)
                eq_rows.append({})
                row_idx = eq_index[key]
            rhs_map[row_idx] = coef
    rhs = [rhs_map.get(i, field.zero) for i in range(len(eq_rows))]
    solution = solve_sparse(eq_rows, rhs, field)
    if solution is None:
        return TruncatedSolveResult(
            "membership", degree_bound, "inconclusive_at_bound"
        )
    witness = []
    for j in range(ncols):
        terms = {}
        for m in mons:
            i = index[(j, m)]
            if i < len(solution) and solution[i]:
                terms[m] = solution[i]
        witness.append(Poly(ring, terms))
    return TruncatedSolveResult("membership", degree_bound, "member", witness=witness)


def kernel_module_generators(
    A: Sequence[Sequence[Poly]], degree_bound: int
) -> list[list[Poly]]:
    """Module generators of the bounded kernel.

    The field-basis of the truncated kernel contains every monomial
    multiple of a low-degree syzygy; this filters to vectors that are
    not bounded-coefficient combinations of the vectors kept so far.
    For the shipped examples (two-entry rows) this recovers the single
    generating syzygy, e.g. ``(y, -x)`` for the row ``(x, y)``.
    """
    result = truncated_solve(A, "kernel", degree_bound=degree_bound)
    vectors = sorted(
        result.vectors,
        key=lambda v: sorted(
            (deglex_key(e) for p in v for e in p.terms), reverse=False
        ),
    )
    ring = A[0][0].ring
    field = ring.field

    def monic(vec: list[Poly]) -> list[Poly]:
        for p in vec:
            if not p.is_zero():
                lead = p.sorted_terms()[0][1]
                inv = field.inv(lead)
                return [q.scale(inv) for q in vec]
        return vec

    kept: list[list[Poly]] = []
    for v in vectors:
        if all(p.is_zero() for p in v):
            continue
        if kept:
            # Is v = sum_k c_k * kept_k with bounded coefficient degree?
            matrix = [[kept[k][i] for k in range(len(kept))] for i in range(len(v))]
            check = truncated_solve(matrix, "membership", target=v,
                                    degree_bound=degree_bound)
            if check.status == "member":
                continue
        kept.append(monic(v))
    return kept
