"""Exact coefficient arithmetic and truncated linear algebra.

Everything downstream runs on the primitives in this module: fields (the
rationals, or a prime field F_p with p < 2**31), multivariate polynomial
rings over such a field, sparse exact elimination, and bounded
membership: is a sparse vector of polynomials a combination of given
ones, with coefficients truncated at an explicit degree bound?  Many
such vectors are asked at once, as right-hand-side columns of one
elimination.

Conventions fixed here, relied on everywhere else:

* No floating point anywhere.  A rational coefficient is an ``int``
  when it is integral and a ``fractions.Fraction`` with denominator > 1
  otherwise (the normal form of ``Field``); prime-field coefficients are
  ints in ``range(p)``.
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
from itertools import repeat
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


def _rational(x):
    """The normal form of a rational ``x``: its int when it is integral."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class Field:
    """The rationals (``p is None``) or the prime field F_p.

    Elements are plain Python values.  Over the rationals an element is
    an ``int`` when it is integral and a ``Fraction`` with denominator > 1
    otherwise, the normal form that every method returns; ``of`` brings
    an int or Fraction into it.  Over F_p an element is an int in
    ``range(p)``.  The class only carries the arithmetic, so values stay
    cheap to hash and compare; ``Poly`` and ``row_reduce`` run their own
    per-field loops and return the same normal form.
    """

    __slots__ = ("p",)
    zero = 0
    one = 1

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
        if isinstance(n, int):
            return int(n) if self.p is None else n % self.p
        if not isinstance(n, Fraction):
            raise ValueError(f"not a field scalar: {type(n).__name__}")
        if self.p is None:
            return _rational(n)
        if n.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return n.numerator * pow(n.denominator, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return _rational(a + b) if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return _rational(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return a if a == 1 or a == -1 else _rational(1 / Fraction(a))
        return pow(a, self.p - 2, self.p)

    def format_scalar(self, a) -> str:
        """``n`` for an int, ``n/d`` for a Fraction."""
        return str(a)

    def to_json(self) -> dict:
        if self.p is None:
            return {"kind": "rationals"}
        return {"kind": "prime", "p": self.p}


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
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
            if not IDENT_RE.fullmatch(name):
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
    immutable; operations always build fresh term maps.  ``+``, ``*``
    and ``-`` keep coefficients in the normal form of ``Field`` with
    their own per-field arithmetic, not a ``Field`` call per term.
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
            and (self.ring is other.ring or self.ring == other.ring)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        ring = self.ring
        if other.ring is not ring:
            self._check_same_ring(other)
        p = ring.field.p
        terms = dict(self.terms)
        get = terms.get
        for exp, c in other.terms.items():
            if p is None:
                s = get(exp, 0) + c
                if s.__class__ is not int and s.denominator == 1:
                    s = s.numerator
            else:
                s = (get(exp, 0) + c) % p
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return Poly(ring, terms)

    def __neg__(self) -> "Poly":
        p = self.ring.field.p
        if p is None:
            return Poly(self.ring, {e: -c for e, c in self.terms.items()})
        return Poly(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        ring = self.ring
        if other.ring is not ring:
            self._check_same_ring(other)
        p = ring.field.p
        terms: dict = {}
        get = terms.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exp = tuple([a + b for a, b in zip(e1, e2)])
                if p is None:
                    s = get(exp, 0) + c1 * c2
                    if s.__class__ is not int and s.denominator == 1:
                        s = s.numerator
                else:
                    s = (get(exp, 0) + c1 * c2) % p
                if s:
                    terms[exp] = s
                else:
                    terms.pop(exp, None)
        return Poly(ring, terms)

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

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"


def add_term(terms: dict, key, coef: Poly) -> None:
    """Add ``coef`` at ``key`` of a sparse sum of ``Poly`` coefficients;
    like ``Poly`` itself, the sum never stores a zero."""
    s = terms.get(key)
    s = coef if s is None else s + coef
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


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


class InternalError(RuntimeError):
    """An invariant of the exact algebra failed: a bug, not bad input."""


def _cancel_rational(row: dict, pivot_row: dict, col: int, p: None) -> None:
    """row <- a*row - b*pivot_row over integer rows, in place, with a and b
    coprime and a > 0 and the content of the result divided out,
    cancelling ``col``; ``p`` is unused and keeps the signature of
    ``_cancel_prime``.  The row is scaled and divided entry by entry, so
    no dict is rebuilt; a row and its negative span alike, so a lead of
    -1 scales nothing."""
    a, b = pivot_row[col], row[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for c in row:
            row[c] *= a
    for c, val in pivot_row.items():
        s = row.get(c, 0) - b * val
        if s:
            row[c] = s
        else:
            del row[c]
    content = math.gcd(*row.values())
    if content > 1:
        for c in row:
            row[c] //= content


def _cancel_prime(row: dict, pivot_row: dict, col: int, p: int) -> None:
    """row <- row - row[col]*pivot_row mod p, in place, cancelling ``col``
    against a pivot row that leads with 1 there."""
    factor = row[col]
    for c, val in pivot_row.items():
        s = (row.get(c, 0) - factor * val) % p
        if s:
            row[c] = s
        else:
            del row[c]


# The probe's modulus over the rationals: the Mersenne prime 2^31 - 1.
_PROBE_PRIME = 2**31 - 1


class Echelon:
    """A row echelon form grown one row at a time; the one elimination
    engine of this module.

    ``rows`` span the rows added so far and ``pivots`` maps each pivot
    column, the least column of its row, to the row's index in ``rows``.
    Over F_p each row leads with 1; over the rationals each is an integer
    row (``int`` entries), eliminated fraction-free: each cancellation
    divides out the content of the row it leaves.  The pivot columns of
    an echelon form are fixed by the row space: column c is a pivot
    exactly when it is independent of the columns left of it.

    ``take(row)`` is the one reduction: it changes the row it is handed
    and may keep it as a pivot row, so it asks for a row that no one
    else reads, with ``int`` entries (in ``range(p)`` over F_p).
    ``insert(row)`` leaves its argument as it is and clears any
    ``Fraction``: it builds that fresh int row and takes it.  Both
    ``take`` and ``back_substitute`` run one in-place cancellation step
    per field, ``_cancel_rational`` or ``_cancel_prime``.
    """

    __slots__ = ("p", "rows", "pivots", "_cancel")

    def __init__(self, field: Field):
        self.p = field.p
        self.rows: list[dict] = []
        self.pivots: dict[int, int] = {}
        self._cancel = _cancel_rational if field.p is None else _cancel_prime

    def insert(self, row: dict) -> bool:
        """``take`` a fresh int copy of ``row``, which stays as it is."""
        if self.p is None:
            # Clear denominators; a row and its nonzero multiples span
            # alike.  An int entry is copied as it is; a Fraction gives up
            # its ratio in one as_integer_ratio() call, since numerator and
            # denominator are Python-level properties of Fraction.
            ints, den = {}, 1
            for c, v in row.items():
                if v.__class__ is int:
                    ints[c] = v
                else:
                    ints[c], d = v.as_integer_ratio()
                    den = math.lcm(den, d)
            row = ints if den == 1 else {c: int(v * den) for c, v in row.items()}
        else:
            row = dict(row)
        return self.take(row)

    def take(self, row: dict) -> bool:
        """Reduce ``row`` itself against the pivot rows and keep it when
        something is left; True when the row was independent of the rows
        so far.  The row must be the caller's to give: its entries are
        ints (in ``range(p)`` over F_p), and it is changed in place."""
        p, reduced, pivots, cancel = self.p, self.rows, self.pivots, self._cancel
        while row:
            lead = min(row)
            ridx = pivots.get(lead)
            if ridx is None:
                break
            cancel(row, reduced[ridx], lead, p)
        if not row:
            return False
        if p is not None:
            inv = pow(row[lead], -1, p)
            if inv != 1:
                for c in row:
                    row[c] = row[c] * inv % p
        pivots[lead] = len(reduced)
        reduced.append(row)
        return True

    def probe(self, rows: Sequence[dict], ncols: int, rng) -> bool:
        """True when a random kernel vector of the rows so far annihilates
        every row of ``rows``: a Freivalds check (Freivalds, 1977) that
        ``rows`` lie in their span, which inserts nothing.

        A row in the span annihilates every kernel vector.  A row outside
        it annihilates a kernel vector drawn uniformly over F_q with
        chance 1/q, since it is a nonzero functional on the kernel.  The
        vector is drawn over F_q on the columns from the least column of
        ``rows`` on, the only ones that those rows read: a value from
        ``rng.getrandbits`` at each column below ``ncols``, and then each
        pivot coordinate set by one back-substitution in decreasing lead,
        as a row holds no column left of its lead; only the free
        coordinates keep their draws.  Over F_p, q = p and the probe is
        repeated until p^r >= 2^31 - 1; over the rationals q is 2^31 - 1
        and the integer rows are read mod q, once.  False means "not
        shown", not "independent": a lead that q divides gives False too,
        and so does a sum whose denominator q divides; the caller then
        decides exactly.  Each row of ``rows`` is nonempty.
        """
        if not rows:
            return True
        p, reduced, pivots = self.p, self.rows, self.pivots
        q = p or _PROBE_PRIME
        bits = rng.getrandbits
        low = min(map(min, rows))
        leads = sorted(pivots, reverse=True)
        reach = 1
        while reach < _PROBE_PRIME:
            reach *= q
            x = [0] * low
            x += map(bits, repeat(31, ncols - low))
            for lead in leads:
                if lead < low:
                    break
                row = reduced[pivots[lead]]
                s = 0
                for c, v in row.items():
                    s += v * x[c]
                # s holds the lead's own draw times a: move x[lead] by -s/a.
                a = row[lead]
                if a == 1:
                    x[lead] = (x[lead] - s) % q
                elif a == -1:
                    x[lead] = (x[lead] + s) % q
                elif a % q:
                    x[lead] = (x[lead] - s * pow(a, -1, q)) % q
                else:
                    return False
            for row in rows:
                s = 0
                for c, v in row.items():
                    s += v * x[c]
                if s.__class__ is not int:  # a rational row: read its sum mod q
                    s, d = s.as_integer_ratio()
                    if not d % q:
                        return False
                if s % q:
                    return False
        return True

    def back_substitute(self) -> None:
        """Clear every pivot row in the other rows' pivot columns.

        One sweep over the pivot rows in decreasing pivot column.  A row
        is cleared only in the pivot columns it holds, each against a row
        the sweep has already reduced: that row is zero in every other
        pivot column, so clearing one pivot column never refills another.
        The pivots and the row order stay; the rows keep their form, so
        over the rationals they are integer rows, not yet divided by
        their leads.
        """
        p, reduced, pivots, cancel = self.p, self.rows, self.pivots, self._cancel
        for lead in sorted(pivots, reverse=True):
            row = reduced[pivots[lead]]
            for col in [c for c in row if c != lead and c in pivots]:
                cancel(row, reduced[pivots[col]], col, p)


def row_reduce(rows: list[dict], field: Field) -> tuple[list[dict], dict]:
    """Reduced row echelon form of sparse rows (dicts col -> coefficient).

    Returns (reduced nonzero rows, pivots) where pivots maps a pivot
    column to its row index in the returned list.  Deterministic: rows
    are processed in order, pivots chosen as the least column index.

    Every row is inserted into one ``Echelon``, which then back-substitutes;
    over the rationals each integer row is divided by its lead at the
    end, so entries are in the normal form of ``Field``.  The reduced
    form is unique and ``Echelon`` finds the same pivots in the same
    order, so the output equals that of inserting the rows one by one
    into a reduced form.
    """
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    ech.back_substitute()
    reduced, pivots = ech.rows, ech.pivots
    if field.p is None:
        for lead, ridx in pivots.items():
            row = reduced[ridx]
            d = row[lead]
            if d != 1:
                reduced[ridx] = {c: v // d if v % d == 0 else Fraction(v, d)
                                 for c, v in row.items()}
    return reduced, pivots


def kernel_basis(rows: list[dict], ncols: int, field: Field) -> list[dict]:
    """Basis of the right kernel of a sparse matrix, deterministic.

    Each basis vector is a dict col -> coefficient, normalised so its
    free coordinate equals 1; vectors are ordered by free column index,
    and within a vector the pivot coordinates follow the pivot order.
    """
    reduced, pivots = row_reduce(rows, field)
    p = field.p
    # In reduced form every non-pivot entry of a row sits in a free
    # column, so one pass over the rows collects each free column's
    # pivot coordinates.
    entries: dict[int, list] = {}
    for pivot_col, ridx in pivots.items():
        for col, val in reduced[ridx].items():
            if col != pivot_col:
                entries.setdefault(col, []).append(
                    (pivot_col, -val if p is None else -val % p))
    basis: list[dict] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: field.one}
        vec.update(entries.get(free, ()))
        basis.append(vec)
    return basis


def _read_solutions(
    reduced: list[dict], pivots: dict, nvars: int, nrhs: int
) -> list[Optional[dict]]:
    """Each right-hand side's solution, read off one reduced [A | B].

    Columns below ``nvars`` are the unknowns and column nvars + k holds
    right-hand side k.  With the free unknowns pinned to zero, a row
    leading at an unknown reads x_lead = its entry in column nvars + k.
    A row leading past the unknowns reads 0 = its entries there, so every
    right-hand side it holds is inconsistent (None); that column need not
    be a pivot itself, since b_k can lie in the span of A and an earlier
    b_i.  A solution maps each nonzero unknown to its value.
    """
    solutions: list[Optional[dict]] = [{} for _ in range(nrhs)]
    for lead, ridx in pivots.items():
        for col, val in reduced[ridx].items():
            if col < nvars:
                continue
            k = col - nvars
            if lead >= nvars:
                solutions[k] = None
            elif solutions[k] is not None:
                solutions[k][lead] = val
    return solutions


def solve_sparse(
    rows: list[dict], rhs: list, field: Field
) -> Optional[list]:
    """One solution of rows * x = rhs, or None when inconsistent.

    Free variables are set to zero, so the solution is deterministic.
    The rhs travels as a virtual column with index above every real one,
    so it never becomes a pivot unless the system is inconsistent.
    """
    sentinel = max((max(r) for r in rows if r), default=0) + 1
    # The elimination copies every row it keeps, so a row without a rhs
    # entry goes in as given.
    augmented = [{**row, sentinel: b} if b else row for row, b in zip(rows, rhs)]
    reduced, pivots = row_reduce(augmented, field)
    (values,) = _read_solutions(reduced, pivots, sentinel, 1)
    if values is None:
        return None  # some row reduced to 0 = nonzero
    solution = [field.zero] * sentinel
    for col, val in values.items():
        solution[col] = val
    # Certify on the rows as given, so a solver fault cannot be reported
    # as a witness.
    p = field.p
    for i, (row, b) in enumerate(zip(rows, rhs)):
        residual = sum([v * solution[c] for c, v in row.items()]) - b
        if residual if p is None else residual % p:
            raise InternalError(f"solve_sparse: solution fails equation {i}")
    return solution


# ---------------------------------------------------------------------------
# Bounded membership over sparse polynomial vectors
# ---------------------------------------------------------------------------


class CellIndex:
    """Integer cells of a polynomial map on a monomial-shifted basis.

    A column is a generator, its label, times a monomial of ``mons``; a
    row is a coordinate, its row word, times an exponent.  Labels and row
    words share one numbering, made the first time each is seen
    (``number``), so a column's own cell, its label read as a row word at
    its monomial, has a row key too (``row_keys``).  Column k of label i
    is the int i * len(mons) + k.  A row key is the int i * stride + x,
    where x is the exponent's place in a list that starts with ``mons``
    and goes on with every other sum of an image exponent and a monomial.
    ``read_images`` fixes that list before any row key is made, and its
    length is the stride, so the packing is injective whatever the sizes.
    It also sets ``integral``: whether every image scalar is an ``int``,
    so that every row ``linear_rows`` builds from the images is one that
    ``Echelon.take`` accepts.
    """

    __slots__ = ("mons", "n", "labels", "_ids", "exps", "stride", "images", "integral")

    def __init__(self, mons: Sequence[tuple]):
        self.mons, self.n = list(mons), len(mons)
        self.labels: list = []
        self._ids: dict = {}
        self.exps: dict[tuple, int] = {}
        self.stride = 0
        self.images: list = []
        self.integral = True

    def number(self, label) -> int:
        """The number of ``label``, given the first time it is seen."""
        i = self._ids.get(label)
        if i is None:
            i = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return i

    def read_images(self, image_of) -> None:
        """Read the image of every label numbered so far, once, and fix
        the exponent list and the stride.

        ``image_of(label)`` gives (row word, exponent, scalar) terms, each
        (row word, exponent) at most once.  Each image is kept as
        (row word * stride, sums, scalar) triples, where sums[k] is the
        place of the exponent plus ``mons[k]``: one table row per
        distinct image exponent.  Scalars are kept as they are, in the
        normal form of ``Field``, and ``integral`` records whether each of
        them is an ``int``: always over F_p, and over the rationals when no
        scalar is a ``Fraction``.
        """
        read = [image_of(g) for g in self.labels]
        exps = {e: k for k, e in enumerate(self.mons)}
        sums: dict[tuple, list] = {}
        integral = True
        for image in read:
            for _, e, c in image:
                if c.__class__ is not int:
                    integral = False
                if e not in sums:
                    sums[e] = [exps.setdefault(tuple([a + b for a, b in zip(e, m)]), len(exps))
                               for m in self.mons]
        self.exps, self.stride, self.integral = exps, len(exps), integral
        number, stride = self.number, len(exps)
        self.images = [[(number(w) * stride, sums[e], c) for w, e, c in image]
                       for image in read]

    def row_key(self, word, exp: tuple) -> Optional[int]:
        """The row key of (word, exp), or None when no image can reach it."""
        i, x = self._ids.get(word), self.exps.get(exp)
        return None if i is None or x is None else i * self.stride + x

    def row_keys(self, columns: Sequence[int]) -> list[int]:
        """The row key of each column's own cell."""
        n, shift = self.n, self.stride - self.n
        return [c + c // n * shift for c in columns]

    def decode(self, columns: Sequence[int]) -> list[tuple]:
        """(label, monomial) of each column."""
        labels, mons, n = self.labels, self.mons, self.n
        return [(labels[c // n], mons[c % n]) for c in columns]


def linear_rows(columns: Sequence[int], cells: CellIndex) -> dict:
    """Field equations of a polynomial map on a monomial-shifted basis.

    ``columns`` lists columns of ``cells``, each a generator times a
    monomial, whose images ``cells.read_images`` has read.  The result
    maps the row key of each cell that an image reaches to its row, a
    dict column index -> coefficient, in order of first use.  Within a
    column every term hits its own row, so each cell is written once.  A
    term's row key is its row word's offset plus one read of its
    exponent-sum table.
    """
    n, images = cells.n, cells.images
    rows: dict[int, dict] = {}
    for j, cell in enumerate(columns):
        label, k = divmod(cell, n)
        for base, sums, coef in images[label]:
            key = base + sums[k]
            row = rows.get(key)
            if row is None:
                rows[key] = {j: coef}
            else:
                row[j] = coef
    return rows


@dataclass
class TruncatedSolveResult:
    bound: int                     # the degree bound actually used
    status: str                    # "member" | "inconclusive_at_bound"
    witness: Optional[list] = None  # a member's Poly coefficient per column


def data_degree(vectors: Iterable[dict]) -> int:
    """Largest total degree of an entry of sparse ``Poly`` vectors; -1 for none."""
    return max([-1] + [p.total_degree() for vec in vectors for p in vec.values()])


def membership_bound(degree_bound: int, column_degree: int, target: dict) -> int:
    """The degree bound a membership question runs at: the requested
    bound, raised to the columns' ``data_degree`` and the target's."""
    return max(degree_bound, column_degree, data_degree([target]))


def bounded_members(
    ring: PolyRing, columns: Sequence[dict], targets: Sequence[dict], bound: int
) -> list[TruncatedSolveResult]:
    """Bounded membership of each target in the span of fixed columns,
    all from one elimination.

    ``columns`` and ``targets`` map coordinates to ``Poly`` entries over
    ``ring``.  The unknowns are the coefficients of ``Poly`` multipliers
    of degree at most ``bound``, one per (column j, monomial ``mons[k]``)
    at index j * len(mons) + k, the cell of label j in a ``CellIndex``
    that numbers the columns first; the equations are those of
    ``linear_rows``, one per (coordinate, monomial), and a target term
    finds its row by ``CellIndex.row_key``.  Each target becomes
    one more column on the equation rows its terms touch, after every
    unknown, and [A | B] is reduced once (Golub and Van Loan, *Matrix
    Computations*, sec. 3.2: one factorisation, many right-hand sides).
    The reduced form of A is unique and free unknowns stay zero, so each
    answer equals the one-target answer.  A target with a term that no
    equation reaches is ``inconclusive_at_bound`` and gets no column.  A
    member carries its multipliers as ``witness``, re-checked against the
    columns as ``Poly`` vectors; a miss is ``inconclusive_at_bound``.
    """
    mons = monomials_upto(ring.nvars, bound)
    cells = CellIndex(mons)
    for j in range(len(columns)):
        cells.number(j)
    cells.read_images(lambda j: [(c, exp, coef) for c, p in columns[j].items()
                                 for exp, coef in p.terms.items()])
    nvars = len(columns) * len(mons)
    eqs = linear_rows(range(nvars), cells)
    results = [TruncatedSolveResult(bound, "inconclusive_at_bound") for _ in targets]
    asked = []  # indices of the targets that get a column, in column order
    for i, target in enumerate(targets):
        terms = [(cells.row_key(coord, exp), b) for coord, poly in target.items()
                 for exp, b in poly.terms.items()]
        if all(key in eqs for key, _ in terms):
            # The rows are fresh, so they take the column in place.
            for key, b in terms:
                eqs[key][nvars + len(asked)] = b
            asked.append(i)
    reduced, pivots = row_reduce(list(eqs.values()), ring.field)
    del eqs
    for i, values in zip(asked, _read_solutions(reduced, pivots, nvars, len(asked))):
        if values is None:
            continue
        coefs: list[dict] = [{} for _ in columns]
        for lead in sorted(values):
            j, k = divmod(lead, len(mons))
            coefs[j][mons[k]] = values[lead]
        witness = [Poly(ring, terms) for terms in coefs]
        # Certify on the columns as given, so a fault in the reduction
        # cannot be reported as a witness.
        rebuilt: dict = {}
        for w, column in zip(witness, columns):
            if w.terms:
                for coord, entry in column.items():
                    add_term(rebuilt, coord, w * entry)
        if rebuilt != {c: poly for c, poly in targets[i].items() if poly.terms}:
            raise InternalError(
                "bounded membership: the witness fails the target's equations"
            )
        results[i] = TruncatedSolveResult(bound, "member", witness)
    return results


def truncated_solve(
    ring: PolyRing, columns: Sequence[dict], target: dict, degree_bound: int
) -> TruncatedSolveResult:
    """Bounded membership of a sparse polynomial vector in a column span.

    ``columns`` and ``target`` map coordinates to ``Poly`` entries over
    ``ring``.  Decide whether ``target`` is a sum of the columns with
    ``Poly`` coefficients of degree at most the bound, which is first
    raised to the largest degree in the data (``membership_bound``).  A
    member carries its coefficients as ``witness``; a bounded miss is
    ``inconclusive_at_bound`` (a higher-degree witness may exist), never
    a bare "no".  ``bounded_members`` with one target; a caller with many
    targets at one bound asks them together.
    """
    bound = membership_bound(degree_bound, data_degree(columns), target)
    return bounded_members(ring, columns, [target], bound)[0]
