"""Finite product tables with one ternary level, twisted complexes over
them, and the mechanical half-twist verification.

An ``AInfTable`` is a finite set of basis morphisms between named
objects together with structure constants for a differential (mu1), a
binary product (mu2), and a ternary product (mu3), all valued in a
polynomial ring.  ``AInfTable.mu_of`` is the one structure-constant
lookup: it takes a composable chain of basis names and dispatches on
its length, and a chain longer than ``TOP_ARITY`` has none (every
shipped table has mu4 and higher identically zero).

``ainf_check`` verifies the A-infinity relations sign-free up to arity
4.  For each composable chain x_k..x_1 it forms one relation sum: over
every block x_{i+j}..x_{i+1} of j consecutive arguments, each term g of
the inner product of the block is put in the block's place, and the
outer product of the shortened chain is added in.  Terms whose inner or
outer arity exceeds ``TOP_ARITY`` are zero and are not formed.

``TwComplex`` / ``TwMorphism`` implement one-sided twisted complexes:
formal shifted sums of table objects with a strictly triangular
degree-1 connection ``delta``, and matrices of table morphisms between
them.  ``mu_tw`` composes k morphisms by one insertion sum: a power of
the connection of each complex along the way is inserted before,
between and after the k morphisms, and the table product is applied
entrywise to every resulting chain of total arity at most
``TOP_ARITY``, i.e. to all paths through the stacked diagram (Seidel,
*Fukaya Categories and Picard-Lefschetz Theory*, §3k-3l).  With no
morphism the same sum is mu1(delta) + mu2(delta, delta) +
mu3(delta, delta, delta), which a connection must annihilate.

``halftwist_tables`` returns the curated morphism table around the
half-twisted arc: the four objects are the twisting arc (L0), its two
neighbours (L1, Ln), and the twist image (W), and the ternary entries
depend on a ``wrapping`` choice ("left" or "right") that decides which
side of the twisting arc carries the extra chord.  Only the n >= 2
regime is supported; the two small cases have different pictures and
are out of scope.  ``verify_halftwist`` then checks, over GF(2), that
the twist image is homotopy-equivalent to the two-term complex
(L1 (+) Ln -> L0) via the exhibited pair of closed morphisms, under
both wrappings.

Everything here is sign-free and therefore requires characteristic 2
as soon as a differential, a ternary product, or a connection is in
play; the tables make all verification identities hold on the nose
because the would-be signs enter squared.

Shift bookkeeping: a table morphism f occupying slot (X, s) of the
source and (Y, t) of the target contributes total degree
deg(f) + s - t.  The two-term complex places the twisting arc's slot
in shift -1 so that the comparison morphism with a degree-1 entry is a
closed degree-0 morphism of complexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import product
from operator import mul
from typing import Optional, Sequence

from .exactalg import Field, Poly, PolyRing, add_term

# The tables carry mu1, mu2 and mu3; every higher product is zero.
TOP_ARITY = 3


@dataclass(frozen=True)
class BasisMorphism:
    name: str
    source: str
    target: str
    degree: int


class MissingProduct(KeyError):
    """A window table does not define this product (out of range)."""


class AInfTable:
    """Basis morphisms + structure constants for mu1, mu2, mu3.

    ``mu2`` maps (f, g) -> list of (Poly, name) for the product f*g
    with g acting first.  A pair that is composable but absent means
    the product is undefined (allowed only when ``total=False``; used
    by window truncations of infinite algebras).  ``mu3`` keys are
    (h, g, f) with f acting first; absent means zero.  Identity
    morphisms act strictly: they multiply as units and never appear in
    a nonzero mu1 or mu3 entry.

    Construction checks the entries on one walk over (chain, pairs) for
    mu1, mu2 and mu3 alike, the way ``mu_of`` reads a chain: the chain
    is composable, each result runs from the source of the first-acting
    argument to the target of the last-acting one in degree
    sum(deg) + 2 - k, its coefficient lies in ``ring``, and identities
    act strictly.  An unknown morphism name anywhere, or a morphism with
    an end outside ``objects``, is a ValueError.
    """

    def __init__(
        self,
        ring: PolyRing,
        objects: Sequence[str],
        morphisms: Sequence[BasisMorphism],
        identities: dict,
        mu1: Optional[dict] = None,
        mu2: Optional[dict] = None,
        mu3: Optional[dict] = None,
        total: bool = True,
    ):
        self.ring = ring
        self.objects = tuple(objects)
        self.morphisms = {m.name: m for m in morphisms}
        if len(self.morphisms) != len(morphisms):
            raise ValueError("duplicate morphism names")
        for m in morphisms:
            if m.source not in self.objects or m.target not in self.objects:
                raise ValueError(
                    f"morphism {m.name} runs {m.source} -> {m.target}, "
                    f"outside the objects {', '.join(self.objects)}"
                )
        self.identities = dict(identities)
        self.identity_names = frozenset(self.identities.values())
        self.total = total
        for obj, name in self.identities.items():
            m = self._morphism(name)
            if m.source != obj or m.target != obj or m.degree != 0:
                raise ValueError(f"identity of {obj} must be a degree-0 loop")
        self.mu1 = {k: tuple(v) for k, v in (mu1 or {}).items()}
        self.mu2 = {tuple(k): tuple(v) for k, v in (mu2 or {}).items()}
        self.mu3 = {tuple(k): tuple(v) for k, v in (mu3 or {}).items()}
        self._validate()

    # -- validation -----------------------------------------------------------

    def _morphism(self, name: str) -> BasisMorphism:
        try:
            return self.morphisms[name]
        except KeyError:
            raise ValueError(f"unknown morphism {name!r}") from None

    def _validate(self) -> None:
        id_names = self.identity_names
        mu1 = {(name,): pairs for name, pairs in self.mu1.items()}
        for k, level in enumerate((mu1, self.mu2, self.mu3), 1):
            for chain, pairs in level.items():
                what = f"mu{k}({', '.join(chain)})"
                if len(chain) != k:
                    raise ValueError(f"{what} must name {k} morphisms")
                args = [self._morphism(name) for name in chain]
                if any(x.source != y.target for x, y in zip(args, args[1:])):
                    raise ValueError(f"{what} is not composable")
                if id_names.intersection(chain) and (k == 2 or pairs):
                    raise ValueError(
                        f"{what} has an identity argument: identities are "
                        "strict units, so mu2 on one is implicit and mu1, mu3 vanish"
                    )
                ends = (args[-1].source, args[0].target)
                degree = sum(m.degree for m in args) + 2 - k
                for coef, gname in pairs:
                    g = self._morphism(gname)
                    if (g.source, g.target) != ends:
                        raise ValueError(f"{what} -> {gname} changes endpoints")
                    if g.degree != degree:
                        raise ValueError(f"{what} -> {gname} is not of degree {degree}")
                    if coef.ring != self.ring:
                        raise ValueError("structure constant outside the table's ring")
        if self.total:
            for xn, x in self.morphisms.items():
                for yn, y in self.morphisms.items():
                    if xn in id_names or yn in id_names:
                        continue
                    if x.source == y.target and (xn, yn) not in self.mu2:
                        raise ValueError(
                            f"total table is missing the product ({xn}, {yn})"
                        )

    # -- lookups --------------------------------------------------------------

    def composable(self, xn: str, yn: str) -> bool:
        """Whether x can act after y."""
        return self.morphisms[xn].source == self.morphisms[yn].target

    def mu_of(self, chain: tuple):
        """Structure pairs (Poly, name) of mu_k on a composable chain of
        k basis names, last-acting first: mu1, mu2 or mu3 by length, and
        none above ``TOP_ARITY``.  Identities multiply as strict units
        (validation keeps them out of mu1 and mu3); a product a partial
        table leaves undefined raises MissingProduct."""
        if len(chain) == 1:
            return self.mu1.get(chain[0], ())
        if len(chain) == 3:
            return self.mu3.get(chain, ())
        if len(chain) != 2:
            return ()
        xn, yn = chain
        if xn in self.identity_names:
            return ((self.ring.one(), yn),)
        if yn in self.identity_names:
            return ((self.ring.one(), xn),)
        try:
            return self.mu2[chain]
        except KeyError:
            raise MissingProduct(chain) from None


@dataclass
class AInfReport:
    ok: bool
    checked: dict
    skipped: int
    violations: list  # (arity, arg names, residual element as text)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": dict(self.checked),
            "skipped": self.skipped,
            "violations": [
                {"arity": a, "args": list(args), "residual": res}
                for a, args, res in self.violations
            ],
        }


def _element_text(el: dict) -> str:
    if not el:
        return "0"
    parts = []
    for name in sorted(el):
        ctext = el[name].to_text()
        parts.append(name if ctext == "1" else f"({ctext})*{name}")
    return " + ".join(parts)


def ainf_check(table: AInfTable, max_arity: int) -> AInfReport:
    """Verify the sign-free A-infinity relations on every composable
    chain, through ``max_arity`` inputs (at most 4; the tables carry no
    mu4, so arity 4 is the last one with content).

    Chains whose relation sum needs a product a partial table leaves
    undefined are skipped and counted, never treated as zero.

    The relations are summed without signs, so the check is only
    meaningful (and only allowed) in characteristic 2; over any other
    field even plain associativity would be reported as a residual of
    twice the product.
    """
    if max_arity > TOP_ARITY + 1:
        raise ValueError("tables carry mu1..mu3 only; arity must be <= 4")
    if table.ring.field.characteristic != 2:
        raise ValueError("sign-free verification needs characteristic 2")
    names = sorted(table.morphisms)
    violations = []
    skipped = 0
    checked = {k: 0 for k in range(1, TOP_ARITY + 2)}
    memo: dict = {}

    def lookup(chain):
        pairs = memo.get(chain)
        if pairs is None:
            pairs = memo[chain] = table.mu_of(chain)
        return pairs

    chains = [()]
    for k in range(1, max_arity + 1):
        # The composable k-tuples, last-acting first, grown from level k - 1.
        chains = [
            (n,) + tail for tail in chains for n in names
            if not tail or table.composable(n, tail[0])
        ]
        # (i, j): the inner product takes chain[i:i + j]
        blocks = [
            (i, j)
            for j in range(1, min(k, TOP_ARITY) + 1)
            for i in range(k - j + 1)
            if k - j + 1 <= TOP_ARITY
        ]
        for chain in chains:
            checked[k] += 1
            acc: dict = {}
            try:
                for i, j in blocks:
                    for c, g in lookup(chain[i:i + j]):
                        for d, h in lookup(chain[:i] + (g,) + chain[i + j:]):
                            add_term(acc, h, c * d)
            except MissingProduct:
                skipped += 1
                continue
            if acc:
                violations.append((k, chain, _element_text(acc)))
    return AInfReport(not violations, checked, skipped, violations)


# ---------------------------------------------------------------------------
# Twisted complexes
# ---------------------------------------------------------------------------


class TwComplex:
    """Formal direct sum of shifted table objects with a strictly
    triangular connection of total degree 1 (entries flow from lower
    slot index to strictly higher)."""

    def __init__(self, table: AInfTable, slots: Sequence, delta: dict):
        self.table = table
        self.slots = tuple((obj, int(shift)) for obj, shift in slots)
        for obj, _ in self.slots:
            if obj not in table.objects:
                raise ValueError(f"unknown object {obj!r}")
        for row, col in delta:
            if col >= row:
                raise ValueError(
                    "connection must be strictly triangular (col < row)"
                )
        self.delta = TwMorphism(self, self, 1, delta).entries
        if self.delta and table.ring.field.characteristic != 2:
            raise ValueError(
                "twisted complexes with a nonzero connection are sign-free "
                "and need characteristic 2"
            )
        curvature = _insertion_sum(table, [self.delta], [])
        if curvature:
            raise ValueError(
                "connection fails the flatness identity: "
                f"{_matrix_text(curvature)}"
            )

    def identity(self) -> "TwMorphism":
        entries = {}
        for i, (obj, _) in enumerate(self.slots):
            if obj not in self.table.identities:
                raise ValueError(f"object {obj} has no identity in the table")
            entries[(i, i)] = {
                self.table.identities[obj]: self.table.ring.one()
            }
        return TwMorphism(self, self, 0, entries)


class TwMorphism:
    """Matrix of table morphisms between two twisted complexes, of one
    uniform total degree.  ``entries`` stores no zero coefficient and
    no empty entry, so equal morphisms have equal ``entries``."""

    def __init__(
        self,
        source: TwComplex,
        target: TwComplex,
        degree: int,
        entries: dict,
    ):
        if source.table is not target.table:
            raise ValueError("morphism endpoints live over different tables")
        self.source = source
        self.target = target
        self.degree = degree
        for (row, col), el in entries.items():
            if not (0 <= row < len(target.slots) and 0 <= col < len(source.slots)):
                raise ValueError(f"entry at ({row},{col}) is outside the slot range")
            src_obj, src_shift = source.slots[col]
            tgt_obj, tgt_shift = target.slots[row]
            for name in el:
                m = source.table._morphism(name)
                if m.source != src_obj or m.target != tgt_obj:
                    raise ValueError(
                        f"entry {name} does not map slot {col} ({src_obj}) to "
                        f"slot {row} ({tgt_obj})"
                    )
                total = m.degree + src_shift - tgt_shift
                if total != degree:
                    raise ValueError(
                        f"entry {name} at ({row},{col}) has total degree "
                        f"{total}, expected {degree}"
                    )
        kept = {k: {name: c for name, c in el.items() if not c.is_zero()}
                for k, el in entries.items()}
        self.entries = {k: el for k, el in kept.items() if el}

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "TwMorphism") -> "TwMorphism":
        if (
            self.source is not other.source
            or self.target is not other.target
            or self.degree != other.degree
        ):
            raise ValueError("can only add morphisms of the same type")
        acc = {k: dict(v) for k, v in self.entries.items()}
        _matrix_accumulate(acc, other.entries)
        return TwMorphism(self.source, self.target, self.degree, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwMorphism):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.entries == other.entries
        )

    def to_text(self) -> str:
        return _matrix_text(self.entries)


def _matrix_accumulate(into: dict, other: dict) -> None:
    for key, el in other.items():
        target = into.setdefault(key, {})
        for name, coef in el.items():
            add_term(target, name, coef)
    for key in [k for k, el in into.items() if not el]:
        del into[key]


def _matrix_text(mat: dict) -> str:
    parts = [f"({r},{c}): {_element_text(mat[(r, c)])}" for r, c in sorted(mat)]
    return "; ".join(parts) if parts else "0"


def matrix_mu(table: AInfTable, mats: Sequence[dict]) -> dict:
    """Apply mu_k entrywise to a chain of matrices, ``mats`` listed
    last-acting first, matching the mu argument order.  One sum over the
    paths of (slot, basis name) through the matrices whose names compose:
    each path adds ``mu_of`` of its names, times the product of its
    coefficients, into the entry (last slot, first slot)."""
    # (first slot, last slot, names last-acting first, coefficients)
    paths = [
        (col, row, (name,), (coef,))
        for (row, col), el in mats[-1].items()
        for name, coef in el.items()
    ]
    for mat in reversed(mats[:-1]):
        paths = [
            (first, row, (name,) + names, (coef,) + coefs)
            for first, last, names, coefs in paths
            for (row, col), el in mat.items()
            if col == last
            for name, coef in el.items()
            if table.composable(name, names[0])
        ]
    out: dict = {}
    for first, last, names, coefs in paths:
        pairs = table.mu_of(names)
        if pairs:
            coef = reduce(mul, coefs)
            target = out.setdefault((last, first), {})
            for scoef, gname in pairs:
                add_term(target, gname, coef * scoef)
    return {key: el for key, el in out.items() if el}


def _insertion_sum(
    table: AInfTable, deltas: Sequence[dict], mats: Sequence[dict]
) -> dict:
    """Sum of ``matrix_mu`` over every chain that puts a power of
    deltas[0] before mats[0], of deltas[i] between mats[i - 1] and
    mats[i], and of deltas[-1] after the last matrix, with total arity
    1..TOP_ARITY.  Both lists are last-acting first; ``deltas`` has one
    entry more than ``mats``.  A chain holding an empty matrix gives
    zero, so it is skipped."""
    acc: dict = {}
    for powers in product(range(TOP_ARITY + 1), repeat=len(deltas)):
        if not 1 <= len(mats) + sum(powers) <= TOP_ARITY:
            continue
        chain = [deltas[0]] * powers[0]
        for mat, delta, power in zip(mats, deltas[1:], powers[1:]):
            chain += [mat] + [delta] * power
        if all(chain):
            _matrix_accumulate(acc, matrix_mu(table, chain))
    return acc


def mu_tw(k: int, fs: Sequence[TwMorphism]) -> TwMorphism:
    """Composition on twisted complexes: the table's mu summed over every
    insertion of the connections before, between and after the k
    morphisms (all paths through the stacked diagram).  ``fs`` are
    listed last-acting first; the result has degree
    sum(deg) - k + 2."""
    if not 1 <= k == len(fs):
        raise ValueError(f"mu_tw({k}) needs k >= 1 and k morphisms, got {len(fs)}")
    for later, earlier in zip(fs, fs[1:]):
        if earlier.target is not later.source:
            raise ValueError("morphisms are not composable")
    deltas = [fs[0].target.delta] + [f.source.delta for f in fs]
    entries = _insertion_sum(
        fs[0].source.table, deltas, [f.entries for f in fs]
    )
    degree = sum(f.degree for f in fs) - k + 2
    return TwMorphism(fs[-1].source, fs[0].target, degree, entries)


# ---------------------------------------------------------------------------
# The curated half-twist tables
# ---------------------------------------------------------------------------

# Binary products independent of the wrapping: (x, y) -> list of
# (coefficient text, result), y acting first.  "t0"/"tn" refer to the
# first and last ring variables.
_MU2_COMMON = {
    ("a0", "b0"): [("t0", "e1")],
    ("b0", "a0"): [("t0", "e0")],
    ("an", "bn"): [("tn", "e0")],
    ("bn", "an"): [("tn", "en")],
    ("a0", "an"): [("1", "cn")],
    ("bn", "b0"): [("1", "c1")],
    ("an", "c1"): [("tn", "b0")],
    ("c1", "a0"): [("t0", "bn")],
    ("b0", "cn"): [("t0", "an")],
    ("cn", "bn"): [("tn", "a0")],
    ("c1", "cn"): [("t0*tn", "en")],
    ("cn", "c1"): [("t0*tn", "e1")],
    ("alpha_prime", "alpha"): [("1", "a0")],
    ("beta_prime", "beta"): [("1", "bn")],
    ("beta", "b0"): [("1", "g1")],
    ("alpha", "an"): [("1", "gn")],
    ("alpha_prime", "g1"): [("tn", "e1")],
    ("beta_prime", "g1"): [("1", "c1")],
    ("alpha_prime", "gn"): [("1", "cn")],
    ("beta_prime", "gn"): [("t0", "en")],
    ("pbar", "g1"): [("tn", "b0")],
    ("pbar", "gn"): [("t0", "an")],
    ("gn", "c1"): [("t0", "g1")],
    ("g1", "cn"): [("tn", "gn")],
    ("g1", "a0"): [("tn", "alpha"), ("t0", "beta")],
    ("gn", "bn"): [("tn", "alpha"), ("t0", "beta")],
    ("b0", "alpha_prime"): [("1", "pbar")],
    ("an", "beta_prime"): [("1", "pbar")],
    ("c1", "alpha_prime"): [("tn", "beta_prime")],
    ("cn", "beta_prime"): [("t0", "alpha_prime")],
    ("a0", "pbar"): [("t0", "alpha_prime")],
    ("bn", "pbar"): [("tn", "beta_prime")],
    ("g1", "alpha_prime"): [("tn", "eW")],
    ("gn", "beta_prime"): [("t0", "eW")],
    # Composable pairs that vanish because the receiving space has no
    # part in the required degree.
    ("alpha_prime", "beta"): [],
    ("alpha_prime", "p"): [],
    ("beta_prime", "alpha"): [],
    ("beta_prime", "p"): [],
    ("pbar", "p"): [],
    ("p", "pbar"): [],
    ("alpha", "b0"): [],
    ("beta", "an"): [],
    ("p", "b0"): [],
    ("p", "an"): [],
}

# The four products that see the wrapping.
_MU2_WRAPPED = {
    "left": {
        ("pbar", "alpha"): [],
        ("pbar", "beta"): [("tn", "e0")],
        ("alpha", "pbar"): [("t0", "eW")],
        ("beta", "pbar"): [],
    },
    "right": {
        ("pbar", "alpha"): [("t0", "e0")],
        ("pbar", "beta"): [],
        ("alpha", "pbar"): [],
        ("beta", "pbar"): [("tn", "eW")],
    },
}

# Ternary products: (z, y, x, result, wrapping tag), coefficient 1.
_MU3 = [
    ("alpha_prime", "p", "b0", "e1", "both"),
    ("beta_prime", "p", "an", "en", "both"),
    ("b0", "alpha_prime", "p", "e0", "left"),
    ("an", "beta_prime", "p", "e0", "right"),
    ("p", "b0", "alpha_prime", "eW", "left"),
    ("p", "an", "beta_prime", "eW", "right"),
    ("c1", "alpha_prime", "p", "bn", "both"),
    ("cn", "beta_prime", "p", "a0", "both"),
    ("g1", "alpha_prime", "p", "beta", "both"),
    ("gn", "beta_prime", "p", "alpha", "both"),
    ("p", "b0", "a0", "alpha", "both"),
    ("p", "an", "bn", "beta", "both"),
    ("p", "b0", "cn", "gn", "both"),
    ("p", "an", "c1", "g1", "both"),
    ("pbar", "p", "b0", "b0", "right"),
    ("pbar", "p", "an", "an", "left"),
    ("pbar", "p", "pbar", "pbar", "both"),
    ("alpha_prime", "p", "pbar", "alpha_prime", "right"),
    ("beta_prime", "p", "pbar", "beta_prime", "left"),
    ("p", "pbar", "alpha", "alpha", "right"),
    ("p", "pbar", "beta", "beta", "left"),
    ("p", "pbar", "g1", "g1", "left"),
    ("p", "pbar", "gn", "gn", "right"),
    ("alpha", "pbar", "p", "alpha", "left"),
    ("beta", "pbar", "p", "beta", "right"),
    ("a0", "pbar", "p", "a0", "left"),
    ("bn", "pbar", "p", "bn", "right"),
]

WRAPPINGS = ("left", "right")

HALFTWIST_MIN_N = 2
HALFTWIST_UNSUPPORTED = (
    f"the uniform tables need n >= {HALFTWIST_MIN_N}; the two small cases "
    "have different pictures and are not supported"
)


def halftwist_tables(n: int, wrapping: str) -> AInfTable:
    """The morphism table around the half-twisted arc, over GF(2).

    Objects: the twisting arc L0, its neighbours L1 and Ln, and the
    twist image W.  Morphism names follow the chord roles: a0/b0 and
    an/bn are the short chords between L0 and its neighbours, c1/cn the
    two-step chords between the neighbours, alpha/beta/p run from L0 to
    W (p in degree 1), alpha_prime/beta_prime from W to the neighbours,
    g1/gn from the neighbours to W, pbar from W back to L0.  The
    ``wrapping`` choice ("left"/"right") fixes which side of the
    twisting arc the comparison chords wrap around; it moves a handful
    of entries but never the verification verdict.
    """
    if n < HALFTWIST_MIN_N:
        raise ValueError(HALFTWIST_UNSUPPORTED)
    if wrapping not in WRAPPINGS:
        raise ValueError(f"wrapping must be one of {WRAPPINGS}")
    ring = PolyRing(Field.prime(2), tuple(f"t{i}" for i in range(n + 1)))
    t0 = ring.gen("t0")
    tn = ring.gen(f"t{n}")

    def coef(text: str) -> Poly:
        return {"1": ring.one(), "t0": t0, "tn": tn, "t0*tn": t0 * tn}[text]

    L0, L1, Ln, W = "L0", "L1", "Ln", "W"
    morphisms = [
        BasisMorphism("e0", L0, L0, 0),
        BasisMorphism("e1", L1, L1, 0),
        BasisMorphism("en", Ln, Ln, 0),
        BasisMorphism("eW", W, W, 0),
        BasisMorphism("a0", L0, L1, 0),
        BasisMorphism("b0", L1, L0, 0),
        BasisMorphism("an", Ln, L0, 0),
        BasisMorphism("bn", L0, Ln, 0),
        BasisMorphism("c1", L1, Ln, 0),
        BasisMorphism("cn", Ln, L1, 0),
        BasisMorphism("alpha", L0, W, 0),
        BasisMorphism("beta", L0, W, 0),
        BasisMorphism("p", L0, W, 1),
        BasisMorphism("pbar", W, L0, 0),
        BasisMorphism("alpha_prime", W, L1, 0),
        BasisMorphism("beta_prime", W, Ln, 0),
        BasisMorphism("g1", L1, W, 0),
        BasisMorphism("gn", Ln, W, 0),
    ]
    identities = {L0: "e0", L1: "e1", Ln: "en", W: "eW"}
    mu1 = {"alpha": [(t0, "p")], "beta": [(tn, "p")]}
    mu2 = {}
    for key, pairs in _MU2_COMMON.items():
        mu2[key] = [(coef(c), name) for c, name in pairs]
    for key, pairs in _MU2_WRAPPED[wrapping].items():
        mu2[key] = [(coef(c), name) for c, name in pairs]
    mu3 = {}
    one = ring.one()
    for z, y, x, result, tag in _MU3:
        if tag in ("both", wrapping):
            mu3[(z, y, x)] = [(one, result)]
    return AInfTable(
        ring,
        (L0, L1, Ln, W),
        morphisms,
        identities,
        mu1,
        mu2,
        mu3,
        total=True,
    )


def halftwist_complexes(table: AInfTable):
    """The two sides of the comparison: the one-slot complex on W and
    the two-term complex (L1 (+) Ln -> L0), plus the closed comparison
    morphisms q1 (two-term -> W, the degree-1 chord p placed in the
    shifted slot) and q2 (W -> two-term, the two prime chords)."""
    one = table.ring.one()
    w_cx = TwComplex(table, [("W", 0)], {})
    two_term = TwComplex(
        table,
        [("L1", 0), ("Ln", 0), ("L0", -1)],
        {(2, 0): {"b0": one}, (2, 1): {"an": one}},
    )
    q1 = TwMorphism(two_term, w_cx, 0, {(0, 2): {"p": one}})
    q2 = TwMorphism(
        w_cx,
        two_term,
        0,
        {(0, 0): {"alpha_prime": one}, (1, 0): {"beta_prime": one}},
    )
    return w_cx, two_term, q1, q2


@dataclass
class HalfTwistReport:
    n: int
    ok: bool
    wrappings: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {"n": self.n, "ok": self.ok, "wrappings": self.wrappings}


def verify_halftwist(n: int) -> HalfTwistReport:
    """Check, for both wrappings, that the twist image W and the
    two-term complex are inverse to each other up to homotopy: the
    comparison morphisms are closed, both composites equal the
    identity, the direct (connection-free) routes vanish for degree
    reasons, and no arity-4 routes exist because the tables end at the
    ternary level."""
    report = HalfTwistReport(n, True)
    for wrapping in WRAPPINGS:
        table = halftwist_tables(n, wrapping)
        entry: dict = {"wrapping": wrapping}
        ainf = ainf_check(table, 4)
        entry["table_consistent"] = ainf.ok
        if not ainf.ok:
            entry["table_violations"] = ainf.to_json()["violations"]
        w_cx, two_term, q1, q2 = halftwist_complexes(table)
        d_q1 = mu_tw(1, [q1])
        d_q2 = mu_tw(1, [q2])
        entry["q1_closed"] = d_q1.is_zero()
        entry["q2_closed"] = d_q2.is_zero()
        round_two_term = mu_tw(2, [q2, q1])
        round_w = mu_tw(2, [q1, q2])
        id_two_term = two_term.identity()
        id_w = w_cx.identity()
        entry["q2_after_q1_is_identity"] = round_two_term == id_two_term
        entry["q1_after_q2_is_identity"] = round_w == id_w
        entry["q2_after_q1"] = round_two_term.to_text()
        entry["q1_after_q2"] = round_w.to_text()
        # The connection-free routes vanish purely by degree: the
        # receiving chord spaces have no degree-1 part.
        direct_a = matrix_mu(table, [q2.entries, q1.entries])
        direct_b = matrix_mu(table, [q1.entries, q2.entries])
        entry["direct_routes_vanish"] = not direct_a and not direct_b
        # Routes through four chords would be mu4 insertions; the
        # tables stop at mu3, so there are none to sum.
        entry["quaternary_routes"] = "none (tables end at the ternary level)"
        entry["ok"] = all(
            entry[key]
            for key in (
                "table_consistent",
                "q1_closed",
                "q2_closed",
                "q2_after_q1_is_identity",
                "q1_after_q2_is_identity",
                "direct_routes_vanish",
            )
        )
        report.wrappings[wrapping] = entry
        report.ok = report.ok and entry["ok"]
    return report
