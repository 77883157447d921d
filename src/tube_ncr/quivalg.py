"""Graded quiver presentations with rewriting normal forms and differentials.

A presentation is a quiver with polynomial coefficients, a confluent set
of two-arrow rewrite rules, and an optional differential on arrows
extended by the graded Leibniz rule.  The constructors at the bottom
build the algebras the rest of the package computes with: the cyclic
"tube" algebra over k[t_0..t_n], the linear contraction quiver with
degree -1 loops, and Drinfeld localisation (a free degree -1 loop
``eps`` with d(eps) = e at a chosen vertex).

Conventions:

* Composition is right-to-left.  A word is a tuple of arrow names where
  the rightmost arrow acts first; for adjacent letters (w_i, w_{i+1})
  composability means target(w_{i+1}) == source(w_i).
* The lazy (identity) path at a vertex is the empty word tagged with its
  vertex.
* Degrees are homological: the differential raises degree by exactly 1,
  and the Koszul sign rule is d(vw) = d(v) w + (-1)^{|v|} v d(w).
* Rewrite rules have a two-arrow left side and a strictly shorter right
  side (words of length <= 1), so rewriting terminates; confluence is
  checked by resolving all length-3 critical pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactalg import Field, Poly, PolyRing, add_term, deglex_key, kernel_basis


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str
    deg: int = 0


class Quiver:
    __slots__ = ("vertices", "arrows", "by_name")

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.src not in vset or a.tgt not in vset:
                raise ValueError(f"arrow {a.name} has endpoints outside the quiver")
        self.by_name = {a.name: a for a in self.arrows}


class Path(NamedTuple):
    """A composable word of arrow names, or a lazy path at a vertex.

    ``arrows`` lists names left-to-right with the rightmost acting
    first; a lazy path has ``arrows == ()`` and carries its vertex.
    """

    arrows: tuple
    vertex: Optional[str] = None

    @property
    def is_lazy(self) -> bool:
        return not self.arrows


def lazy(vertex: str) -> Path:
    return Path((), vertex)


def joined(arrows: tuple, vertex: Optional[str]) -> Path:
    """The word ``arrows``, or the lazy path at ``vertex`` when it is empty."""
    return Path(arrows, None) if arrows else Path((), vertex)


def path_key(path: Path) -> tuple:
    """The path order: by length, then arrow names, then vertex."""
    return (len(path.arrows), path.arrows, path.vertex or "")


def add_flat_term(acc: dict, key: tuple, scal, field: Field) -> None:
    """Add ``scal`` at ``key``, a (path, exponent) pair, of a sum of flat
    terms; read the sum back with ``(p, e, s) for (p, e), s in acc.items()
    if s``."""
    old = acc.get(key)
    acc[key] = scal if old is None else field.add(old, scal)


class AlgebraElement:
    """A normal-form linear combination of paths with Poly coefficients."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: "Presentation", terms: dict):
        self.pres = pres
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.pres is other.pres
            and self.terms == other.terms
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.pres is not other.pres:
            raise ValueError("elements of different presentations")
        terms = dict(self.terms)
        for path, coef in other.terms.items():
            add_term(terms, path, coef)
        return AlgebraElement(self.pres, terms)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.pres, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, poly: Poly) -> "AlgebraElement":
        if poly.is_zero():
            return AlgebraElement(self.pres, {})
        terms = {}
        for path, coef in self.terms.items():
            prod = coef * poly
            if not prod.is_zero():
                terms[path] = prod
        return AlgebraElement(self.pres, terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: path_key(t[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for path, coef in self.sorted_terms():
            word = "*".join(path.arrows) if path.arrows else f"e[{path.vertex}]"
            ctext = coef.to_text()
            if ctext == "1":
                parts.append(word)
            elif " + " in ctext or " - " in ctext:
                parts.append(f"({ctext})*{word}")
            else:
                parts.append(f"{ctext}*{word}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<AlgebraElement {self.to_text()}>"


@dataclass
class ConfluenceReport:
    confluent: bool
    critical_pairs_checked: int
    unresolved: list  # list of (overlap word, normal form 1, normal form 2)


class Presentation:
    """Quiver + coefficient ring + rewrite rules + differential.

    ``rules`` maps a two-arrow left side (pair of arrow names, word
    order) to its right side, given as ``(coef Poly, Path)`` pairs.
    ``differential`` maps an arrow name to a list of such pairs.

    ``_sides`` reads both as one list of (left word, right side, degree
    shift): shift 0 for a rule, 1 for the differential of an arrow.
    Construction checks each entry on that walk (``_validate``), then
    confluence (irreducible words are a basis exactly when the rules are
    confluent, so a rule set that is not is a ``ValueError``), then that
    d squares to zero and descends to the quotient; ``grade`` and
    ``same_presentation`` read the same walk.

    ``grade`` gives each basis term (word, monomial) its value in the
    finest grading for which every rule and differential entry is
    homogeneous, packed in one int.  It is computed from the rules and
    the differential themselves, so truncated cohomology can split its
    linear algebra into blocks for any presentation, however it was
    built, and a block key is one int add.

    ``word_differential`` gives d of an irreducible word as flat terms,
    built by the Leibniz rule and kept in the presentation's own tables;
    ``differential_of`` stays the reference it is checked against.
    """

    def __init__(
        self,
        quiver: Quiver,
        ring: PolyRing,
        rules: dict,
        differential: Optional[dict] = None,
    ):
        self.quiver = quiver
        self.ring = ring
        self.rules = {tuple(k): tuple(v) for k, v in rules.items()}
        self.differential = {
            k: tuple(v) for k, v in (differential or {}).items()
        }
        self._validate()
        self.confluence = self.check_confluence()
        if not self.confluence.confluent:
            raise ValueError(
                "presentation is not confluent, so its irreducible words are "
                "not a basis; unresolved overlaps: "
                + ", ".join("*".join(w) for w, _, _ in self.confluence.unresolved)
            )
        self._check_differential()

    # -- structural helpers -------------------------------------------------

    def arrow(self, name: str) -> Arrow:
        try:
            return self.quiver.by_name[name]
        except KeyError:
            raise ValueError(f"unknown arrow {name!r}") from None

    def path_source(self, path: Path) -> str:
        if path.is_lazy:
            return path.vertex
        return self.arrow(path.arrows[-1]).src

    def path_target(self, path: Path) -> str:
        if path.is_lazy:
            return path.vertex
        return self.arrow(path.arrows[0]).tgt

    @cached_property
    def _arrow_degrees(self) -> dict:
        return {a.name: a.deg for a in self.quiver.arrows}

    def path_degree(self, path: Path) -> int:
        return sum(map(self._arrow_degrees.__getitem__, path.arrows))

    def make_path(self, arrows: Sequence[str], vertex: Optional[str] = None) -> Path:
        """Validated path constructor; raises on non-composable words."""
        arrows = tuple(arrows)
        if not arrows:
            if vertex is None or vertex not in self.quiver.vertices:
                raise ValueError("lazy path needs a vertex of the quiver")
            return Path((), vertex)
        for name in arrows:
            self.arrow(name)
        for left, right in zip(arrows, arrows[1:]):
            if self.arrow(right).tgt != self.arrow(left).src:
                raise ValueError(
                    f"non-composable word {arrows}: {right} then {left}"
                )
        return Path(arrows, None)

    def element(self, pairs: Iterable) -> AlgebraElement:
        """Element from (coef, Path) pairs, normalised: the letters of each
        word but its last go in front of its last letter (``_add_times``).
        Each path is checked first (``make_path``): a word with an unknown
        name or a junction that does not compose, or a lazy path off the
        quiver, is a ``ValueError`` that names it."""
        out: dict = {}
        for coef, path in pairs:
            arrows = path.arrows
            try:
                self.make_path(arrows, path.vertex)
            except ValueError as err:
                word = "*".join(arrows) if arrows else f"e[{path.vertex}]"
                raise ValueError(f"{word} is not a path of the quiver: {err}") from None
            if arrows:
                self._add_times(out, coef, arrows[:-1], Path(arrows[-1:], None))
            else:
                add_term(out, path, coef)
        return AlgebraElement(self, out)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def arrow_element(self, name: str) -> AlgebraElement:
        return AlgebraElement(self, {self.make_path((name,)): self.ring.one()})

    def one(self) -> AlgebraElement:
        """Sum of all lazy paths (the algebra unit)."""
        one = self.ring.one()
        return AlgebraElement(self, {lazy(v): one for v in self.quiver.vertices})

    # -- validation ----------------------------------------------------------

    def _sides(self) -> list:
        """(left word, right side, degree shift) for every rule (shift 0)
        and for every arrow's differential (left word (name,), shift 1)."""
        sides = [(lhs, rhs, 0) for lhs, rhs in self.rules.items()]
        sides += [((name,), image, 1) for name, image in self.differential.items()]
        return sides

    def _validate(self) -> None:
        """Every right-side term keeps the endpoints of its left word and
        has its degree plus the shift; a rule rewrites two letters to at
        most one."""
        for lhs, rhs, shift in self._sides():
            what = f"d({lhs[0]})" if shift else f"rule {lhs}"
            if not shift and len(lhs) != 2:
                raise ValueError(f"rule left side must be a two-arrow word: {lhs}")
            left = self.make_path(lhs)
            ends = (self.path_source(left), self.path_target(left))
            deg = self.path_degree(left) + shift
            for coef, path in rhs:
                if coef.ring != self.ring:
                    raise ValueError(f"{what}: coefficient outside the coefficient ring")
                if not shift and len(path.arrows) > 1:
                    raise ValueError(
                        f"rule right side must be strictly shorter than the left: {path}"
                    )
                self.make_path(path.arrows, path.vertex)
                if (self.path_source(path), self.path_target(path)) != ends:
                    raise ValueError(f"{what} -> {path} changes endpoints")
                if self.path_degree(path) != deg:
                    raise ValueError(f"{what} -> {path} is not of degree {deg}")

    def _check_differential(self) -> None:
        # d^2 = 0 on arrows.
        for name in self.differential:
            dd = self.differential_of(self.differential_of(self.arrow_element(name)))
            if not dd.is_zero():
                raise ValueError(f"d^2({name}) = {dd.to_text()} != 0")
        # d descends to the quotient: differentiating the raw left-side
        # word (Leibniz, then reduce) must agree with d of the right side.
        if self.differential:
            for lhs, rhs in self.rules.items():
                raw = AlgebraElement(self, {Path(lhs, None): self.ring.one()})
                left = self.differential_of(raw)
                right = self.differential_of(
                    AlgebraElement(self, {p: c for c, p in rhs if not c.is_zero()})
                )
                if left != right:
                    raise ValueError(
                        f"differential incompatible with rule {lhs}: "
                        f"{left.to_text()} vs {right.to_text()}"
                    )

    @cached_property
    def _grading(self) -> tuple:
        """Arrow index and integer functionals of the finest grading.

        Symbols are the arrows in quiver order, then the ring variables.
        Each right-side term (coefficient monomial, path) of a rule or of
        an arrow's differential says that its symbol counts equal those
        of the left side; the grading is the symbol lattice modulo the
        rational span of these relations, read through a basis of the
        functionals that vanish on them.  Ignoring torsion can only
        merge blocks, so no answer depends on it; ``_weights`` packs the
        functionals into one int per symbol.
        """
        index = {a.name: i for i, a in enumerate(self.quiver.arrows)}
        nsymbols = len(index) + self.ring.nvars
        relations = []
        for lhs, rhs, _ in self._sides():
            for coef, path in rhs:
                for exp in coef.terms:
                    row = Counter(index[a] for a in lhs)
                    row.subtract(index[a] for a in path.arrows)
                    for v, e in enumerate(exp, len(index)):
                        row[v] -= e
                    relations.append({c: x for c, x in row.items() if x})
        functionals = []
        for vec in kernel_basis(relations, nsymbols, Field.rationals()):
            scale = math.lcm(*(x.denominator for x in vec.values()))
            functionals.append(
                tuple(int(vec.get(c, 0) * scale) for c in range(nsymbols))
            )
        return index, functionals

    @cached_property
    def _weights(self) -> tuple:
        """The packed grade of each arrow name and of each ring variable:
        sum_i f_i * B**i over the functionals f_i of ``_grading``, B = 2**24."""
        index, functionals = self._grading
        packed = [sum(f[c] << 24 * i for i, f in enumerate(functionals))
                  for c in range(len(index) + self.ring.nvars)]
        return {a: packed[i] for a, i in index.items()}, packed[len(index):]

    def grade(self, path: Path, exp: tuple) -> int:
        """Grade of the basis term (word, monomial), packed in one int: the
        sum of its letters' and its variables' ``_weights``.

        The packed grade is a linear function of the true grade, which d
        preserves, so a collision of two true grades could only merge
        blocks, and no answer depends on that (the column rank profile of
        ``cohom._window_blocks``, as for the torsion ``_grading``
        ignores).  Distinct true grades pack apart while every |f_i| is
        below B/2 = 2**23 on a term; it is at most f_i's largest entry
        times the term's letters plus its degree, far below that in any
        window the program can enumerate.  No grading gives 0: one block.
        """
        on_arrows, on_vars = self._weights
        return sum(map(on_arrows.__getitem__, path.arrows)) + sum(map(mul, exp, on_vars))

    # -- rewriting -----------------------------------------------------------

    def reduce_raw(self, pairs: Iterable) -> AlgebraElement:
        """Reduce (coef, Path) pairs to normal form (worklist rewriting).

        Each step rescans a whole word from the left for a rule's left
        side.  This is the reference that ``_word_times``, the one product
        of the run-time paths, is checked against; only the construction
        checks (``check_confluence``, ``differential_of``) call it."""
        out: dict = {}
        stack = [(coef, path) for coef, path in pairs if not coef.is_zero()]
        while stack:
            coef, path = stack.pop()
            arrows = path.arrows
            hit = None
            for i in range(len(arrows) - 1):
                if (arrows[i], arrows[i + 1]) in self.rules:
                    hit = i
                    break
            if hit is None:
                add_term(out, path, coef)
                continue
            prefix, suffix = arrows[:hit], arrows[hit + 2:]
            for rcoef, rpath in self.rules[(arrows[hit], arrows[hit + 1])]:
                new_path = joined(prefix + rpath.arrows + suffix, rpath.vertex)
                stack.append((coef * rcoef, new_path))
        return AlgebraElement(self, out)

    def reduce(self, element: AlgebraElement) -> AlgebraElement:
        return self.element((coef, path) for path, coef in element.terms.items())

    def multiply(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """Product x*y of two normal-form elements, composing right-to-left
        (y acts first): per pair of terms, x's word goes in front of y's
        (``_add_times``) with the product of their coefficients."""
        if x.pres is not self or y.pres is not self:
            raise ValueError("elements of a different presentation")
        out: dict = {}
        for px, cx in x.terms.items():
            src = self.path_source(px)
            for py, cy in y.terms.items():
                if src == self.path_target(py):  # else concatenate-or-die: 0
                    self._add_times(out, cx * cy, px.arrows, py)
        return AlgebraElement(self, out)

    def word_product(self, x: Path, y: Path) -> list:
        """x*y of two irreducible words as flat terms (path, exponent,
        scalar), y acting first; [] when x does not start where y ends."""
        if self.path_source(x) != self.path_target(y):
            return []
        acc: dict = {}
        self._word_times(acc, x.arrows, y, (0,) * self.ring.nvars, self.ring.field.one)
        return [(q, e, s) for (q, e), s in acc.items() if s]

    def differential_of(self, x: AlgebraElement) -> AlgebraElement:
        """Leibniz extension of the arrow differential: coefficients are
        central constants for d, so d(c * w) = c * d(w)."""
        if not self.differential:
            return self.zero()
        pairs = []
        one = self.ring.one()
        for path, coef in x.terms.items():
            arrows = path.arrows
            sign_deg = 0
            for i, name in enumerate(arrows):
                image = self.differential.get(name)
                if image:
                    sign = one if sign_deg % 2 == 0 else self.ring.const(-1)
                    for dcoef, dpath in image:
                        new_path = joined(arrows[:i] + dpath.arrows + arrows[i + 1:],
                                          dpath.vertex)
                        pairs.append((coef * dcoef * sign, new_path))
                sign_deg += self.arrow(name).deg
        return self.reduce_raw(pairs)

    @cached_property
    def _word_tables(self) -> tuple:
        """(d by word, paths) for ``word_differential``: the flat d(w) of
        each word asked so far and of the suffixes the Leibniz rule built
        it from, and one copy of each path those differentials name,
        which they share.  They live as long as the presentation, since
        a localisation comparison asks several truncated ranks of each
        of its presentations, and a word's differential is shared across
        degrees, bounds and monomials.  Each list holds its terms in path
        order, then deglex."""
        return {}, {}

    @cached_property
    def _meets(self) -> dict:
        """Per arrow name a, per letter b with (a, b) a rule's left side:
        that rule's right side as flat terms."""
        meets: dict = {a.name: {} for a in self.quiver.arrows}
        for (a, b), rhs in self.rules.items():
            meets[a][b] = [(r, e, s) for c, r in rhs for e, s in c.terms.items()]
        return meets

    @cached_property
    def _letters(self) -> dict:
        """Per arrow name a: (|a| odd, the flat d(a), and its row of
        ``_meets``).  Built once, like ``_word_tables``, d(a) by
        ``_word_times`` from the entries of ``differential``."""
        letters = {}
        for a in self.quiver.arrows:
            acc: dict = {}
            for c, q in self.differential.get(a.name, ()):
                for e, s in c.terms.items():
                    self._word_times(acc, q.arrows, lazy(self.path_source(q)), e, s)
            letters[a.name] = (a.deg % 2 == 1, self._kept(acc), self._meets[a.name])
        return letters

    def _kept(self, acc: dict) -> list:
        """A sum of flat terms as a ``_word_tables`` list."""
        paths = self._word_tables[1]
        return [
            (paths.setdefault(r, r), e, s)
            for (r, e), s in sorted(
                acc.items(), key=lambda t: (path_key(t[0][0]), deglex_key(t[0][1])))
            if s
        ]

    def _word_times(self, acc: dict, letters: tuple, p: Path, e: tuple, s) -> None:
        """Add the normal form of the word ``letters`` times the flat term
        (p, e, s) to ``acc``, a sum of flat terms (``add_flat_term``); p is
        irreducible.  This is the one product of the package: ``element``,
        ``multiply``, ``word_product`` and the word differentials all run
        through it, and ``reduce_raw`` is the reference it is checked
        against.

        The junction step: the letters go in front of p one at a time,
        right to left.  A letter a in front of an irreducible word is
        irreducible unless (a, its first letter) is a rule's left side, and
        then each right-side term c*r of the rule gives c times r in front
        of the rest of the word.  A lazy r leaves the rest as it is, and a
        letter r joins the letters still to go, so the step repeats only
        where the next letter meets the word.  The word so far is
        letters[i + 1:] + p, built only once the letters are all in."""
        meets, field, arrows = self._meets, self.ring.field, p.arrows
        first = arrows[0] if arrows else None
        for i in range(len(letters) - 1, -1, -1):
            rhs = meets[letters[i]].get(first)
            if rhs is not None:
                rest = letters[i + 2:] + arrows if i + 1 < len(letters) else arrows[1:]
                for r, e2, s2 in rhs:
                    self._word_times(acc, letters[:i] + r.arrows, joined(rest, r.vertex),
                                     tuple([x + y for x, y in zip(e, e2)]),
                                     field.mul(s, s2))
                return
            first = letters[i]
        add_flat_term(acc, (Path(letters + arrows, None) if letters else p, e), s, field)

    def _add_times(self, out: dict, coef: Poly, letters: tuple, p: Path) -> None:
        """Add ``coef`` times the normal form of ``letters`` times the
        irreducible p to ``out``, a sparse sum of Poly coefficients
        (``add_term``).  The words are multiplied once, by ``_word_times``
        from the unit term, and ``coef`` joins each term as a whole Poly:
        a term the junction left alone takes it as it is."""
        one, acc = self.ring.field.one, {}
        self._word_times(acc, letters, p, (0,) * self.ring.nvars, one)
        for (q, e), s in acc.items():
            if s == one and not any(e):
                add_term(out, q, coef)
            elif s:
                add_term(out, q, coef * Poly(self.ring, {e: s}))

    def word_differential(self, w: Path) -> list:
        """d(w) of an irreducible word as flat terms, in path order, then
        deglex; kept in ``_word_tables``, so a second call returns the
        same list.

        A word a*w' of two or more letters takes the Leibniz rule
        d(a*w') = d(a)*w' + (-1)^|a| a*d(w') from the letter's row of
        ``_letters`` and the kept d(w'), w' being irreducible too.  Normal
        forms are unique and d descends to the quotient (both checked when
        the presentation is built), so the normal form of the two products
        is d(w), built in one accumulation by ``_word_times``: each head
        term c*q of d(a) puts q in front of w' (a lazy q is the empty
        word), and each term of d(w') gets a in front.  No word
        differential reaches ``differential_of`` or ``reduce_raw``, the
        reference they are checked against.
        """
        words, paths = self._word_tables
        out = words.get(w)
        if out is not None:
            return out
        # The words not kept yet, each with its rest, the word after it.
        todo = []
        while w not in words and len(w.arrows) > 1:
            rest = Path(w.arrows[1:], None)
            todo.append((w, rest))
            w = rest
        if w not in words:
            words[w] = self._letters[w.arrows[0]][1] if w.arrows else []
        field = self.ring.field
        for w, rest in reversed(todo):
            a = w.arrows[0]
            odd, head, meets = self._letters[a]
            tail = words[rest]
            if not head and not any(q.arrows and q.arrows[0] in meets for q, _, _ in tail):
                # d(w) = +-a*d(w'), and a in front of each term leaves it
                # irreducible, keeps the terms distinct and keeps their order.
                prefixed = words[w] = []
                for q, e, s in tail:
                    r = Path((a,) + q.arrows, None)
                    prefixed.append((paths.setdefault(r, r), e, field.neg(s) if odd else s))
                continue
            acc: dict = {}
            for q, e, s in head:
                self._word_times(acc, q.arrows, rest, e, s)
            for q, e, s in tail:
                self._word_times(acc, (a,), q, e, field.neg(s) if odd else s)
            words[w] = self._kept(acc)
        return words[w]

    # -- confluence ----------------------------------------------------------

    def check_confluence(self) -> ConfluenceReport:
        """Resolve all critical pairs from overlapping two-arrow left sides.

        Overlaps are words (x, y, z) where both (x, y) and (y, z) are
        rule left sides; each is reduced rule-first and rule-second and
        the results compared once fully reduced.
        """
        unresolved = []
        checked = 0
        one = self.ring.one()
        for (x, y) in self.rules:
            for (y2, z) in self.rules:
                if y2 != y:
                    continue
                # (x, y, z) is composable because both rules are.
                checked += 1
                word = (x, y, z)
                first = self.reduce_raw(
                    [
                        (coef, Path(rpath.arrows + (z,), None))
                        for coef, rpath in self.rules[(x, y)]
                    ]
                )
                second = self.reduce_raw(
                    [
                        (coef, Path((x,) + rpath.arrows, None))
                        for coef, rpath in self.rules[(y, z)]
                    ]
                )
                if first != second:
                    unresolved.append((word, first, second))
        return ConfluenceReport(not unresolved, checked, unresolved)

    # -- basis enumeration -----------------------------------------------------

    def irreducible_words(
        self,
        source: str,
        target: Optional[str] = None,
        length_bound: int = 0,
        homological_degree: Optional[int] = None,
    ) -> list[Path]:
        """All rule-irreducible words from ``source``, grown leftward.

        A word stays irreducible under left extension iff the single new
        adjacent pair avoids every rule left side, so the search prunes
        exactly.  Results are filtered by target/degree when given and
        sorted by (length, arrow names).  When a degree is given and no
        arrow has positive degree, a word's degree never rises as it
        grows, so a word below that degree is not grown further.
        """
        by_src: dict[str, list] = {}
        for a in self.quiver.arrows:
            by_src.setdefault(a.src, []).append((a.name, a.tgt, a.deg))
        rules = self.rules
        floor = homological_degree
        if floor is None or any(a.deg > 0 for a in self.quiver.arrows):
            floor = -math.inf
        result = []
        if target in (None, source) and homological_degree in (None, 0):
            result.append(lazy(source))
        # Entries: (arrows tuple, current target vertex, degree); each
        # round adds one letter, so each round is one length of the order.
        frontier: list[tuple] = [((), source, 0)]
        for _ in range(length_bound):
            frontier = [
                ((name,) + arrows, tgt, deg + shift)
                for arrows, tip, deg in frontier
                for name, tgt, shift in by_src.get(tip, ())
                if deg + shift >= floor
                and (not arrows or (name, arrows[0]) not in rules)
            ]
            result.extend(Path(arrows, None) for arrows in sorted(
                arrows for arrows, tip, deg in frontier
                if target in (None, tip)
                and homological_degree in (None, deg)
            ))
        return result

    # -- serialisation ---------------------------------------------------------

    def to_json(self) -> dict:
        def pairs_json(pairs):
            out = []
            for coef, path in pairs:
                entry = {"word": list(path.arrows), "coef": coef.to_json()}
                if path.is_lazy:
                    entry["vertex"] = path.vertex
                out.append(entry)
            return out

        return {
            "vertices": list(self.quiver.vertices),
            "arrows": [
                {"name": a.name, "src": a.src, "tgt": a.tgt, "deg": a.deg}
                for a in self.quiver.arrows
            ],
            "coefficients": {
                "field": self.ring.field.to_json(),
                "variables": list(self.ring.names),
            },
            "rules": [
                {"lhs": list(lhs), "rhs": pairs_json(rhs)}
                for lhs, rhs in sorted(self.rules.items())
            ],
            "diff": {
                name: pairs_json(image)
                for name, image in sorted(self.differential.items())
            },
        }


def graded_basis(
    pres: Presentation,
    source: str,
    target: str,
    homological_degree: int,
    length_bound: int,
) -> list[Path]:
    """Irreducible words source -> target in one homological degree."""
    return pres.irreducible_words(
        source, target, length_bound, homological_degree
    )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def tube_vertex(i: int) -> str:
    return f"L{i}"


def tube_algebra(
    n: int, ring: PolyRing, f: Optional[Sequence[Poly]] = None
) -> Presentation:
    """The cyclic-quiver algebra on vertices L0..Ln over ``ring``.

    Arrows a_i: L_i -> L_{i+1} and b_i: L_{i+1} -> L_i (indices mod
    n+1), all in degree 0, with backtracking pairs rewriting to central
    scalars: a_i b_i -> c_i e_{i+1} and b_i a_i -> c_i e_i, where c_i is
    the i-th ring variable by default, or ``f[i]`` when a base change is
    requested.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if f is None:
        if ring.nvars != n + 1:
            raise ValueError(
                f"ring must have {n + 1} variables for the default scalars, "
                f"got {ring.nvars}"
            )
        f = ring.gens()
    else:
        f = list(f)
        if len(f) != n + 1:
            raise ValueError(f"need {n + 1} scalar polynomials, got {len(f)}")
    m = n + 1
    vertices = [tube_vertex(i) for i in range(m)]
    arrows = []
    for i in range(m):
        arrows.append(Arrow(f"a{i}", tube_vertex(i), tube_vertex((i + 1) % m), 0))
    for i in range(m):
        arrows.append(Arrow(f"b{i}", tube_vertex((i + 1) % m), tube_vertex(i), 0))
    rules = {}
    for i in range(m):
        rules[(f"a{i}", f"b{i}")] = [(f[i], lazy(tube_vertex((i + 1) % m)))]
        rules[(f"b{i}", f"a{i}")] = [(f[i], lazy(tube_vertex(i)))]

    return Presentation(Quiver(vertices, arrows), ring, rules)


def winding_element(pres: Presentation, n: int, letter: str) -> AlgebraElement:
    """Sum over base vertices of the full cycle in a- or b-arrows.

    ``letter`` "a" gives u = sum_i a_{i-1}...a_{i+1} a_i read as the full
    cycle based at L_i; "b" gives the reverse-orientation cycle v.
    """
    m = n + 1
    one = pres.ring.one()
    pairs = []
    for i in range(m):
        if letter == "a":
            names = tuple(f"a{(i + k) % m}" for k in range(m - 1, -1, -1))
        else:
            names = tuple(f"b{(i + k) % m}" for k in range(m))
        pairs.append((one, pres.make_path(names)))
    return pres.element(pairs)


def contraction_vertex(i: int) -> str:
    return str(i)


def contraction_quiver(
    n: int,
    ring: PolyRing,
    f: Sequence[Poly],
) -> Presentation:
    """The linear DG quiver on vertices 1..n with degree -1 end loops.

    The degree-0 arrows run a_i: i -> i+1 and b_i: i+1 -> i for i =
    1..n-1, rewriting by a_i b_i -> f_i e_{i+1} and b_i a_i -> f_i e_i
    (words compose right to left, so a_i b_i is the loop at the higher
    vertex).  Loops alpha at vertex 1 and beta at vertex n sit in
    degree -1 with alpha^2 = beta^2 = 0 and d(alpha) = f_0 e_1,
    d(beta) = f_n e_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (no vertices remain otherwise)")
    f = list(f)
    if len(f) != n + 1:
        raise ValueError(f"need {n + 1} scalar polynomials, got {len(f)}")
    vertices = [contraction_vertex(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n):
        lo, hi = contraction_vertex(i), contraction_vertex(i + 1)
        arrows.append(Arrow(f"a{i}", lo, hi, 0))
        arrows.append(Arrow(f"b{i}", hi, lo, 0))
    arrows.append(Arrow("alpha", contraction_vertex(1), contraction_vertex(1), -1))
    arrows.append(Arrow("beta", contraction_vertex(n), contraction_vertex(n), -1))
    rules = {}
    for i in range(1, n):
        lo, hi = lazy(contraction_vertex(i)), lazy(contraction_vertex(i + 1))
        rules[(f"a{i}", f"b{i}")] = [(f[i], hi)]
        rules[(f"b{i}", f"a{i}")] = [(f[i], lo)]
    rules[("alpha", "alpha")] = []
    rules[("beta", "beta")] = []
    differential = {
        "alpha": [(f[0], lazy(contraction_vertex(1)))],
        "beta": [(f[n], lazy(contraction_vertex(n)))],
    }

    return Presentation(Quiver(vertices, arrows), ring, rules, differential)


def drinfeld_localize(pres: Presentation, vertex: str) -> Presentation:
    """Freely adjoin a degree -1 loop ``eps`` at ``vertex`` with
    d(eps) = e_vertex.  No new rewrite rules: powers of eps are honest
    irreducible words."""
    if vertex not in pres.quiver.vertices:
        raise ValueError(f"unknown vertex {vertex!r}")
    if "eps" in pres.quiver.by_name:
        raise ValueError("presentation already has an arrow named eps")
    for a in pres.quiver.arrows:
        if a.deg != 0:
            raise ValueError("localisation expects a degree-0 presentation")
    arrows = list(pres.quiver.arrows) + [Arrow("eps", vertex, vertex, -1)]
    differential = {name: list(img) for name, img in pres.differential.items()}
    differential["eps"] = [(pres.ring.one(), lazy(vertex))]
    return Presentation(
        Quiver(pres.quiver.vertices, arrows),
        pres.ring,
        dict(pres.rules),
        differential,
    )


def relabel_presentation(pres: Presentation, vertex_map: dict) -> Presentation:
    """Rename vertices everywhere; structure unchanged.

    The map may be partial; unmentioned vertices keep their names.
    """

    def v(name: str) -> str:
        return vertex_map.get(name, name)

    def pairs(ps):
        return [
            (coef, Path((), v(p.vertex)) if p.is_lazy else p) for coef, p in ps
        ]

    quiver = Quiver(
        tuple(v(x) for x in pres.quiver.vertices),
        tuple(
            Arrow(ar.name, v(ar.src), v(ar.tgt), ar.deg)
            for ar in pres.quiver.arrows
        ),
    )
    rules = {lhs: pairs(rhs) for lhs, rhs in pres.rules.items()}
    diff = {name: pairs(img) for name, img in pres.differential.items()}
    return Presentation(quiver, pres.ring, rules, diff)


def same_presentation(p: Presentation, q: Presentation) -> bool:
    """Structural equality: same coefficients, vertices, arrows, rules,
    and differential (vertex/arrow listing order ignored)."""
    if p.ring != q.ring:
        return False
    if set(p.quiver.vertices) != set(q.quiver.vertices):
        return False
    if {a.name: (a.src, a.tgt, a.deg) for a in p.quiver.arrows} != {
        a.name: (a.src, a.tgt, a.deg) for a in q.quiver.arrows
    }:
        return False
    return _side_table(p) == _side_table(q)


def _side_table(pres: Presentation) -> dict:
    return {
        (lhs, shift): sorted(rhs, key=_pair_key)
        for lhs, rhs, shift in pres._sides()
    }


def _pair_key(pair):
    coef, path = pair
    return (path.arrows, path.vertex or "", sorted(coef.terms.items()))


def tube_rank_closed_form(
    n: int, i: int, j: int, length_bound: int
) -> int:
    """Independent count of irreducible words L_i -> L_j up to a length
    bound in the cyclic-quiver algebra: exactly one forward (a) path per
    winding number and one backward (b) path, plus the lazy path on the
    diagonal."""
    m = n + 1
    count = 0
    fwd = (j - i) % m      # shortest a-path length
    back = (i - j) % m     # shortest b-path length
    length = fwd if fwd else m
    while length <= length_bound:
        count += 1
        length += m
    length = back if back else m
    while length <= length_bound:
        count += 1
        length += m
    if i == j:
        count += 1  # lazy path
    return count
