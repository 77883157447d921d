"""Unit pairs: the contractible part of a truncated morphism complex.

A presentation may hold a contractible letter: a loop z at a vertex v
with d(z) a nonzero constant times e_v, as the loop ``eps`` that
Drinfeld localisation adjoins.  Inserting z at a word's first gap at v
gives a word whose differential holds the first word with a constant
coefficient, so the two cells form a unit pair, and the pairs form an
acyclic matching in the sense of algebraic discrete Morse theory
(Sköldberg, Trans. AMS 2006).  Eliminating a unit pair is an
elementary reduction that keeps homology (Kaczynski, Mischaikow and
Mrozek, *Computational Homology*, 2004, ch. 4), and the pairs are only
taken where both truncation windows of a stability check keep their
column rank profiles, so the reduction is an elimination order for
``cohom._window_blocks`` and assumes nothing about the algebra.
``UnitPairs`` decides which cells of one call pair and gives the
differential that the unpaired columns carry after the reduction.
"""

from __future__ import annotations

from typing import Optional

from .exactalg import InternalError
from .quivalg import Path, Presentation, add_flat_term, joined, lazy


def _word_text(w: Path) -> str:
    return "*".join(w.arrows) or f"e[{w.vertex}]"


def contractible_letter(pres: Presentation) -> Optional[tuple]:
    """(z, v) for the first arrow z that is a loop at a vertex v with
    d(z) a nonzero constant times e_v, that appears in no rule, and that
    no arrow's differential passes through between its ends (no term of
    any d(y) visits v inside the word); None when there is no such arrow.

    The last condition keeps the matching of ``UnitPairs`` acyclic: with
    it, the other boundary terms of a matched word are never matched.
    """
    in_rules: set = set()
    for lhs, rhs in pres.rules.items():
        in_rules.update(lhs)
        for _, path in rhs:
            in_rules.update(path.arrows)
    constant = (0,) * pres.ring.nvars
    for arrow in pres.quiver.arrows:
        v = arrow.src
        if arrow.tgt != v or arrow.name in in_rules:
            continue
        image = pres.differential_of(pres.arrow_element(arrow.name)).terms
        coef = image.get(lazy(v))
        if len(image) != 1 or coef is None or list(coef.terms) != [constant]:
            continue
        if not any(
            pres.arrow(a).src == v
            for rhs in pres.differential.values()
            for _, path in rhs
            for a in path.arrows[:-1]
        ):
            return arrow.name, v
    return None


class UnitPairs:
    """The unit pairs of one truncated-cohomology call and the reduced
    differential they leave on the image side.

    With a contractible letter z at v (``contractible_letter``), a
    target word t whose first gap at v, reading the letters left to
    right and counting both ends, is not followed by z pairs with t+, t
    with z inserted at that gap: d(t+) holds t with the constant
    coefficient +-c_z, its pivot, and its other terms keep z right after
    their first gap at v, so they pair with nothing.  A cell (t, e) is
    matched with (t+, e) when (t+, e) is a cell of the image side U and

    (i) no column of U's base window hits t when (t+, e) lies outside
        that base window (checked by coefficient degree, so more pairs
        may be refused than need be, never fewer);
    (ii) when t lies inside the base window or the rerun window, every
        term of d(t+) at e lies inside that same window.

    The matched columns and rows form a diagonal of unit pivots, so
    eliminating them first is an elimination order: by (i) and (ii) it
    changes no column rank profile that ``cohom._window_blocks`` reads,
    and both windows keep their ranks.  An unmatched column then carries
    its reduced differential, each term c*t on a matched cell replaced by
    -(c/c_t)(d(t+) - c_t*t).  Whether a cell is matched depends only on
    its word and the degree of its monomial, and so does a reduced
    differential, which is kept for the call.  Without a contractible
    letter nothing is matched.

    A word's differential is ``pres.word_differential``'s (word,
    exponent, scalar) triples.  ``v`` and ``u`` are the windows
    (``cohom.Window``) of V and of the image side U, each with its
    ``rerun``; every rule reads them through ``cap``, per word length.
    ``base_u_words`` are the words of U's base window.
    """

    def __init__(self, pres: Presentation, v, u, base_u_words: list):
        letter = contractible_letter(pres)
        self.z, self.v = letter if letter is not None else (None, None)
        self.into_v = {a.name for a in pres.quiver.arrows if a.tgt == self.v}
        self.from_v = {a.name for a in pres.quiver.arrows if a.src == self.v}
        self.rules, self.field, self.d = pres.rules, pres.ring.field, pres.word_differential
        # V, V's rerun, U and U's rerun, built once: _rules_mask reads all four.
        self.windows = (v, v.rerun, u, u.rerun)
        # Per monomial degree up to the rerun bound, whether a cell is matched.
        self.unmatched = (False,) * (v.rerun.degree + 1)
        # Reduced differentials, indexed by image-side column label.
        self._images: list = []
        self._pairs: dict = {}
        self._masks: dict = {}
        # The intervals of coefficient degrees at which the base window's
        # image side hits each word that could be matched, for rule (i).
        self._hits: dict = {}
        if letter is not None:
            for w in base_u_words:
                top = u.cap(len(w.arrows))
                for s, e, _ in self.d(w):
                    if self.plus(s) is not None:
                        h = sum(e)
                        self._hits.setdefault(s, set()).add((h, h + top))

    def _first_gap(self, arrows: tuple, vertex) -> Optional[int]:
        """Index of the first gap at v: gap i sits left of letter i."""
        if not arrows:
            return 0 if vertex == self.v else None
        if arrows[0] in self.into_v:
            return 0
        return next((k + 1 for k, a in enumerate(arrows) if a in self.from_v), None)

    def plus(self, t: Path) -> Optional[Path]:
        """t+ when t can be matched, else None."""
        arrows = t.arrows
        i = self._first_gap(arrows, t.vertex)
        if i is not None and (i == len(arrows) or arrows[i] != self.z):
            return Path(arrows[:i] + (self.z,) + arrows[i:], None)
        return None

    def minus(self, u: Path) -> Optional[Path]:
        """The word t with t+ = u, or None."""
        arrows = u.arrows
        i = self._first_gap(arrows, u.vertex)
        if i is None or i == len(arrows) or arrows[i] != self.z:
            return None
        if i + 1 < len(arrows) and (arrows[i + 1] == self.z or (
                i > 0 and (arrows[i - 1], arrows[i + 1]) in self.rules)):
            return None
        return joined(arrows[:i] + arrows[i + 1:], self.v)

    def _pair(self, t: Path) -> tuple:
        """(the other terms of d(t+) times -1/c_t for the pivot c_t, the
        longest term word, the highest term degree, and (word, degree) of
        the other terms that could be matched)."""
        info = self._pairs.get(t)
        if info is None:
            pivot, rest, matchable = None, [], []
            longest = highest = 0
            for r, e, c in self.d(self.plus(t)):
                longest = max(longest, len(r.arrows))
                highest = max(highest, sum(e))
                if r != t:
                    rest.append((r, e, c))
                    if self.plus(r) is not None:
                        matchable.append((r, sum(e)))
                elif pivot is None and not any(e):
                    pivot = c
                else:
                    pivot = None
                    break
            if pivot is None:
                raise InternalError(
                    f"unit pairs: the coefficient of {_word_text(t)} in the "
                    f"differential of its pair is not a nonzero constant"
                )
            field = self.field
            factor = field.neg(field.inv(pivot))
            rest = [(r, e, field.mul(factor, c)) for r, e, c in rest]
            info = self._pairs[t] = (rest, longest, highest, matchable)
        return info

    def _rules_mask(self, t: Path) -> tuple:
        """Per monomial degree, whether (t, e) meets rules (i) and (ii)."""
        tp = self.plus(t)
        if tp is None:
            return self.unmatched
        _, longest, highest, _ = self._pair(t)
        hits = self._hits.get(t, ())
        v, v_rerun, u, u_rerun = self.windows
        n, n_plus = len(t.arrows), len(tp.arrows)
        in_u, in_u_rerun = u.cap(n_plus), u_rerun.cap(n_plus)
        in_v, in_v_rerun = v.cap(n), v_rerun.cap(n)
        # Rule (ii) as a bound on k: k + highest <= cap(longest).
        room, room_rerun = v.cap(longest) - highest, v_rerun.cap(longest) - highest
        flags = []
        for k in range(len(self.unmatched)):
            if k <= in_u:
                ok = True
            else:  # (t+, e) lies outside U's base window: rule (i)
                ok = k <= in_u_rerun and not any(lo <= k <= hi for lo, hi in hits)
            if k <= in_v:  # rule (ii)
                ok = ok and k <= room
            elif k <= in_v_rerun:
                ok = ok and k <= room_rerun
            flags.append(ok)
        return tuple(flags)

    def mask(self, t: Path) -> tuple:
        """Per monomial degree up to the rerun bound, whether the target
        cell (t, e) is matched."""
        out = self._masks.get(t)
        if out is None:
            out = self._masks[t] = self._rules_mask(t)
            if True in out:
                for r, h in self._pair(t)[3]:
                    other = self._rules_mask(r)
                    if any(out[k] and other[k + h] for k in range(len(out) - h)):
                        raise InternalError(
                            f"unit pairs: the pair of {_word_text(t)} hits a "
                            f"second matched row {_word_text(r)}"
                        )
        return out

    def _substitute(self, terms: list, hit: tuple) -> list:
        """``terms`` with each hit term c*t replaced by -(c/c_t)(d(t+) - c_t*t)."""
        field, acc = self.field, {}
        for (s, e, c), is_hit in zip(terms, hit):
            if not is_hit:
                add_flat_term(acc, (s, e), c, field)
                continue
            shift = any(e)
            for r, e2, c2 in self._pair(s)[0]:
                if shift:
                    e2 = tuple([a + b for a, b in zip(e, e2)])
                add_flat_term(acc, (r, e2), field.mul(c, c2), field)
        return [(r, e, c) for (r, e), c in acc.items() if c]

    def u_labels(self, u: Path) -> list:
        """Per monomial degree, the label of the image-side column (u, e),
        an index into the reduced differentials, or None when the column
        is matched or its reduced differential is zero."""
        t = self.minus(u)
        own = self.unmatched if t is None else self.mask(t)
        terms = self.d(u)
        if not terms:
            return [None] * len(own)
        # Row k: which terms land on a matched cell at monomial degree k.
        pad = self.unmatched
        hits = list(zip(*[
            (self.mask(s)[h:] + pad)[:len(own)]
            for s, h in [(s, sum(e)) for s, e, _ in terms]
        ]))
        labels: list = []
        by_hit: dict = {}  # degrees with the same matched terms share a label
        for matched, hit in zip(own, hits):
            if matched:
                labels.append(None)
                continue
            label = by_hit.get(hit, -1)
            if label == -1:
                image = self._substitute(terms, hit) if True in hit else terms
                label = by_hit[hit] = len(self._images) if image else None
                if image:
                    self._images.append(image)
            labels.append(label)
        return labels

    def v_labels(self, t: Path) -> list:
        """Per monomial degree, t for a window column (t, e), or None
        when the cell is matched."""
        return [None if matched else t for matched in self.mask(t)]

    def image_of(self, g) -> list:
        """A window column's differential, or an image-side column's
        reduced one."""
        return self._images[g] if type(g) is int else self.d(g)
