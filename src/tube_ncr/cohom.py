"""Bounded cohomology for free complexes and quiver presentations.

Two kinds of complex live here.  A ``FreeComplex`` is a finite complex of
free modules over a polynomial ring, given by named generators per degree
and a polynomial matrix; its cohomology is computed layer by layer in the
polynomial grading, which is exact per layer because homogeneous entries
never mix layers.  For a differential graded ``Presentation`` the
morphism complex between two vertices has infinite rank, so everything is
truncated instead, to a ``Window``: words up to a length bound,
coefficient monomials up to a degree bound.  Both kinds split into
graded blocks eliminated by one routine, ``_window_blocks``, on the
integer cells of one ``exactalg.CellIndex`` per call: a column is one
int, label times the number of monomials plus the monomial's place,
and so are a row key and a block's grade, so no key in the block loop
is a tuple.  Every
answer is also counted with its bounds enlarged and carries a status,
``"stable"`` when the two counts agree and ``"inconclusive_at_bound"``
otherwise; a bound that was too small shows up in the status, never as
a silently wrong number.  Both counts come from one pass over the
enlarged window: each of its blocks lists the columns of the smaller
window first, so one elimination per block gives both ranks.  The
image side skips the rows on the cells of the kernel side's pivot
columns, which a closed image fixes; one Freivalds probe per block
(``Echelon.probe``) checks that they lie in the span of the rows kept,
so an image that is not closed is still an internal error.  A
presentation with a contractible letter, such as the ``eps`` of a
Drinfeld localisation, first has its unit pairs taken out
(``unitpairs.UnitPairs``): those cells are never listed, and the columns
left carry the reduced differential.

Degree bookkeeping: arrows sit in degrees 0 and -1 and the differential
raises degree by 1, so the interesting cohomology sits in degrees -m for
m >= 0.  H^0 needs no kernel computation at all (nothing has degree +1)
and is handled as generators and relations by ``H0Presentation``: the
degree-0 words modulo the two-sided ideal generated by the differentials
of the degree -1 arrows.
"""

from __future__ import annotations

from random import Random
from typing import Optional, Sequence

from .exactalg import (
    CellIndex,
    Echelon,
    Field,
    InternalError,
    Poly,
    PolyRing,
    Record,
    TruncatedSolveResult,
    Value,
    bounded_members,
    data_degree,
    deglex_key,
    kernel_basis,
    linear_rows,
    membership_bound,
    monomials_upto,
    row_reduce,  # unused here; perfbench asserts its tracer rebinds cohom.row_reduce
)
from .quivalg import (
    AlgebraElement,
    Path,
    Presentation,
    contraction_quiver,
    contraction_vertex,
    drinfeld_localize,
    lazy,
    path_key,
    tube_algebra,
    tube_vertex,
)
from .unitpairs import UnitPairs

# How far every bound is enlarged for the stability rerun.
STABILITY_STEP = 2

# The seed of the draws of each ``_window_blocks`` call's probes.
_PROBE_SEED = 1


class Window(Value):
    """A truncation box: the cells (w, e) of a word of at most ``length``
    letters and a coefficient monomial of degree at most ``degree``.

    ``cap`` is the one membership test, asked per word: (w, e) lies in
    the window when deg e <= cap(len(w)).  A negative bound is refused,
    since an empty window would read every rank as 0, conclusively.
    """

    __slots__ = ("length", "degree")

    def __init__(self, length: int, degree: int):
        self.length = length
        self.degree = degree
        if length < 0 or degree < 0:
            raise ValueError(f"window bounds must be >= 0, got {self}")

    @property
    def rerun(self) -> Window:
        """The stability rerun's window: both bounds ``STABILITY_STEP`` larger."""
        return Window(self.length + STABILITY_STEP, self.degree + STABILITY_STEP)

    def cap(self, length: int) -> int:
        """The largest monomial degree of a cell whose word has ``length``
        letters, or -1 when the window holds no such cell."""
        return self.degree if length <= self.length else -1


# ---------------------------------------------------------------------------
# Shared linear-algebra helpers
# ---------------------------------------------------------------------------


def _image_groups(u_cols: Sequence[int], cells: CellIndex, group: dict) -> tuple:
    """The image rows of ``u_cols``, fresh from ``linear_rows``, in the
    five groups of ``_window_blocks`` that ``group`` gives by row key."""
    rows: tuple[list, ...] = ([], [], [], [], [])
    for key, row in linear_rows(u_cols, cells).items():
        rows[group.get(key, 0)].append(row)
    return rows


def _image_counts(groups: Sequence[list], field: Field, n_base: int, owned: bool) -> tuple:
    """The image side's ``Echelon`` after the three groups of rows of
    ``_window_blocks``, in turn, and its counts: (rank after the first
    group, rank, pivots below ``n_base`` after the second group, and at
    the end).  ``owned`` rows are handed to ``Echelon.take``, the others
    to ``insert``."""
    ech = Echelon(field)
    add = ech.take if owned else ech.insert
    for row in groups[0]:
        add(row)
    outside = len(ech.rows)
    for row in groups[1]:
        add(row)
    base_outside = sum(1 for c in ech.pivots if c < n_base)
    for row in groups[2]:
        add(row)
    return ech, (outside, len(ech.rows), base_outside,
                 sum(1 for c in ech.pivots if c < n_base))


def _window_blocks(
    v_blocks: dict,
    u_blocks: dict,
    cells: CellIndex,
    field: Field,
    vector_blocks: Optional[dict] = None,
):
    """Yield (grade, base columns, base rank, rank, generator vectors) per
    grade of the window V, for V and for the base window inside it; the
    base columns, empty without ``vector_blocks``, are the (label,
    monomial) pairs that the generator vectors index.

    ``v_blocks`` and ``u_blocks`` map a grade, which d respects, to the
    columns of ``cells`` of the window V and of the image side U, with
    the columns of the base window and of its image side first, and to
    the number of those base columns; ``cells`` has read the image of
    every label they name.  A V column's own cell is the row that an
    image term landing on it reaches (``CellIndex.row_keys``), so window
    membership is tested on int keys.  A block's rank is dim ker(d on V)
    minus the dimension of d U inside the window, and likewise for the
    base.

    One elimination per side serves both windows, because the pivot
    columns of an echelon form below k count the rank of the first k
    columns (the column rank profile).  The kernel side eliminates d on
    all of V.  The image side is one ``Echelon`` in column orientation, a
    column per element of U and a row per target coordinate, with the
    rows inserted in three groups: outside V, inside V but outside the
    base window, inside the base window.  The pivot count after the first
    group is the outside rank of U; the pivots below the base count after
    the second are the base's outside rank; at the end they count
    rank(d U_base), and all pivots count rank(d U).  Every row of either
    side is fresh from ``linear_rows``, so when ``cells.integral`` says
    that every image scalar is an ``int`` each row is handed to
    ``Echelon.take``, which reduces it in place and may keep it, with no
    copy and no test of each entry's type; otherwise to ``insert``.

    The rows on the cells of the kernel side's pivot columns P are not
    inserted, and no count moves.  Every image is closed: d(d u) = 0,
    and an image column of ``UnitPairs`` carries d'(u) = d(u - sum
    (c/c_t) t+), a boundary too.  So an image with no coordinate outside
    V lies in ker(d on V).  A vector of that kernel is fixed by its free
    coordinates, and a pivot coordinate by the coordinates right of it,
    so with the base columns first a pivot coordinate outside the base
    window depends only on free coordinates outside it.  Hence an
    element of the span of U whose image is zero on the rows kept
    outside V and on V's free cells has a zero image on the skipped rows
    too, and an element of the span of U_base whose image is zero on the
    rows kept outside the base window is zero on the skipped rows there.
    The kept rows thus cut out the same elements as all the rows, at
    each point where a count is read: the rank after the outside rows
    (nothing is skipped there), the base pivots after the second group
    (on U_base's columns) and the final pivots.

    The skipped rows were the only check that the images are closed, so
    one ``Echelon.probe`` per block keeps it: a random kernel vector of
    the kept rows must annihilate every skipped row.  Over the rationals
    it is drawn mod 2^31 - 1, once; over F_p it is drawn in F_p,
    repeatedly, until p^r >= 2^31 - 1.  On a miss the block is
    eliminated again with every row, in the same groups, and its counts
    are those; its image rows are built again by ``linear_rows``, since
    the first image ``Echelon`` may own the kept ones.  When a skipped
    row is independent of the kept ones the images are not closed, and
    ``InternalError`` is raised; a rank below zero, which only a kernel
    or image fault gives, is raised first.  A miss with no such row (a
    lead that the probe's prime divides) just goes on.

    ``vector_blocks`` maps a grade to the base window's columns and its
    image side's columns, both unreduced when the blocks above are
    reduced.  With it, the kernel vectors of the base columns are found
    and set as further columns on the base image side, [U_base | K], on
    the base window's rows; a kernel vector is a pivot column exactly
    when it is independent of the image inside the window and of the
    vectors before it, so the pivots past len(U_base) pick the generator
    vectors.  They must number the base rank, or ``InternalError`` is
    raised.
    """
    rng = Random(_PROBE_SEED)
    owned = cells.integral
    for g in sorted(set(v_blocks) | set(vector_blocks or ())):
        cols, n_base = v_blocks.get(g, ((), 0))
        kernel_side = Echelon(field)
        add = kernel_side.take if owned else kernel_side.insert
        for row in linear_rows(cols, cells).values():
            add(row)
        pivots = kernel_side.pivots
        base_pivots = sum(1 for c in pivots if c < n_base)

        u_cols, n_u_base = u_blocks.get(g, ((), 0))
        # A row's group: 0 outside V, 1 inside V only, 2 inside the base
        # window; 3 and 4 are groups 1 and 2 on the cell of a P column.
        own = cells.row_keys(cols)
        group = dict.fromkeys(own[n_base:], 1)
        group.update(dict.fromkeys(own[:n_base], 2))
        for c in pivots:
            group[own[c]] += 2
        rows = _image_groups(u_cols, cells, group)
        ech, counts = _image_counts(rows[:3], field, n_u_base, owned)
        closed = True
        if not ech.probe(rows[3] + rows[4], len(u_cols), rng):
            # ``ech`` may own the kept rows now, so the rows are built again.
            rows = _image_groups(u_cols, cells, group)
            every = [rows[0], rows[1] + rows[3], rows[2] + rows[4]]
            full, counts = _image_counts(every, field, n_u_base, owned)
            closed = len(full.rows) == len(ech.rows)
        outside, total, base_outside, base_all = counts
        base_rank = n_base - base_pivots - (base_all - base_outside)
        rank = len(cols) - len(pivots) - (total - outside)
        if base_rank < 0 or rank < 0:
            raise InternalError(
                f"truncated cohomology: block {g} has ranks {base_rank} and {rank}, "
                f"below zero"
            )
        if not closed:
            raise InternalError(
                f"truncated cohomology: the image of block {g} is not closed"
            )

        found: list = []
        base_cols: Sequence = ()
        if vector_blocks is not None:
            base_cols, base_u = vector_blocks.get(g, ((), ()))
            kernel = kernel_basis(
                list(linear_rows(base_cols, cells).values()), len(base_cols), field
            )
            # Column len(base_u) + i holds kernel[i] on the base window's rows.
            n_u = len(base_u)
            base_image_rows = linear_rows(base_u, cells)
            own = cells.row_keys(base_cols)
            for k, vec in enumerate(kernel, n_u):
                for j, scal in vec.items():
                    base_image_rows.setdefault(own[j], {})[k] = scal
            # The pivot columns are fixed by the rows' span, whatever
            # their order.
            ech = Echelon(field)
            for row in base_image_rows.values():
                ech.insert(row)
            found = [kernel[c - n_u] for c in ech.pivots if c >= n_u]
            if len(found) != base_rank:
                raise InternalError(
                    f"truncated cohomology: {len(found)} generators for rank {base_rank}"
                )
            base_cols = cells.decode(base_cols)
        yield g, base_cols, base_rank, rank, found


# ---------------------------------------------------------------------------
# Finite free complexes
# ---------------------------------------------------------------------------


class FreeComplex:
    """Finite complex of free modules over a polynomial ring.

    ``generators`` maps a degree to the generator names in that degree;
    ``differential`` maps a generator to ``{target name: coefficient}``
    where every target sits one degree higher.  The differential must
    square to zero exactly over the coefficient ring, which is checked at
    construction.
    """

    def __init__(self, ring: PolyRing, generators: dict, differential: dict):
        self.ring = ring
        self.generators = {
            int(d): list(names) for d, names in generators.items() if names
        }
        degree_of: dict[str, int] = {}
        for d, names in self.generators.items():
            for name in names:
                if name in degree_of:
                    raise ValueError(f"generator name {name!r} used twice")
                degree_of[name] = d
        self.degree_of = degree_of
        self.differential: dict[str, dict[str, Poly]] = {}
        for src, row in differential.items():
            if src not in degree_of:
                raise ValueError(f"differential on unknown generator {src!r}")
            clean = {}
            for tgt, coef in row.items():
                if tgt not in degree_of:
                    raise ValueError(f"differential into unknown generator {tgt!r}")
                if degree_of[tgt] != degree_of[src] + 1:
                    raise ValueError(
                        f"d({src}) hits {tgt} in degree {degree_of[tgt]}, "
                        f"expected degree {degree_of[src] + 1}"
                    )
                if coef.ring != ring:
                    raise ValueError("differential entry outside the coefficient ring")
                if not coef.is_zero():
                    clean[tgt] = coef
            if clean:
                self.differential[src] = clean
        self._check_square_zero()

    def _check_square_zero(self) -> None:
        for src, row in self.differential.items():
            acc: dict[str, Poly] = {}
            for mid, p in row.items():
                for tgt, q in self.differential.get(mid, {}).items():
                    acc[tgt] = acc.get(tgt, self.ring.zero()) + p * q
            for tgt, s in acc.items():
                if not s.is_zero():
                    raise ValueError(
                        f"d^2 != 0: component {src} -> {tgt} is {s.to_text()}"
                    )

    def degrees(self) -> list[int]:
        return sorted(self.generators)

    # -- layered cohomology ---------------------------------------------------

    def _entry_degree(self) -> int:
        """Common total degree of all differential entries.

        The layer-by-layer count needs every entry homogeneous of one
        degree s, so that d maps the degree-D layer into the degree-D+s
        layer and layers never mix.
        """
        degs: set[int] = set()
        for row in self.differential.values():
            for p in row.values():
                seen = {sum(e) for e in p.terms}
                if len(seen) != 1:
                    raise ValueError(
                        f"differential entry {p.to_text()} is not homogeneous; "
                        f"the layered cohomology count needs homogeneous entries"
                    )
                degs |= seen
        if len(degs) > 1:
            raise ValueError(
                f"differential entries of mixed degrees {sorted(degs)}; "
                f"the layered cohomology count needs a single entry degree"
            )
        return degs.pop() if degs else 1

    def cohomology(self, poly_bound: int = 8) -> "FreeComplexReport":
        """Cohomology dimensions found in polynomial layers up to the bound.

        Column (g, e) of degree i sits in layer deg(e), and d maps it into
        layer deg(e) + s for the entry degree s, so each block is one
        layer, its image stays in the window, and its count is exact
        (kernel minus incoming rank).  The only question a bound leaves
        open is whether higher layers still contribute, so the count is
        also taken in the rerun window.  A generator is a word with no
        letters, so the window is ``Window(0, poly_bound)``, and each
        layer's block lies inside it or outside it whole: one pass over
        the rerun window's layers gives both counts (``_window_blocks``).
        """
        if not self.generators:
            raise ValueError("complex has no generators")
        window = Window(0, poly_bound)
        s = self._entry_degree()
        mons = monomials_upto(self.ring.nvars, window.rerun.degree)
        cells = CellIndex(mons)

        def blocks(i: int, shift: int) -> dict:
            """Degree i's columns by the layer their image lands in."""
            out: dict[int, list] = {}
            for g in self.generators.get(i, []):
                first = cells.number(g) * len(mons)
                for k, e in enumerate(mons):
                    out.setdefault(sum(e) + shift, []).append(first + k)
            return {layer: (cols, len(cols) if layer <= window.cap(0) else 0)
                    for layer, cols in out.items()}

        degrees = range(self.degrees()[0], self.degrees()[-1] + 1)
        sides = {i: (blocks(i, 0), blocks(i - 1, s)) for i in degrees}
        cells.read_images(lambda g: [(tgt, exp, coef)
                                     for tgt, p in self.differential.get(g, {}).items()
                                     for exp, coef in p.terms.items()])
        dims, again = dict.fromkeys(degrees, 0), dict.fromkeys(degrees, 0)
        for i, (v_blocks, u_blocks) in sides.items():
            for _, _, base_rank, rank, _ in _window_blocks(
                    v_blocks, u_blocks, cells, self.ring.field):
                dims[i] += base_rank
                again[i] += rank
        status = "stable" if dims == again else "inconclusive_at_bound"
        ranks = {i: len(self.generators.get(i, [])) for i in degrees}
        return FreeComplexReport(ranks, dims, poly_bound, status)


class FreeComplexReport(Record):
    __slots__ = ("ranks", "dims", "poly_bound", "status")

    def __init__(self, ranks: dict, dims: dict, poly_bound: int, status: str):
        self.ranks = ranks            # degree -> number of free generators
        self.dims = dims              # degree -> cohomology dimension below the bound
        self.poly_bound = poly_bound
        self.status = status          # "stable" | "inconclusive_at_bound"

    def euler_ranks(self) -> int:
        return sum((1 if d % 2 == 0 else -1) * r for d, r in self.ranks.items())

    def euler_dims(self) -> int:
        return sum((1 if d % 2 == 0 else -1) * r for d, r in self.dims.items())

    def to_json(self) -> dict:
        return {
            "ranks": {str(d): self.ranks[d] for d in sorted(self.ranks)},
            "dims": {str(d): self.dims[d] for d in sorted(self.dims)},
            "poly_bound": self.poly_bound,
            "status": self.status,
            "euler": {"ranks": self.euler_ranks(), "cohomology": self.euler_dims()},
        }


def sphere_complex(field: Optional[Field] = None) -> FreeComplex:
    """Six-step complex over k[t0, t1] with one line of cohomology at each
    end of the middle.

    Two copies of the Koszul-style pattern (one generator, a pair, one
    generator) are glued along the degree 0/1 step.  Given the coefficient
    pattern below, the signs are the unique choice up to rescaling
    generators that makes d^2 = 0 on both three-term stretches, e.g.
    d(d(y)) = t1 d(z) - t0 d(x) = t1 t0 e - t0 t1 e = 0.  The cohomology
    is one-dimensional in degrees 0 and 3 and vanishes elsewhere, in
    every characteristic.
    """
    field = field or Field.rationals()
    ring = PolyRing(field, ("t0", "t1"))
    t0, t1 = ring.gens()
    generators = {
        -2: ["y"],
        -1: ["x", "z"],
        0: ["e"],
        1: ["m"],
        2: ["xbar", "zbar"],
        3: ["ybar"],
    }
    differential = {
        "y": {"z": t1, "x": -t0},
        "x": {"e": t1},
        "z": {"e": t0},
        "m": {"xbar": t0, "zbar": -t1},
        "xbar": {"ybar": t1},
        "zbar": {"ybar": t0},
    }
    return FreeComplex(ring, generators, differential)


# ---------------------------------------------------------------------------
# Truncated cohomology of morphism complexes
# ---------------------------------------------------------------------------


class CohomologyReport(Record):
    __slots__ = (
        "source", "target", "degree", "rank", "generators",
        "length_bound", "poly_bound", "status",
    )

    def __init__(
        self, source: str, target: str, degree: int, rank: int, generators: list,
        length_bound: int, poly_bound: int, status: str,
    ):
        self.source = source
        self.target = target
        self.degree = degree          # homological degree reported (usually <= 0)
        self.rank = rank
        self.generators = generators  # texts of independent closed elements
        self.length_bound = length_bound
        self.poly_bound = poly_bound
        self.status = status          # "stable" | "inconclusive_at_bound"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "rank": self.rank,
            "generators": list(self.generators),
            "bounds": {"len": self.length_bound, "polydeg": self.poly_bound},
            "status": self.status,
        }


def _default_image_slack(pres: Presentation) -> int:
    """How far past the kernel window the image window must reach.

    The differential drops exactly one letter before rewriting, so one
    extra letter suffices when rewriting never shortens words any
    further.  A rule whose right side is a lazy path with a nonzero
    scalar collapses two more letters per application, so boundaries of
    elements near the window top can then need sources three letters
    longer; the rerun at enlarged bounds still guards the cases where
    even that is not enough.
    """
    for rhs in pres.rules.values():
        for coef, path in rhs:
            if path.is_lazy and not coef.is_zero():
                return 3
    return 1


def _bounded_ranks(
    pres: Presentation,
    source: str,
    target: str,
    m: int,
    length_bound: int,
    poly_bound: int,
    image_slack: int,
    with_generators: bool,
) -> tuple[int, int, list]:
    """Bounded ranks of H^{-m}(Hom(source, target)) in the window and in
    the rerun window, and the window's generator texts.

    The kernel is cut out of the window V = ``Window(length_bound,
    poly_bound)`` of (irreducible word, monomial) cells by the exact
    differential.  The image comes from U, the window ``image_slack``
    letters longer at the same coefficient bound.  The rerun windows
    (``Window.rerun``) contain them, so one pass over the rerun windows'
    blocks gives both ranks (``_window_blocks``): the words are
    enumerated once, at the rerun bounds, and each block lists the
    window's columns first.  Before that, the unit pairs of a
    contractible letter (``UnitPairs``) are taken out: their cells are
    never listed, the image side's columns carry the reduced
    differential, and columns it leaves zero are dropped.  Both sides
    split into blocks by the presentation's inferred grading, packed in
    one int (``Presentation.grade``): a block key is a word's grade plus
    a monomial's, added once per word grade, so each column is one
    append in one pass over the words.  The coefficient of a basis term
    never interacts with the word, so each word's differential is read
    once, from the presentation's own ``word_differential``, and shifted
    across monomials: every column is a cell of one ``CellIndex``,
    numbered as its label (a V word, a reduced-image label of
    ``UnitPairs``, or an unreduced word on the generator path) is first
    seen, and once both sides are listed the index reads each label's
    image once for the whole call.  Generators come from the window's
    unreduced blocks, so their texts do not depend on the matching, and
    their count is checked against the reduced rank.  Each generator is
    checked to be closed before it is reported, and generators are
    listed in window order, word-major as the window is enumerated,
    whatever the blocks.
    """
    ring = pres.ring
    v = Window(length_bound, poly_bound)
    u = Window(length_bound + image_slack, poly_bound)
    words_u = pres.irreducible_words(source, target, u.rerun.length, -(m + 1))
    words_v = pres.irreducible_words(source, target, v.rerun.length, -m)
    mons = monomials_upto(ring.nvars, v.rerun.degree)
    mon_degrees = [sum(e) for e in mons]
    # Per degree, the places of the monomials of that degree, so a word
    # costs one loop per degree it labels; deglex, so the columns keep
    # monomial order.
    by_degree: list = [[] for _ in range(v.rerun.degree + 1)]
    for k, d in enumerate(mon_degrees):
        by_degree[d].append(k)

    zero_exp = (0,) * ring.nvars
    mon_grades = [pres.grade(lazy(source), e) for e in mons]
    cells = CellIndex(mons)

    def fill_blocks(words: list, window: Window, labels_of) -> dict:
        """grade -> (columns, number of ``window``'s columns), the columns
        of ``window``'s cells first, each part word-major.  A word's cells
        there are the prefix of its deglex-sorted monomials up to degree
        ``window.cap``, counted once per word length.  ``labels_of(w)``
        names the column of w at a monomial of each degree, or None to
        leave it out; each name is numbered in ``cells``.  A block key is
        the int word grade plus the int monomial grade, and each block
        keeps its window and other columns apart, so one pass fills it."""
        blocks: dict[int, tuple] = {}  # grade -> (window columns, other columns)
        # per word length, how many of a word's monomials lie in the window,
        # and the map shared by the lengths of each count: word grade -> per
        # monomial, the list that takes the column
        splits = [sum(1 for d in mon_degrees if d <= cap)
                  for cap in map(window.cap, range(window.rerun.length + 1))]
        by_split: dict[int, dict] = {}
        classes = [by_split.setdefault(split, {}) for split in splits]
        n = len(mons)
        for w in words:
            gw = pres.grade(w, zero_exp)
            length = len(w.arrows)
            per_mon = classes[length].get(gw)
            if per_mon is None:
                per_mon = classes[length][gw] = [
                    blocks.setdefault(gw + ge, ([], []))[k >= splits[length]]
                    for k, ge in enumerate(mon_grades)
                ]
            for g, places in zip(labels_of(w), by_degree):
                if g is not None:
                    first = cells.number(g) * n
                    for k in places:
                        per_mon[k].append(first + k)
        return {g: (inside + other, len(inside))
                for g, (inside, other) in blocks.items() if inside or other}

    matching = UnitPairs(pres, v, u, [w for w in words_u if u.cap(len(w.arrows)) >= 0])
    vector_blocks = None
    if with_generators:
        def unreduced(w: Path) -> list:
            return [w] * (v.rerun.degree + 1)

        def base(words: list, window: Window) -> dict:
            # Only the window's words, so no other word is numbered.
            words = [w for w in words if window.cap(len(w.arrows)) >= 0]
            return {g: cols[:n] for g, (cols, n) in
                    fill_blocks(words, window, unreduced).items()}

        u_cols = base(words_u, u)
        vector_blocks = {
            g: (cols, u_cols.get(g, [])) for g, cols in base(words_v, v).items()
        }
    v_blocks = fill_blocks(words_v, v, matching.v_labels)
    u_blocks = fill_blocks(words_u, u, matching.u_labels)
    cells.read_images(matching.image_of)
    rank = again = 0
    # (window position of the free column, text) per generator; the free
    # column is a kernel vector's largest index.
    generators: list[tuple] = []
    for _, cols, base_rank, block_rank, found in _window_blocks(
        v_blocks, u_blocks, cells, ring.field, vector_blocks
    ):
        rank += base_rank
        again += block_rank
        for vec in found:
            terms: dict[Path, Poly] = {}
            for j, scal in sorted(vec.items()):
                w, e = cols[j]
                terms[w] = terms.get(w, ring.zero()) + Poly(ring, {e: scal})
            elt = AlgebraElement(
                pres, {w: p for w, p in terms.items() if not p.is_zero()}
            )
            if not pres.differential_of(elt).is_zero():
                raise InternalError(
                    f"truncated cohomology: generator {elt.to_text()} is not closed"
                )
            w, e = cols[max(vec)]
            generators.append(((path_key(w), deglex_key(e)), elt.to_text()))
    return rank, again, [text for _, text in sorted(generators)]


def truncated_cohomology(
    pres: Presentation,
    source: str,
    target: str,
    m: int,
    length_bound: int = 8,
    poly_bound: int = 8,
    with_generators: bool = True,
) -> CohomologyReport:
    """Rank of the degree -m cohomology of Hom(source, target), bounded.

    Words are truncated at ``length_bound`` (longer on the image side by
    a slack chosen from the rule set) and coefficient monomials at
    ``poly_bound``.  The same rank is taken with both bounds enlarged by
    ``STABILITY_STEP``, in the same pass; agreement is reported as
    ``"stable"``, disagreement as ``"inconclusive_at_bound"`` with the
    smaller-bound rank.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    for vertex in (source, target):
        if vertex not in pres.quiver.vertices:
            raise ValueError(
                f"unknown vertex {vertex!r}; vertices are "
                + ", ".join(pres.quiver.vertices)
            )
    rank, again, generators = _bounded_ranks(
        pres, source, target, m, length_bound, poly_bound,
        _default_image_slack(pres), with_generators,
    )
    status = "stable" if rank == again else "inconclusive_at_bound"
    return CohomologyReport(
        source, target, -m, rank, generators, length_bound, poly_bound, status
    )


# ---------------------------------------------------------------------------
# H^0 as generators and relations
# ---------------------------------------------------------------------------


class H0Presentation(Value):
    """H^0 of a presentation whose arrows sit in degrees 0 and -1.

    Nothing has degree +1, so every degree-0 element is closed and H^0 is
    the degree-0 words modulo the two-sided ideal generated by the
    differentials of the degree -1 arrows (a degree -1 word contains
    exactly one degree -1 arrow, so the image of d is exactly that
    ideal).  Membership in the ideal is decided against the bounded
    window of products x * r * y with x, y irreducible degree-0 words,
    which ``window`` builds on each read; the elements asked together at
    one coefficient bound are answered from one reduction of the window,
    with each element as a right-hand side.
    """

    __slots__ = ("pres", "generators", "relations", "length_bound")

    def __init__(
        self, pres: Presentation, generators: list, relations: list, length_bound: int
    ):
        self.pres = pres
        self.generators = generators  # degree-0 arrow names
        self.relations = relations    # AlgebraElements generating the ideal
        self.length_bound = length_bound

    @property
    def window(self) -> list:
        """Products x * r * y with len(x) + len(y) <= length_bound."""
        pres = self.pres
        words: list[Path] = []
        for v in pres.quiver.vertices:
            words.extend(
                pres.irreducible_words(v, None, self.length_bound, homological_degree=0)
            )
        one = pres.ring.one()
        out = []
        for r in self.relations:
            some_path = next(iter(r.terms))
            rsrc = pres.path_source(some_path)
            rtgt = pres.path_target(some_path)
            rights = [w for w in words if pres.path_target(w) == rsrc]
            lefts = [w for w in words if pres.path_source(w) == rtgt]
            for y in rights:
                ry = pres.multiply(r, AlgebraElement(pres, {y: one}))
                if ry.is_zero():
                    continue
                for x in lefts:
                    if len(x.arrows) + len(y.arrows) > self.length_bound:
                        continue
                    xry = pres.multiply(AlgebraElement(pres, {x: one}), ry)
                    if not xry.is_zero():
                        out.append(xry)
        return out

    def contains_all(
        self, elements: Sequence[AlgebraElement], poly_bound: int = 8
    ) -> list[TruncatedSolveResult]:
        """Bounded two-sided ideal membership of each element.

        The elements are grouped by the bound they run at
        (``membership_bound``), and each group is one ``bounded_members``
        call on the window.  ``"member"`` comes with a verified witness,
        one coefficient per window element: the window elements weighted
        by it are summed in the algebra and must give the element back,
        or ``InternalError`` is raised.  A miss is always
        ``"inconclusive_at_bound"``, since a longer window or higher
        coefficient degree might still find a representation.  The
        elements are reduced first, then asked by ``_members``.
        """
        return self._members([self.pres.reduce(e) for e in elements], poly_bound)

    def _members(
        self, elements: Sequence[AlgebraElement], poly_bound: int
    ) -> list[TruncatedSolveResult]:
        """``contains_all`` of elements already in normal form."""
        window = self.window
        columns = [u.terms for u in window]
        column_degree = data_degree(columns)
        groups: dict[int, list[int]] = {}
        for i, element in enumerate(elements):
            bound = membership_bound(poly_bound, column_degree, element.terms)
            groups.setdefault(bound, []).append(i)
        results: list = [None] * len(elements)
        for bound, group in groups.items():
            answers = bounded_members(
                self.pres.ring, columns, [elements[i].terms for i in group], bound
            )
            for i, result in zip(group, answers):
                results[i] = result
        for element, result in zip(elements, results):
            if result.status == "member":
                rebuilt = self.pres.zero()
                for u, w in zip(window, result.witness):
                    if not w.is_zero():
                        rebuilt = rebuilt + u.scale(w)
                if rebuilt != element:
                    raise InternalError(
                        f"H^0 membership: the witness does not rebuild {element.to_text()}"
                    )
        return results

    def contains(self, element: AlgebraElement, poly_bound: int = 8) -> TruncatedSolveResult:
        """``contains_all`` for one element."""
        return self.contains_all([element], poly_bound)[0]

    def relation_holds(
        self, lhs: AlgebraElement, rhs: AlgebraElement, poly_bound: int = 8
    ) -> TruncatedSolveResult:
        """Do lhs and rhs agree in H^0?  Ideal membership of lhs - rhs."""
        return self.contains(lhs - rhs, poly_bound)

    def closure_check(self, poly_bound: int = 8) -> dict:
        """Two-sidedness guard for the membership window.

        Multiplying a window product (built one step short of the length
        bound) by any degree-0 arrow must land back inside the window
        span.  Structurally this is how the window is built, so a failure
        here means the word enumeration or the rule set is broken, which
        is exactly when membership answers should not be trusted.  A
        length bound below 1 leaves no inner window, so it is refused.
        """
        if self.length_bound < 1:
            raise ValueError(
                f"length bound {self.length_bound} leaves no window to close "
                f"(need at least 1)"
            )
        inner = H0Presentation(
            self.pres, self.generators, self.relations, self.length_bound - 1
        ).window
        products = []
        for u in inner:
            for name in self.generators:
                a = self.pres.arrow_element(name)
                for prod in (self.pres.multiply(a, u), self.pres.multiply(u, a)):
                    if not prod.is_zero():
                        products.append(prod)
        # ``multiply`` returns normal forms, so they are not reduced again.
        results = self._members(products, poly_bound)
        failures = [prod.to_text() for prod, res in zip(products, results)
                    if res.status != "member"]
        return {"ok": not failures, "checked": len(products), "failures": failures}

    def to_json(self) -> dict:
        return {
            "vertices": list(self.pres.quiver.vertices),
            "generators": list(self.generators),
            "relations": [r.to_text() for r in self.relations],
            "length_bound": self.length_bound,
        }


def h0_presentation(pres: Presentation, length_bound: int = 6) -> H0Presentation:
    """Generators and relations for H^0 of a degree {0, -1} presentation."""
    for a in pres.quiver.arrows:
        if a.deg not in (0, -1):
            raise ValueError(
                f"arrow {a.name} has degree {a.deg}; H^0 extraction handles "
                f"degrees 0 and -1 only"
            )
    relations = []
    for a in pres.quiver.arrows:
        if a.deg != -1:
            continue
        image = pres.differential_of(pres.arrow_element(a.name))
        if not image.is_zero():
            relations.append(image)
    generators = [a.name for a in pres.quiver.arrows if a.deg == 0]
    return H0Presentation(pres, generators, relations, length_bound)


# ---------------------------------------------------------------------------
# Worked families: the pagoda quivers and localisation consistency
# ---------------------------------------------------------------------------


def pagoda_quiver(n: int, field: Optional[Field] = None) -> Presentation:
    """One-vertex presentation over k[x, y] with loop differentials
    y + x^n and y - x^n.

    Away from characteristic two the two differentials span (y, x^n), so
    H^0 is k[x]/(x^n) of dimension n; in characteristic two they coincide
    and H^0 collapses to the infinite-dimensional k[x,y]/(y + x^n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    field = field or Field.rationals()
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.gens()
    return contraction_quiver(1, ring, (y + x ** n, y - x ** n))


class PagodaCharReport(Record):
    __slots__ = ("n", "char0", "char2", "distinguishes")

    def __init__(self, n: int, char0: dict, char2: dict, distinguishes: bool):
        self.n = n
        self.char0 = char0
        self.char2 = char2
        self.distinguishes = distinguishes

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "char0": dict(self.char0),
            "char2": dict(self.char2),
            "distinguishes": self.distinguishes,
        }


def char2_pagoda_check(n: int) -> PagodaCharReport:
    """Characteristic sensitivity of the pagoda H^0.

    Over the rationals the bounded H^0 rank stabilises at n and x^n is a
    certified ideal member; over F_2 the rank keeps growing with the
    bound and the x^n membership search comes back empty.  The report
    ``distinguishes`` when both sides behave as above; the bounded
    computation can certify membership but never non-membership, so the
    characteristic-two side is the honest
    ``inconclusive_at_bound``/growing-rank signature rather than a proof
    of nontriviality.  Words reach three letters and coefficients degree
    2n + 2.
    """
    length_bound, poly_bound = 3, 2 * n + 2
    sides = {}
    for label, field in (("char0", Field.rationals()), ("char2", Field.prime(2))):
        pres = pagoda_quiver(n, field)
        vertex = contraction_vertex(1)
        report = truncated_cohomology(
            pres, vertex, vertex, 0, length_bound, poly_bound,
            with_generators=False,
        )
        x = pres.ring.gen("x")
        member = h0_presentation(pres, length_bound).contains(
            AlgebraElement(pres, {lazy(vertex): x ** n}), poly_bound
        )
        sides[label] = {
            "h0_rank": report.rank,
            "h0_status": report.status,
            "x_power_membership": member.status,
        }
    distinguishes = (
        sides["char0"]["h0_status"] == "stable"
        and sides["char0"]["h0_rank"] == n
        and sides["char0"]["x_power_membership"] == "member"
        and sides["char2"]["h0_status"] == "inconclusive_at_bound"
        and sides["char2"]["x_power_membership"] == "inconclusive_at_bound"
    )
    return PagodaCharReport(n, sides["char0"], sides["char2"], distinguishes)


class LocalizationReport(Record):
    __slots__ = ("f", "bounds", "rows", "ok")

    def __init__(self, f: list, bounds: dict, rows: list, ok: bool):
        self.f = f          # coefficient texts
        self.bounds = bounds
        self.rows = rows    # one dict per homological degree
        self.ok = ok

    def to_json(self) -> dict:
        return {
            "f": list(self.f),
            "bounds": dict(self.bounds),
            "rows": [dict(r) for r in self.rows],
            "ok": self.ok,
        }


def localization_consistency(
    f: Sequence[Poly],
    max_degree: int = 4,
    length_bound: int = 4,
    poly_bound: int = 4,
) -> LocalizationReport:
    """Two roads to the same morphism cohomology.

    The one-vertex contraction quiver on scalars (f0, f1) should compute
    the same bounded cohomology as the two-vertex cyclic presentation on
    the same scalars with a free degree -1 loop adjoined at L0, measured
    between the surviving vertex L1 and itself: the degree -1 loops match
    the words a0*eps*b0 and b1*eps*a1, so a word of length k on the
    contraction side needs up to 3k letters on the localised side, and
    the localised window is three times longer.  Every row must agree and
    be stable for ``ok``; an inconclusive status is a failure, not a
    pass.  The default coefficient bound is the smallest one whose
    stability rerun already agrees for linear scalars; raising it
    multiplies the number of exact rows to reduce without changing the
    verdict.
    """
    f = list(f)
    if len(f) != 2:
        raise ValueError(f"need exactly two scalars, got {len(f)}")
    ring = f[0].ring
    gamma = contraction_quiver(1, ring, f)
    localized = drinfeld_localize(tube_algebra(1, ring, f), tube_vertex(0))
    rows = []
    ok = True
    for m in range(max_degree + 1):
        side_a = truncated_cohomology(
            gamma, contraction_vertex(1), contraction_vertex(1), m,
            length_bound, poly_bound, with_generators=False,
        )
        side_b = truncated_cohomology(
            localized, tube_vertex(1), tube_vertex(1), m,
            3 * length_bound, poly_bound, with_generators=False,
        )
        row_ok = (
            side_a.rank == side_b.rank
            and side_a.status == "stable"
            and side_b.status == "stable"
        )
        ok = ok and row_ok
        rows.append(
            {
                "degree": -m,
                "contraction_rank": side_a.rank,
                "localized_rank": side_b.rank,
                "contraction_status": side_a.status,
                "localized_status": side_b.status,
                "ok": row_ok,
            }
        )
    bounds = {
        "contraction": {"len": length_bound, "polydeg": poly_bound},
        "localized": {"len": 3 * length_bound, "polydeg": poly_bound},
    }
    return LocalizationReport([p.to_text() for p in f], bounds, rows, ok)
