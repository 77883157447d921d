"""Marked-surface front-end: boundary-path quivers from arc systems.

A surface is described purely combinatorially: boundary circles are
cyclic lists alternating arc-end symbols ("L0+", "L0-") with boundary
segment names, and faces are cyclic lists alternating arc names with
segment names, optionally carrying one marked point (a variable index).

``generate_presentation`` turns such a surface into a quiver
presentation: vertices are the arcs, arrows are the boundary segments
(directed from the arc-end before the segment to the one after it),
marked quadrilaterals emit backtracking rules with the mark's variable
as scalar, and marked bigons emit a squared-to-zero degree -1 chord
whose differential is the mark's variable times the identity.

The two shipped constructors, ``annulus(n)`` and ``disc(n)``, reproduce
the cyclic tube presentation and the linear contraction presentation
respectively (up to renaming vertices; see the round-trip tests).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactalg import Field, PolyRing, Record, Value
from .quivalg import Arrow, Presentation, Quiver, lazy


def _is_arc_end(symbol: str) -> bool:
    return len(symbol) > 1 and symbol[-1] in "+-"


class Face(Value):
    __slots__ = ("cycle", "mark")

    def __init__(self, cycle: tuple, mark: Optional[int] = None):
        self.cycle = cycle
        self.mark = mark

    def sides(self) -> int:
        return len(self.cycle)


class MarkedSurface:
    """Boundary cycles + polygon faces + marked points, fully validated."""

    def __init__(self, boundaries: Sequence[Sequence[str]], faces: Sequence[Face]):
        self.boundaries = tuple(tuple(b) for b in boundaries)
        self.faces = tuple(faces)
        self._validate()

    # -- derived data --------------------------------------------------------

    @property
    def arc_names(self) -> list:
        seen = []
        for cycle in self.boundaries:
            for sym in cycle:
                if _is_arc_end(sym) and sym[:-1] not in seen:
                    seen.append(sym[:-1])
        return seen

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        ends = []
        segments = []
        for cycle in self.boundaries:
            if len(cycle) % 2 != 0 or not cycle:
                raise ValueError(
                    f"boundary cycle must alternate arc-ends and segments: {cycle}"
                )
            kinds = [_is_arc_end(s) for s in cycle]
            if any(kinds[i] == kinds[i - 1] for i in range(len(kinds))):
                raise ValueError(
                    f"boundary cycle must alternate arc-ends and segments: {cycle}"
                )
            for sym in cycle:
                (ends if _is_arc_end(sym) else segments).append(sym)
        if len(set(ends)) != len(ends):
            raise ValueError("an arc-end appears more than once on the boundary")
        if len(set(segments)) != len(segments):
            raise ValueError("a segment name appears more than once")
        end_set = set(ends)
        for end in ends:
            partner = end[:-1] + ("-" if end.endswith("+") else "+")
            if partner not in end_set:
                raise ValueError(f"arc-end {end} has no partner {partner}")
        arc_set = set(self.arc_names)
        seg_set = set(segments)
        seg_face_count: dict = {}
        for idx, face in enumerate(self.faces):
            cycle = face.cycle
            if len(cycle) > 4:
                raise ValueError(
                    f"face {idx} has {len(cycle)} sides; only bigons and "
                    f"quadrilaterals are supported"
                )
            if len(cycle) not in (2, 4):
                raise ValueError(
                    f"face {idx} must alternate arcs and segments: {cycle}"
                )
            for pos, sym in enumerate(cycle):
                expect_arc = pos % 2 == 0
                if expect_arc and sym not in arc_set:
                    raise ValueError(f"face {idx}: unknown arc {sym!r}")
                if not expect_arc:
                    if sym not in seg_set:
                        raise ValueError(f"face {idx}: unknown segment {sym!r}")
                    seg_face_count[sym] = seg_face_count.get(sym, 0) + 1
            if face.mark is not None and (
                not isinstance(face.mark, int) or face.mark < 0
            ):
                raise ValueError(f"face {idx}: mark must be a nonnegative integer")
            if len(cycle) == 2 and face.mark is None:
                raise ValueError(
                    f"face {idx} is an unmarked bigon; its chord would become "
                    f"invertible in cohomology"
                )
        for seg in segments:
            if seg_face_count.get(seg, 0) != 1:
                raise ValueError(
                    f"segment {seg!r} must bound exactly one face, "
                    f"bounds {seg_face_count.get(seg, 0)}"
                )

    # -- serialisation ---------------------------------------------------------

    def to_json(self) -> dict:
        faces = []
        for f in self.faces:
            entry = {"cycle": list(f.cycle)}
            if f.mark is not None:
                entry["mark"] = f.mark
            faces.append(entry)
        return {"boundaries": [list(b) for b in self.boundaries], "faces": faces}


class GeneratedPresentation(Record):
    __slots__ = ("presentation",)

    def __init__(self, presentation: Presentation):
        self.presentation = presentation


def annulus(n: int) -> MarkedSurface:
    """n+1 parallel arcs across an annulus, one marked quadrilateral
    between each consecutive pair (indices cyclic)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m = n + 1
    outer = []
    for i in range(m):
        outer.extend([f"L{i}+", f"a{i}"])
    inner = ["L0-"]
    for i in range(n, 0, -1):
        inner.extend([f"b{i}", f"L{i}-"])
    inner.append("b0")
    faces = [
        Face((f"L{i}", f"a{i}", f"L{(i + 1) % m}", f"b{i}"), mark=i)
        for i in range(m)
    ]
    return MarkedSurface([outer, inner], faces)


def disc(n: int) -> MarkedSurface:
    """n parallel chords of a disc: marked bigons at both ends of the
    chord sequence, marked quadrilaterals in between."""
    if n < 1:
        raise ValueError("n must be >= 1 (excising the last arc empties the disc)")
    boundary = []
    for i in range(n, 1, -1):
        boundary.extend([f"L{i}+", f"b{i - 1}"])
    boundary.extend(["L1+", "alpha", "L1-"])
    for i in range(1, n):
        boundary.extend([f"a{i}", f"L{i + 1}-"])
    boundary.append("beta")
    faces = [Face(("L1", "alpha"), mark=0)]
    for i in range(1, n):
        faces.append(Face((f"L{i}", f"a{i}", f"L{i + 1}", f"b{i}"), mark=i))
    faces.append(Face((f"L{n}", "beta"), mark=n))
    return MarkedSurface([boundary], faces)


def generate_presentation(
    surface: MarkedSurface, field: Optional[Field] = None
) -> GeneratedPresentation:
    """Boundary-path presentation of a bigon/quadrilateral arc system."""
    field = field or Field.rationals()
    marks = [f.mark for f in surface.faces if f.mark is not None]
    nvars = (max(marks) + 1) if marks else 0
    ring = PolyRing(field, tuple(f"t{i}" for i in range(nvars)))

    # Face containing each segment decides the chord's degree.
    seg_face = {}
    for idx, face in enumerate(surface.faces):
        for pos, sym in enumerate(face.cycle):
            if pos % 2 == 1:
                seg_face[sym] = idx

    # Arrows: one per segment, running between the neighbouring arc-ends.
    arrows = []
    arrow_by_name = {}
    for cycle in surface.boundaries:
        size = len(cycle)
        for pos, sym in enumerate(cycle):
            if _is_arc_end(sym):
                continue
            src = cycle[pos - 1][:-1]
            tgt = cycle[(pos + 1) % size][:-1]
            deg = -1 if surface.faces[seg_face[sym]].sides() == 2 else 0
            arrow = Arrow(sym, src, tgt, deg)
            arrows.append(arrow)
            arrow_by_name[sym] = arrow

    rules: dict = {}
    differential: dict = {}

    for idx, face in enumerate(surface.faces):
        scalar = ring.gen(f"t{face.mark}") if face.mark is not None else ring.one()
        if face.sides() == 2:
            chord = arrow_by_name[face.cycle[1]]
            if chord.src != chord.tgt or chord.src != face.cycle[0]:
                raise ValueError(
                    f"face {idx}: bigon chord {chord.name} is not a loop at "
                    f"{face.cycle[0]}"
                )
            rules[(chord.name, chord.name)] = []
            differential[chord.name] = [(scalar, lazy(chord.src))]
        else:
            x = arrow_by_name[face.cycle[1]]
            y = arrow_by_name[face.cycle[3]]
            if x.src != y.tgt or x.tgt != y.src:
                raise ValueError(
                    f"face {idx}: quadrilateral sides {x.name}, {y.name} do "
                    f"not form a backtracking pair"
                )
            rules[(x.name, y.name)] = [(scalar, lazy(x.tgt))]
            rules[(y.name, x.name)] = [(scalar, lazy(y.tgt))]

    pres = Presentation(
        Quiver(tuple(surface.arc_names), tuple(arrows)),
        ring,
        rules,
        differential,
    )
    return GeneratedPresentation(pres)
