"""Surface validation, Euler counts, and round-trips to the algebra side."""

import random

import pytest

from tube_ncr.exactalg import Field, PolyRing
from tube_ncr.arcmodel import (
    Face,
    MarkedSurface,
    annulus,
    disc,
    generate_presentation,
)
from tube_ncr.quivalg import (
    contraction_quiver,
    relabel_presentation,
    same_presentation,
    tube_algebra,
)

QQ = Field.rationals()


def euler_characteristic(surface):
    """Arc ends, less arcs and boundary segments, plus faces."""
    symbols = [s for cycle in surface.boundaries for s in cycle]
    ends = sum(1 for s in symbols if s[-1] in "+-")
    segments = len(symbols) - ends
    return ends - (len(surface.arc_names) + segments) + len(surface.faces)


@pytest.mark.parametrize("n", range(9))
def test_annulus_euler_characteristic(n):
    assert euler_characteristic(annulus(n)) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_disc_euler_characteristic(n):
    assert euler_characteristic(disc(n)) == 1


def test_annulus_counts():
    s = annulus(2)
    assert len(s.arc_names) == 3
    assert len(s.faces) == 3
    assert all(f.sides() == 4 for f in s.faces)
    s0 = annulus(0)
    assert len(s0.arc_names) == 1
    assert len(s0.faces) == 1


def test_disc_counts():
    s = disc(2)
    assert sorted(s.arc_names) == ["L1", "L2"]
    assert [f.sides() for f in s.faces] == [2, 4, 2]
    assert [f.mark for f in s.faces] == [0, 1, 2]
    with pytest.raises(ValueError):
        disc(0)


@pytest.mark.parametrize("maker,n", [(annulus, 3), (disc, 3)])
def test_marked_point_accounting(maker, n):
    s = maker(n)
    assert sum(1 for f in s.faces if f.mark is not None) == n + 1
    assert sorted(f.mark for f in s.faces) == list(range(n + 1))


@pytest.mark.parametrize("n", range(6))
def test_annulus_generates_tube_algebra(n):
    gen = generate_presentation(annulus(n))
    ring = PolyRing(QQ, tuple(f"t{i}" for i in range(n + 1)))
    assert same_presentation(gen.presentation, tube_algebra(n, ring))


@pytest.mark.parametrize("n", range(1, 6))
def test_disc_generates_contraction_quiver(n):
    gen = generate_presentation(disc(n))
    ring = PolyRing(QQ, tuple(f"t{i}" for i in range(n + 1)))
    expected = contraction_quiver(n, ring, list(ring.gens()))
    relabelled = relabel_presentation(
        gen.presentation, {f"L{i}": str(i) for i in range(1, n + 1)}
    )
    assert same_presentation(relabelled, expected)


def test_annulus_zero_gives_two_loops():
    pres = generate_presentation(annulus(0)).presentation
    assert pres.quiver.vertices == ("L0",)
    a0 = pres.quiver.by_name["a0"]
    b0 = pres.quiver.by_name["b0"]
    assert (a0.src, a0.tgt) == ("L0", "L0")
    assert (b0.src, b0.tgt) == ("L0", "L0")
    t0 = pres.ring.gen("t0")
    for word in (("a0", "b0"), ("b0", "a0")):
        product = pres.multiply(pres.arrow_element(word[0]), pres.arrow_element(word[1]))
        assert product == pres.element([(t0, pres.make_path((), "L0"))])


def test_generated_chord_degrees():
    pres = generate_presentation(disc(3)).presentation
    assert pres.quiver.by_name["alpha"].deg == -1
    assert pres.quiver.by_name["beta"].deg == -1
    assert pres.quiver.by_name["a1"].deg == 0
    assert pres.quiver.by_name["b2"].deg == 0


def test_normal_forms_agree_with_tube_algebra_on_random_words():
    n = 2
    gen = generate_presentation(annulus(n)).presentation
    ring = PolyRing(QQ, ("t0", "t1", "t2"))
    ref = tube_algebra(n, ring)
    rng = random.Random(7)
    by_src = {}
    for a in ref.quiver.arrows:
        by_src.setdefault(a.src, []).append(a.name)
    for _ in range(1000):
        tip = rng.choice(ref.quiver.vertices)
        word = []
        for _ in range(rng.randrange(1, 8)):
            name = rng.choice(by_src[tip])
            word.insert(0, name)
            tip = ref.quiver.by_name[name].tgt
        nf_ref = ref.element([(ref.ring.one(), ref.make_path(word))])
        nf_gen = gen.element([(gen.ring.one(), gen.make_path(word))])
        assert {
            (p.arrows, p.vertex): c.terms for p, c in nf_ref.terms.items()
        } == {(p.arrows, p.vertex): c.terms for p, c in nf_gen.terms.items()}


def test_surface_to_json():
    blob = disc(3).to_json()
    assert blob["faces"][0] == {"cycle": ["L1", "alpha"], "mark": 0}


def test_unmarked_bigon_rejected():
    with pytest.raises(ValueError, match="unmarked bigon"):
        MarkedSurface(
            [["L1+", "g", "L1-", "h"]],
            [Face(("L1", "g"), mark=0), Face(("L1", "h"), mark=None)],
        )


def test_large_face_rejected():
    # Hexagonal face: three arcs, three segments.
    boundary = ["L1+", "s0", "L2+", "s1", "L3+", "s2", "L1-", "s3", "L2-", "s4", "L3-", "s5"]
    with pytest.raises(ValueError, match="sides"):
        MarkedSurface(
            [boundary],
            [Face(("L1", "s0", "L2", "s1", "L3", "s2"), mark=0)],
        )


def test_duplicate_arc_end_rejected():
    with pytest.raises(ValueError, match="more than once"):
        MarkedSurface(
            [["L1+", "g", "L1+", "h"]],
            [],
        )


def test_dangling_arc_end_rejected():
    with pytest.raises(ValueError, match="no partner"):
        MarkedSurface(
            [["L1+", "g", "L2+", "h", "L2-", "k", "L3-", "j"]],
            [],
        )


def test_non_backtracking_quadrilateral_rejected():
    # Two arcs, segments both pointing the same way around the disc;
    # the face pairing then fails typing.
    boundary = ["L1+", "s0", "L2+", "s1", "L2-", "s2", "L1-", "s3"]
    faces = [
        Face(("L1", "s0", "L2", "s2"), mark=0),
        Face(("L2", "s1", "L2", "s3"), mark=1),
    ]
    with pytest.raises(ValueError, match="backtracking|loop"):
        surface = MarkedSurface([boundary], faces)
        generate_presentation(surface)
