"""Tests for the plain records every module builds its values and reports
with: equality by class and fields, value hashing for the records that
are not changed once built, none for reports, and a dataclass-style repr."""

import pytest

from tube_ncr.arcmodel import Face, GeneratedPresentation
from tube_ncr.cohom import (
    CohomologyReport,
    FreeComplexReport,
    H0Presentation,
    LocalizationReport,
    PagodaCharReport,
    Window,
)
from tube_ncr.exactalg import TruncatedSolveResult
from tube_ncr.quivalg import Arrow, ConfluenceReport
from tube_ncr.toric import (
    BaseChangeReport,
    EndComparisonReport,
    SectionBasis,
    WeightMonomial,
)
from tube_ncr.twcat import AInfReport, BasisMorphism, HalfTwistReport

# (class, field values, one other value per field, hashed by value)
RECORDS = [
    (WeightMonomial, [(1, 0), (0, 2)], [(0, 1), (2, 0)], True),
    (Arrow, ["a", "L0", "L1", 0], ["b", "L1", "L0", -1], True),
    (Window, [2, 3], [3, 4], True),
    (BasisMorphism, ["f", "X", "Y", 0], ["g", "Y", "X", 1], True),
    (Face, [("L0", "a0"), 1], [("L1", "a1"), None], True),
    (TruncatedSolveResult, [4, "member", [1]], [5, "inconclusive_at_bound", None], False),
    (ConfluenceReport, [True, 3, []], [False, 4, [("a*b", "0", "b")]], False),
    (FreeComplexReport, [{0: 1}, {0: 1}, 4, "stable"],
     [{0: 2}, {0: 0}, 5, "inconclusive_at_bound"], False),
    (CohomologyReport, ["L0", "L1", 0, 1, ["x"], 4, 4, "stable"],
     ["L1", "L0", -1, 2, ["y"], 5, 5, "inconclusive_at_bound"], False),
    (H0Presentation, ["pres", ["a0"], [], 2], ["other", ["b0"], ["x"], 3], False),
    (PagodaCharReport, [2, {"h0_rank": 2}, {}, True], [3, {}, {"h0_rank": 2}, False], False),
    (LocalizationReport, [["x", "y"], {"len": 2}, [{}], True],
     [["y", "x"], {"len": 3}, [], False], False),
    (SectionBasis, [1, 2, 4, (0, 1, 0), "s", "t", ["m"], [{}], ["r"]],
     [2, 3, 5, (1, 0, 0), "t", "s", [], [], []], False),
    (EndComparisonReport, [1, 4, True, {(0, 0): {0: 1}}, {"a0": "x0"}, [], 6, 8],
     [2, 5, False, {}, {}, [{"word": "a0"}], 7, 9], False),
    (BaseChangeReport, [1, 4, True, ["x", "y"], 6, []],
     [2, 5, False, ["y", "x"], 7, [{"word": "a0"}]], False),
    (AInfReport, [True, {"2": 5}, 0, []], [False, {}, 1, [(2, ("f", "g"), "x")]], False),
    (HalfTwistReport, [2, True, {"left": {}}], [3, False, {}], False),
    (GeneratedPresentation, ["pres"], ["other"], False),
]


@pytest.mark.parametrize(
    "cls, values, others, hashed", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_equality_hash_and_repr(cls, values, others, hashed):
    record = cls(*values)
    names = cls.__slots__
    assert len(names) == len(values) == len(others)
    assert [getattr(record, name) for name in names] == values
    # The same fields by keyword give an equal record.
    twin = cls(**dict(zip(names, values)))
    assert twin == record and not twin != record
    if hashed:
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
    # One field different: not equal.
    for i, other in enumerate(others):
        changed = list(values)
        changed[i] = other
        assert cls(*changed) != record
    # Equal fields in another class: not equal.
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert subclass(*values) != record
    assert record != tuple(values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_negative_window_bound_names_the_window():
    with pytest.raises(ValueError) as exc:
        Window(-1, 0)
    assert str(exc.value) == "window bounds must be >= 0, got Window(length=-1, degree=0)"


def test_defaults_are_fresh_per_record():
    assert Arrow("a", "L0", "L1") == Arrow("a", "L0", "L1", 0)
    assert Face(("L0", "a0")).mark is None
    assert TruncatedSolveResult(4, "member").witness is None
    first, second = EndComparisonReport(1, 4, True), EndComparisonReport(1, 4, True)
    assert first == second
    assert first.rank_table == {} and first.rank_table is not second.rank_table
    assert first.generator_images is not second.generator_images
    assert first.mismatches == [] and first.mismatches is not second.mismatches
    assert (first.basis_pairs_checked, first.products_checked) == (0, 0)
    first, second = BaseChangeReport(1, 4, True), BaseChangeReport(1, 4, True)
    assert first.substitution == [] and first.substitution is not second.substitution
    assert first.mismatches is not second.mismatches
    assert first.products_checked == 0
    first, second = HalfTwistReport(2, True), HalfTwistReport(2, True)
    assert first.wrappings == {} and first.wrappings is not second.wrappings
