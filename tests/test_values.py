"""Value semantics shared by every immutable paravec type.

Each value compares and hashes by its fields, shows them in its ``repr``,
refuses assignment and deletion, has no ``__dict__``, and survives
``pickle`` and ``copy.deepcopy`` without running its constructor again.
"""

import copy
import pickle

import pytest

from paravec import (
    DEFAULT_TOL,
    ONE,
    Angle,
    Classification,
    Matrix2,
    Matrix4,
    Orientation,
    Paravector,
    RotationAxis,
    SpatialRotation,
    Tolerance,
    classify,
    to_pauli,
)
from paravec.fuzz import FuzzReport, Property, PropertyResult

# (build, repr, __match_args__): build() makes a new value with the same fields
VALUES = {
    "Paravector": (
        lambda: Paravector(1 + 2j, (3j, 0j, -1 + 0j)),
        "Paravector(s=(1+2j), v=(3j, 0j, (-1+0j)))",
        ("s", "v"),
    ),
    "Tolerance": (lambda: Tolerance(1e-8, 0.5), "Tolerance(abs=1e-08, rel=0.5)", ("abs", "rel")),
    "Classification": (
        lambda: classify(ONE),
        "Classification(det=(1+0j), is_proper=True, is_singular=False, is_orthogonal=True, "
        "is_special=True, is_unitar=True, tol=Tolerance(abs=1e-09, rel=1e-09))",
        ("det", "is_proper", "is_singular", "is_orthogonal", "is_special", "is_unitar", "tol"),
    ),
    "Angle": (
        lambda: Angle(ONE, Orientation.LEFT),
        "Angle(value=Paravector(s=(1+0j), v=(0j, 0j, 0j)), "
        "orientation=<Orientation.LEFT: 'left'>)",
        ("value", "orientation"),
    ),
    "RotationAxis": (
        lambda: RotationAxis(ONE),
        "RotationAxis(value=Paravector(s=(1+0j), v=(0j, 0j, 0j)))",
        ("value",),
    ),
    "SpatialRotation": (
        lambda: SpatialRotation((0, 0, 1), 0.5),
        "SpatialRotation(n=(0.0, 0.0, 1.0), phi=0.5, axis_defined=True)",
        ("n", "phi", "axis_defined"),
    ),
    "Matrix4": (
        Matrix4.identity,
        "Matrix4((((1+0j), 0j, 0j, 0j), (0j, (1+0j), 0j, 0j), "
        "(0j, 0j, (1+0j), 0j), (0j, 0j, 0j, (1+0j))))",
        ("rows",),
    ),
    "Matrix2": (lambda: to_pauli(ONE), "Matrix2((((1+0j), 0j), (0j, (1+0j))))", ("rows",)),
    "FuzzReport": (
        lambda: FuzzReport(1, 2, DEFAULT_TOL, None, (PropertyResult("ring/x", 2, 0, None),)),
        "FuzzReport(seed=1, trials=2, tol=Tolerance(abs=1e-09, rel=1e-09), mutant=None, "
        "properties=(PropertyResult(name='ring/x', passes=2, fails=0, counterexample=None),))",
        ("seed", "trials", "tol", "mutant", "properties"),
    ),
}

CASES = pytest.mark.parametrize("build, text, fields", VALUES.values(), ids=VALUES.keys())


@CASES
def test_equal_fields_compare_and_hash_equal(build, text, fields):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.__eq__(object()) is NotImplemented
    assert a != object()


@CASES
def test_repr_and_match_args(build, text, fields):
    value = build()
    assert repr(value) == text
    assert type(value).__match_args__ == fields


@CASES
def test_attributes_cannot_be_set_or_deleted(build, text, fields):
    value = build()
    before = hash(value)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert hash(value) == before and value == build()


@CASES
def test_pickle_and_deepcopy_round_trip_without_validation(build, text, fields, monkeypatch):
    value = build()
    cls = type(value)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the constructor ran again")

    monkeypatch.setattr(cls, "__init__", refuse)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies.append(copy.deepcopy(value))
    for twin in copies:
        assert type(twin) is cls and twin == value and repr(twin) == text


@pytest.mark.parametrize(
    "cls", [Classification, Property, PropertyResult, FuzzReport], ids=lambda c: c.__name__
)
def test_records_are_built_from_exactly_their_fields_in_order(cls):
    fields = cls.__match_args__
    record = cls(*range(len(fields)))
    assert record._fields() == tuple(range(len(fields)))
    for count in (len(fields) - 1, len(fields) + 1):
        with pytest.raises(TypeError):
            cls(*range(count))
