"""Flat JSON wire format for paravectors and the other ``pv`` values.

A paravector travels as a JSON array of eight decimal reals in the fixed
order ``[a, d, bx, by, bz, cx, cy, cz]``: the scalar is ``a + i d`` and
the vector is ``(bx + i cx, by + i cy, bz + i cz)``; ``to_wire`` gives the
form of the others, and every ``pv`` operand is parsed here.  Serialization
uses Python's shortest round-trip float formatting, so parse/serialize
round-trips are bit exact.
"""

from __future__ import annotations

import json
import math

from .core import Paravector, _as_complex, _as_cvector, _as_real, _make
from .errors import ArityError, ParseError
from .transforms import RotationAxis, SpatialRotation


# what json.dumps(value, separators=(",", ":")) would build on every call
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _reject_constant(token):
    raise ParseError(f"non-finite number {token!r} is not allowed")


# what json.loads(text, parse_constant=_reject_constant) would build on every call
_decode = json.JSONDecoder(parse_constant=_reject_constant).decode


def load_number_array(text):
    """Parse a JSON array of finite numbers into a list of floats."""
    try:
        if type(text) is str and not text.startswith("\ufeff"):
            data = _decode(text)
        else:  # json.loads rejects a BOM, decodes bytes and refuses other types
            data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from None
    except (ValueError, RecursionError) as exc:  # int digit limit, deep nesting
        raise ParseError(f"unreadable number array: {exc}") from None
    if not isinstance(data, list):
        raise ParseError("expected a JSON array of numbers")
    out = []
    for i, item in enumerate(data):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ParseError(f"element {i} is not a number", position=i)
        try:
            value = float(item)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ParseError(f"element {i} is not finite", position=i)
        out.append(value)
    return out


def _wire_paravector(numbers, check):
    """The paravector of the eight wire components ``[a,d,bx,by,bz,cx,cy,cz]``.

    Each is checked to be a finite real when ``check`` is true; otherwise
    they must already be finite floats."""
    if not isinstance(numbers, (list, tuple)):  # a dict or set of eight has no order
        raise ArityError(f"expected 8 numbers, not {type(numbers).__name__}")
    if len(numbers) != 8:
        raise ArityError(f"expected 8 numbers, got {len(numbers)}")
    if check:
        numbers = [_as_real(n, "wire components") for n in numbers]
    a, d, bx, by, bz, cx, cy, cz = numbers
    return _make(complex(a, d), (complex(bx, cx), complex(by, cy), complex(bz, cz)))


def from_wire(numbers):
    """Build a paravector from a list or tuple of the eight wire components (finite reals)."""
    return _wire_paravector(numbers, True)


def to_wire(x):
    """Wire form of a ``pv`` value: the eight components of a paravector or
    ``RotationAxis``, ``[re, im]`` of a complex number, the real then the
    imaginary parts of a 3-vector, ``[nx, ny, nz, phi]`` of a
    ``SpatialRotation``, and a real number as a float.  Every number must be
    finite: a wire array has no other kind."""
    if isinstance(x, Paravector):
        s, (u, v, w) = x.s, x.v
        return [s.real, s.imag, u.real, v.real, w.real, u.imag, v.imag, w.imag]
    if isinstance(x, RotationAxis):
        return to_wire(x.value)
    if isinstance(x, SpatialRotation):
        return [*x.n, x.phi]
    if isinstance(x, complex):
        z = _as_complex(x, "wire values")
        return [z.real, z.imag]
    if isinstance(x, (int, float)):
        return _as_real(x, "wire values")
    u, v, w = _as_cvector(x)
    return [u.real, v.real, w.real, u.imag, v.imag, w.imag]


def parse_paravector(text):
    """Parse the wire form of one paravector."""
    return _wire_paravector(load_number_array(text), False)


def _parse_vector(text):
    numbers = load_number_array(text)
    if len(numbers) == 3:
        return tuple(map(complex, numbers))
    if len(numbers) == 6:
        return tuple(map(complex, numbers[:3], numbers[3:]))
    raise ArityError(f"expected 3 or 6 numbers for a vector, got {len(numbers)}")


def _parse_rotation(text):
    numbers = load_number_array(text)
    if len(numbers) != 4:
        raise ArityError(f"expected 4 numbers [nx,ny,nz,phi], got {len(numbers)}")
    return SpatialRotation.about(numbers[:3], numbers[3])


def serialize_paravector(p):
    """Compact JSON wire form of a paravector.

    JSON writes a finite float as ``repr`` does, and every component of a
    paravector is finite."""
    return "[" + ",".join(map(float.__repr__, to_wire(p))) + "]"


def serialize_numbers(numbers):
    """Compact JSON array of floats."""
    return _compact([float(n) for n in numbers])
