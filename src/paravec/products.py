"""Oriented integrated products and the scalar/vector products they carry.

The right product pairs the first operand with the reversion of the
second; the left product reverses the first operand instead.  Both share
the same scalar part, which is the paravector scalar product; the vector
part is the oriented paravector vector product.
"""

from __future__ import annotations

import cmath
from enum import Enum

from . import core
from .core import vdot
from .errors import ValidationError


class Orientation(Enum):
    RIGHT = "right"
    LEFT = "left"


# the members bound once: a module global is read faster than an enum member
_RIGHT, _LEFT = Orientation.RIGHT, Orientation.LEFT
_BAD_ORIENTATION = "orientation must be Orientation.RIGHT or Orientation.LEFT"


def integrated(a, b, orientation=Orientation.RIGHT):
    """Oriented integrated product of two paravectors."""
    if orientation is _RIGHT:
        return core.mul(a, b.rev())
    if orientation is _LEFT:
        return core.mul(a.rev(), b)
    raise TypeError(_BAD_ORIENTATION)


def scalar_product(a, b):
    """s1*s2 - v1.v2, the shared scalar part of both oriented products.

    Raises :class:`ValidationError` when it overflows, as ``det`` does.
    """
    d = a.s * b.s - vdot(a.v, b.v)
    if not cmath.isfinite(d):
        raise ValidationError("scalar product overflows: components too large")
    return d


def vector_product(a, b, orientation=Orientation.RIGHT):
    """Vector part of the oriented integrated product, as a complex 3-tuple."""
    return integrated(a, b, orientation).v
