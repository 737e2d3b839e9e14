"""Matrix representations of paravectors.

``to_matrix4`` embeds a paravector into the 4x4 complex matrix whose
first row lists the four complex components and whose remaining rows
repeat them in a fixed cross pattern; the embedding turns paravector
sums and products into matrix sums and products, paravector conjugation
into Hermitian conjugation, and squares the determinant.  ``to_pauli``
gives the 2x2 representation over the sigma-matrix basis, which
preserves products and the determinant exactly.

The matrix classes here deliberately carry their own multiplication, LU
determinant and Gauss-Jordan inverse instead of delegating to the
paravector code, so they can serve as an independent differential-testing
oracle for it.  Each size has them as straight-line kernels
(``_product``, ``_det``, ``_inverse``); the naive n x n loops in
``tests/_oracles.py`` are their bit-level reference.
"""

from __future__ import annotations

import cmath
from operator import add

from .core import DEFAULT_TOL, Paravector, _as_complex, _rows_scale, _Value, format_complex
from .errors import NotAParavectorMatrix, ValidationError


def _check_rows(rows, n):
    try:
        rows = tuple(tuple(_as_complex(e, "matrix entries") for e in row) for row in rows)
    except TypeError:  # the rows, or one row, cannot be iterated
        raise ValidationError(f"expected a {n}x{n} matrix") from None
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValidationError(f"expected a {n}x{n} matrix")
    return rows


_IDENTITY_ROWS = {
    n: tuple(tuple(1 + 0j if i == j else 0j for j in range(n)) for i in range(n))
    for n in (2, 4)
}


class _SquareMatrix(_Value):
    """An immutable n x n complex matrix, its ``rows`` an n-tuple of n-tuples."""

    __match_args__ = __slots__ = ("rows",)
    _n = 0

    def __init__(self, rows):
        self._set_fields((_check_rows(rows, self._n),))

    @classmethod
    def _trusted(cls, rows):
        """Trusted result constructor for an n-tuple of n-tuples of complex.

        Full validation runs only when the entry sum is not finite."""
        if not cmath.isfinite(sum(map(sum, rows))):
            return cls(rows)
        m = object.__new__(cls)
        cls._setters[0](m, rows)
        return m

    @classmethod
    def identity(cls):
        return cls(_IDENTITY_ROWS[cls._n])

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._trusted(
            tuple(
                [
                    tuple([a + b for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.rows, other.rows)
                ]
            )
        )

    def __matmul__(self, other):
        """Row-by-column product, each entry ``0j + a0*b0 + a1*b1 + ...``."""
        if type(other) is not type(self):
            return NotImplemented
        return self._trusted(self._product(self.rows, other.rows))

    def conj_transpose(self):
        return self._trusted(
            tuple([tuple([e.conjugate() for e in col]) for col in zip(*self.rows)])
        )

    def det(self):
        """Determinant via LU elimination with partial pivoting.

        Raises :class:`ValidationError` when it overflows."""
        d = self._det(self.rows)
        if not cmath.isfinite(d):
            raise ValidationError("determinant overflows: components too large")
        return d

    def inverse(self):
        """Inverse via Gauss-Jordan elimination with partial pivoting.

        Raises ``ValueError`` for a singular matrix."""
        return self._trusted(self._inverse(self.rows))

    def approx_eq(self, other, tol=DEFAULT_TOL):
        """Entrywise closeness, as ``core.approx_eq``: the largest entry deviation
        within ``tol.abs`` unscaled, else within ``tol.linear`` of the largest part."""
        if type(other) is not type(self):  # as for ==, another size is never close
            return False
        try:
            error = max([abs(a - b) for a, b in zip(sum(self.rows, ()), sum(other.rows, ()))])
        except OverflowError:  # a modulus beyond the float range is larger than any threshold
            return False
        if error <= tol.abs:
            return True
        return error <= tol.linear(_rows_scale(*self.rows, *other.rows))

    def __str__(self):
        return format_matrix(self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows!r})"


# Each size writes its kernels out step by step.  A step pivots on the first
# strict maximum of ``abs`` in its column, exchanges that row with the pivot
# position, and then does what the naive loops in ``tests/_oracles.py`` do,
# operation for operation, so every result is bit-identical to theirs, signed
# zeros included: the determinant starts from ``1 + 0j`` and multiplies in
# every pivot; the inverse divides the rest of the pivot row, identity half
# included, and leaves untouched a row that is zero in the pivot column.  Rows
# lose one column per elimination step; there ``q<j>`` is the pivot row's
# entry in column j.


class Matrix4(_SquareMatrix):
    """A 4x4 complex matrix with self-contained arithmetic."""

    __slots__ = ()
    _n = 4

    @staticmethod
    def _product(rows, other):
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (t0, t1, t2, t3) = other
        out = []
        for a0, a1, a2, a3 in rows:
            out.append(
                (
                    0j + a0 * p0 + a1 * q0 + a2 * r0 + a3 * t0,
                    0j + a0 * p1 + a1 * q1 + a2 * r1 + a3 * t1,
                    0j + a0 * p2 + a1 * q2 + a2 * r2 + a3 * t2,
                    0j + a0 * p3 + a1 * q3 + a2 * r3 + a3 * t3,
                )
            )
        return tuple(out)

    @staticmethod
    def _det(rows):
        a, b, c, d = rows
        result = 1 + 0j
        m, k = abs(a[0]), 0
        if (x := abs(b[0])) > m:
            m, k = x, 1
        if (x := abs(c[0])) > m:
            m, k = x, 2
        if (x := abs(d[0])) > m:
            m, k = x, 3
        if m == 0.0:
            return 0j
        if k == 1:
            a, b, result = b, a, -result
        elif k == 2:
            a, c, result = c, a, -result
        elif k == 3:
            a, d, result = d, a, -result
        p, q1, q2, q3 = a
        result *= p
        f = b[0] / p
        b = (b[1] - f * q1, b[2] - f * q2, b[3] - f * q3)
        f = c[0] / p
        c = (c[1] - f * q1, c[2] - f * q2, c[3] - f * q3)
        f = d[0] / p
        d = (d[1] - f * q1, d[2] - f * q2, d[3] - f * q3)
        m, k = abs(b[0]), 1
        if (x := abs(c[0])) > m:
            m, k = x, 2
        if (x := abs(d[0])) > m:
            m, k = x, 3
        if m == 0.0:
            return 0j
        if k == 2:
            b, c, result = c, b, -result
        elif k == 3:
            b, d, result = d, b, -result
        p, q2, q3 = b
        result *= p
        f = c[0] / p
        c = (c[1] - f * q2, c[2] - f * q3)
        f = d[0] / p
        d = (d[1] - f * q2, d[2] - f * q3)
        m = abs(c[0])
        if (x := abs(d[0])) > m:
            m, c, d, result = x, d, c, -result
        if m == 0.0:
            return 0j
        p, q3 = c
        result *= p
        f = d[0] / p
        p = d[1] - f * q3
        if abs(p) == 0.0:
            return 0j
        result *= p
        return result

    @staticmethod
    def _inverse(rows):
        a, b, c, d = map(add, rows, _IDENTITY_ROWS[4])
        m, k = abs(a[0]), 0
        if (x := abs(b[0])) > m:
            m, k = x, 1
        if (x := abs(c[0])) > m:
            m, k = x, 2
        if (x := abs(d[0])) > m:
            m, k = x, 3
        if m == 0.0:
            raise ValueError("matrix is singular")
        if k == 1:
            a, b = b, a
        elif k == 2:
            a, c = c, a
        elif k == 3:
            a, d = d, a
        p = a[0]
        a = q1, q2, q3, q4, q5, q6, q7 = (
            a[1] / p, a[2] / p, a[3] / p, a[4] / p, a[5] / p, a[6] / p, a[7] / p
        )
        if (f := b[0]) != 0:
            b = (b[1] - f * q1, b[2] - f * q2, b[3] - f * q3, b[4] - f * q4,
                 b[5] - f * q5, b[6] - f * q6, b[7] - f * q7)
        else:
            b = b[1:]
        if (f := c[0]) != 0:
            c = (c[1] - f * q1, c[2] - f * q2, c[3] - f * q3, c[4] - f * q4,
                 c[5] - f * q5, c[6] - f * q6, c[7] - f * q7)
        else:
            c = c[1:]
        if (f := d[0]) != 0:
            d = (d[1] - f * q1, d[2] - f * q2, d[3] - f * q3, d[4] - f * q4,
                 d[5] - f * q5, d[6] - f * q6, d[7] - f * q7)
        else:
            d = d[1:]
        m, k = abs(b[0]), 1
        if (x := abs(c[0])) > m:
            m, k = x, 2
        if (x := abs(d[0])) > m:
            m, k = x, 3
        if m == 0.0:
            raise ValueError("matrix is singular")
        if k == 2:
            b, c = c, b
        elif k == 3:
            b, d = d, b
        p = b[0]
        b = q2, q3, q4, q5, q6, q7 = b[1] / p, b[2] / p, b[3] / p, b[4] / p, b[5] / p, b[6] / p
        if (f := a[0]) != 0:
            a = (a[1] - f * q2, a[2] - f * q3, a[3] - f * q4,
                 a[4] - f * q5, a[5] - f * q6, a[6] - f * q7)
        else:
            a = a[1:]
        if (f := c[0]) != 0:
            c = (c[1] - f * q2, c[2] - f * q3, c[3] - f * q4,
                 c[4] - f * q5, c[5] - f * q6, c[6] - f * q7)
        else:
            c = c[1:]
        if (f := d[0]) != 0:
            d = (d[1] - f * q2, d[2] - f * q3, d[3] - f * q4,
                 d[4] - f * q5, d[5] - f * q6, d[6] - f * q7)
        else:
            d = d[1:]
        m = abs(c[0])
        if (x := abs(d[0])) > m:
            m, c, d = x, d, c
        if m == 0.0:
            raise ValueError("matrix is singular")
        p = c[0]
        c = q3, q4, q5, q6, q7 = c[1] / p, c[2] / p, c[3] / p, c[4] / p, c[5] / p
        if (f := a[0]) != 0:
            a = (a[1] - f * q3, a[2] - f * q4, a[3] - f * q5, a[4] - f * q6, a[5] - f * q7)
        else:
            a = a[1:]
        if (f := b[0]) != 0:
            b = (b[1] - f * q3, b[2] - f * q4, b[3] - f * q5, b[4] - f * q6, b[5] - f * q7)
        else:
            b = b[1:]
        if (f := d[0]) != 0:
            d = (d[1] - f * q3, d[2] - f * q4, d[3] - f * q5, d[4] - f * q6, d[5] - f * q7)
        else:
            d = d[1:]
        p = d[0]
        if abs(p) == 0.0:
            raise ValueError("matrix is singular")
        d = q4, q5, q6, q7 = d[1] / p, d[2] / p, d[3] / p, d[4] / p
        if (f := a[0]) != 0:
            a = (a[1] - f * q4, a[2] - f * q5, a[3] - f * q6, a[4] - f * q7)
        else:
            a = a[1:]
        if (f := b[0]) != 0:
            b = (b[1] - f * q4, b[2] - f * q5, b[3] - f * q6, b[4] - f * q7)
        else:
            b = b[1:]
        if (f := c[0]) != 0:
            c = (c[1] - f * q4, c[2] - f * q5, c[3] - f * q6, c[4] - f * q7)
        else:
            c = c[1:]
        return a, b, c, d


class Matrix2(_SquareMatrix):
    """A 2x2 complex matrix with self-contained arithmetic."""

    __slots__ = ()
    _n = 2

    @staticmethod
    def _product(rows, other):
        (a0, a1), (b0, b1) = rows
        (p0, p1), (q0, q1) = other
        return (
            (0j + a0 * p0 + a1 * q0, 0j + a0 * p1 + a1 * q1),
            (0j + b0 * p0 + b1 * q0, 0j + b0 * p1 + b1 * q1),
        )

    @staticmethod
    def _det(rows):
        a, b = rows
        result = 1 + 0j
        m = abs(a[0])
        if (x := abs(b[0])) > m:
            m, a, b, result = x, b, a, -result
        if m == 0.0:
            return 0j
        p, q1 = a
        result *= p
        f = b[0] / p
        p = b[1] - f * q1
        if abs(p) == 0.0:
            return 0j
        result *= p
        return result

    @staticmethod
    def _inverse(rows):
        a, b = map(add, rows, _IDENTITY_ROWS[2])
        m = abs(a[0])
        if (x := abs(b[0])) > m:
            m, a, b = x, b, a
        if m == 0.0:
            raise ValueError("matrix is singular")
        p = a[0]
        a = q1, q2, q3 = a[1] / p, a[2] / p, a[3] / p
        if (f := b[0]) != 0:
            b = (b[1] - f * q1, b[2] - f * q2, b[3] - f * q3)
        else:
            b = b[1:]
        p = b[0]
        if abs(p) == 0.0:
            raise ValueError("matrix is singular")
        b = q2, q3 = b[1] / p, b[2] / p
        if (f := a[0]) != 0:
            a = (a[1] - f * q2, a[2] - f * q3)
        else:
            a = a[1:]
        return a, b


_set_rows4 = Matrix4._setters[0]


def to_matrix4(p):
    """4x4 embedding of a paravector.

    Its entries are the components times 1, -1, i or -i, so they are
    finite like the paravector's and the matrix is built unchecked."""
    a = p.s
    x, y, z = p.v
    m = object.__new__(Matrix4)
    _set_rows4(
        m,
        (
            (a, x, y, z),
            (x, a, -1j * z, 1j * y),
            (y, 1j * z, a, -1j * x),
            (z, -1j * y, 1j * x, a),
        ),
    )
    return m


def from_matrix4(m, tol=DEFAULT_TOL):
    """Read a paravector back out of its 4x4 embedding.

    The scalar comes from the top-left entry and the vector from the rest
    of the first row; all sixteen entries are then checked against the
    embedding pattern (rebuilt here on purpose, without calling
    to_matrix4) and the first offending entry is reported.
    """
    if not isinstance(m, Matrix4):
        raise ValidationError("expected a 4x4 matrix")
    r = m.rows
    a = r[0][0]
    x, y, z = r[0][1], r[0][2], r[0][3]
    expected = (
        (a, x, y, z),
        (x, a, -1j * z, 1j * y),
        (y, 1j * z, a, -1j * x),
        (z, -1j * y, 1j * x, a),
    )
    thr = tol.linear(_rows_scale(*r))
    for i in range(4):
        for j in range(4):
            if abs(r[i][j] - expected[i][j]) > thr:
                raise NotAParavectorMatrix(
                    f"entry ({i},{j}) breaks the paravector pattern", entry=(i, j)
                )
    return Paravector(a, (x, y, z))


SIGMA_0 = Matrix2(((1, 0), (0, 1)))
SIGMA_X = Matrix2(((0, 1), (1, 0)))
SIGMA_Y = Matrix2(((0, -1j), (1j, 0)))
SIGMA_Z = Matrix2(((1, 0), (0, -1)))


def to_pauli(p):
    """2x2 representation: scalar times sigma_0 plus vector dotted into sigma."""
    a = p.s
    x, y, z = p.v
    return Matrix2._trusted(((a + z, x - 1j * y), (x + 1j * y, a - z)))


def format_matrix(rows):
    """Plain-text grid of a complex matrix."""
    cells = [[format_complex(e) for e in row] for row in rows]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = []
    for row in cells:
        padded = "  ".join(c.rjust(w) for c, w in zip(row, widths))
        lines.append(f"[ {padded} ]")
    return "\n".join(lines)
