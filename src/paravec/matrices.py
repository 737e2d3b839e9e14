"""Matrix representations of paravectors.

``to_matrix4`` embeds a paravector into the 4x4 complex matrix whose
first row lists the four complex components and whose remaining rows
repeat them in a fixed cross pattern; the embedding turns paravector
sums and products into matrix sums and products, paravector conjugation
into Hermitian conjugation, and squares the determinant.  ``to_pauli``
gives the 2x2 representation over the sigma-matrix basis, which
preserves products and the determinant exactly.

The matrix classes here deliberately carry their own naive
multiplication, LU determinant, and Gauss-Jordan inverse instead of
delegating to the paravector code, so they can serve as an independent
differential-testing oracle for it.
"""

from __future__ import annotations

import cmath

from .core import DEFAULT_TOL, Paravector, _as_complex, _Value, component_scale, format_complex
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
        """Naive row-by-column product, each entry ``0j + a0*b0 + a1*b1 + ...``."""
        if type(other) is not type(self):
            return NotImplemented
        return self._trusted(self._product(self.rows, tuple(zip(*other.rows))))

    def conj_transpose(self):
        return self._trusted(
            tuple([tuple([e.conjugate() for e in col]) for col in zip(*self.rows)])
        )

    def det(self):
        """Determinant via LU elimination with partial pivoting."""
        n = self._n
        a = [list(row) for row in self.rows]
        result = 1 + 0j
        for col in range(n):
            piv, best = col, abs(a[col][col])
            for r in range(col + 1, n):
                m = abs(a[r][col])
                if m > best:
                    piv, best = r, m
            if best == 0.0:
                return 0j
            if piv != col:
                a[piv], a[col] = a[col], a[piv]
                result = -result
            pivot_row = a[col]
            p = pivot_row[col]
            result *= p
            for r in range(col + 1, n):
                row = a[r]
                f = row[col] / p
                for c in range(col + 1, n):
                    row[c] -= f * pivot_row[c]
        return result

    def inverse(self):
        """Inverse via Gauss-Jordan elimination with partial pivoting.

        Step ``col`` normalizes and updates only columns ``col+1`` onwards:
        the eliminated columns to the left are never read again.
        """
        n = self._n
        a = [[*row, *e] for row, e in zip(self.rows, _IDENTITY_ROWS[n])]
        for col in range(n):
            piv, best = col, abs(a[col][col])
            for r in range(col + 1, n):
                m = abs(a[r][col])
                if m > best:
                    piv, best = r, m
            if best == 0.0:
                raise ValueError("matrix is singular")
            if piv != col:
                a[piv], a[col] = a[col], a[piv]
            pivot_row = a[col]
            p = pivot_row[col]
            rest = range(col + 1, 2 * n)
            for c in rest:
                pivot_row[c] = pivot_row[c] / p
            for r in range(n):
                if r == col:
                    continue
                row = a[r]
                f = row[col]
                if f != 0:
                    for c in rest:
                        row[c] = row[c] - f * pivot_row[c]
        return self._trusted(tuple([tuple(row[n:]) for row in a]))

    def approx_eq(self, other, tol=DEFAULT_TOL):
        if type(other) is not type(self):  # as for ==, another size is never close
            return False
        thr = tol.linear(component_scale(*self.rows, *other.rows))
        for ra, rb in zip(self.rows, other.rows):
            for a, b in zip(ra, rb):
                if not abs(a - b) <= thr:
                    return False
        return True

    def __str__(self):
        return format_matrix(self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows!r})"


class Matrix4(_SquareMatrix):
    """A 4x4 complex matrix with self-contained arithmetic."""

    __slots__ = ()
    _n = 4

    @staticmethod
    def _product(rows, cols):
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (t0, t1, t2, t3) = cols
        return tuple(
            [
                (
                    0j + a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3,
                    0j + a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3,
                    0j + a0 * r0 + a1 * r1 + a2 * r2 + a3 * r3,
                    0j + a0 * t0 + a1 * t1 + a2 * t2 + a3 * t3,
                )
                for a0, a1, a2, a3 in rows
            ]
        )


class Matrix2(_SquareMatrix):
    """A 2x2 complex matrix with self-contained arithmetic."""

    __slots__ = ()
    _n = 2

    @staticmethod
    def _product(rows, cols):
        return tuple(
            [tuple([0j + a0 * b0 + a1 * b1 for b0, b1 in cols]) for a0, a1 in rows]
        )


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
    thr = tol.linear(component_scale(*r))
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
