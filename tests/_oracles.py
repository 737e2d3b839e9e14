"""Independent oracles used by the tests.

Everything here recomputes expected values from raw components or via
numpy, never through the code paths under test, except the naive copies
at the end: earlier forms of library code, kept as bit-level references.
"""

import cmath

import numpy as np

from paravec import Paravector, RotationAxis
from paravec.core import _as_cvector, _make, _scale, component_scale, vcross, vdot
from paravec.errors import DegenerateComposition, IsotropicNormal


def det_components(p):
    """Determinant from the eight real components."""
    a, d = p.s.real, p.s.imag
    b = np.array([z.real for z in p.v])
    c = np.array([z.imag for z in p.v])
    return complex(
        a * a - b.dot(b) + c.dot(c) - d * d,
        2.0 * (a * d - b.dot(c)),
    )


def vig_components(p):
    """Vigor from the eight real components: (scalar, real 3-vector)."""
    a, d = p.s.real, p.s.imag
    b = np.array([z.real for z in p.v])
    c = np.array([z.imag for z in p.v])
    scalar = a * a + d * d + b.dot(b) + c.dot(c)
    vector = 2.0 * (a * b + d * c + np.cross(b, c))
    return scalar, vector


def np4(p):
    """The 4x4 embedding built directly with numpy."""
    a = complex(p.s)
    x, y, z = (complex(w) for w in p.v)
    return np.array(
        [
            [a, x, y, z],
            [x, a, -1j * z, 1j * y],
            [y, 1j * z, a, -1j * x],
            [z, -1j * y, 1j * x, a],
        ]
    )


def np2(p):
    """The 2x2 sigma-basis embedding built directly with numpy."""
    a = complex(p.s)
    x, y, z = (complex(w) for w in p.v)
    s0 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return a * s0 + x * sx + y * sy + z * sz


def mat_of(m):
    """numpy array of a Matrix2/Matrix4."""
    return np.array(m.rows)


def rodrigues(w, n, theta):
    """Axis-angle rotation of a real 3-vector."""
    w = np.asarray(w, dtype=float)
    n = np.asarray(n, dtype=float)
    return (
        w * np.cos(theta)
        + np.cross(n, w) * np.sin(theta)
        + n * n.dot(w) * (1.0 - np.cos(theta))
    )


# Naive copies of the matrix algorithms as first written, kept as the
# bit-level reference for the optimized ones in ``paravec.matrices``.


def naive_matmul(a, b):
    """Triple-loop product of two square row tuples, accumulating from ``0j``."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def lu_det(rows):
    """Determinant by LU elimination with partial pivoting."""
    n = len(rows)
    a = [list(row) for row in rows]
    result = 1 + 0j
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0.0:
            return 0j
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            result = -result
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            for c in range(col + 1, n):
                a[r][c] -= f * a[col][c]
    return result


def gauss_jordan_inverse(rows):
    """Inverse by Gauss-Jordan elimination over full augmented rows."""
    n = len(rows)
    a = [list(row) + [1 + 0j if i == j else 0j for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0.0:
            raise ValueError("matrix is singular")
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
        p = a[col][col]
        a[col] = [e / p for e in a[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f != 0:
                a[r] = [er - f * ec for er, ec in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


# The reflections as first written, each plane built on its own: ``{0|w}``
# for the mirror, the pair ``{0|-iw}``, ``{0|iw}`` for the axial symmetry, and
# ``{w1.w2 | i w1 x w2}`` from ``vcross`` and ``vdot`` for two mirrors.  They
# are the bit-level reference for the library's single plane paravector.


def _reference_anisotropic(w, tol, message):
    w = _as_cvector(w)
    ww = vdot(w, w)
    sc = component_scale(w)
    if abs(ww) <= tol.quadratic(sc):
        raise IsotropicNormal(message)
    return w, ww, sc


def reference_mirror(g, w, tol):
    w, ww, _ = _reference_anisotropic(w, tol, "mirror normal squares to zero")
    plane = _make(0j, w)
    return _scale((plane * g) * plane, -1.0 / ww)


def reference_compose_mirrors(w1, w2, tol):
    w1, _, s1 = _reference_anisotropic(w1, tol, "mirror normal squares to zero")
    w2, _, s2 = _reference_anisotropic(w2, tol, "mirror normal squares to zero")
    cr = vcross(w1, w2)
    num = Paravector(vdot(w1, w2), (1j * cr[0], 1j * cr[1], 1j * cr[2]))
    d = num.det()
    if abs(d) <= tol.quadratic(s1 * s2):
        raise DegenerateComposition("mirror normals compose to no definite axis")
    return RotationAxis(num * (1.0 / cmath.sqrt(d)))


def reference_axial_symmetry(g, w, tol):
    w, ww, _ = _reference_anisotropic(w, tol, "axial vector squares to zero")
    left = _make(0j, (-1j * w[0], -1j * w[1], -1j * w[2]))
    right = _make(0j, (1j * w[0], 1j * w[1], 1j * w[2]))
    return _scale((left * g) * right, 1.0 / ww)
