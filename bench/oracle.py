"""Reference arithmetic for checking the library's results.

Stdlib only, and independent of the code under test: a paravector is a
plain 4-tuple ``(s, x, y, z)`` of Python complex numbers and every
expected value is rebuilt from those raw components with the textbook
formulas.  Nothing here imports ``paravec``.

The tolerance rule mirrors the library's documented contract: a
quantity of degree k in the operand components may be off by
``REL * scale**k``, where scale is the largest absolute real component
of the operands.
"""

import math

REL = 1e-9
TOL_ABS = 1e-9  # the library's default Tolerance(abs=1e-9, rel=1e-9)


def scale(p):
    """Largest absolute real component of a raw paravector or vector."""
    return max(max(abs(z.real), abs(z.imag)) for z in p)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def smul(k, a):
    return tuple(k * x for x in a)


def rev(a):
    return (a[0], -a[1], -a[2], -a[3])


def conj(a):
    return tuple(x.conjugate() for x in a)


def mul(a, b):
    """{s1|v1}{s2|v2} = {s1 s2 + v1.v2 | s2 v1 + s1 v2 + i v1 x v2}."""
    s1, x1, y1, z1 = a
    s2, x2, y2, z2 = b
    cx = y1 * z2 - z1 * y2
    cy = z1 * x2 - x1 * z2
    cz = x1 * y2 - y1 * x2
    return (
        s1 * s2 + x1 * x2 + y1 * y2 + z1 * z2,
        s2 * x1 + s1 * x2 + 1j * cx,
        s2 * y1 + s1 * y2 + 1j * cy,
        s2 * z1 + s1 * z2 + 1j * cz,
    )


def det(a):
    s, x, y, z = a
    return s * s - (x * x + y * y + z * z)


def qthr(sc):
    return TOL_ABS + REL * sc * sc


def is_singular(a):
    return abs(det(a)) <= qthr(scale(a))


def is_proper(a):
    """Real positive determinant, as ``angle`` and ``normalize`` require."""
    d = det(a)
    t = qthr(scale(a))
    return abs(d.imag) <= t and d.real > t


def norm(a):
    """Euclidean norm of all real components."""
    return math.sqrt(sum(abs(c) ** 2 for c in a))


def is_parallel(a, b):
    """The vector part of a * rev(b) vanishes, relative to |a| |b|."""
    w = mul(a, rev(b))[1:]
    return norm(w) <= TOL_ABS + REL * norm(a) * norm(b)


def inverse(a):
    return smul(1.0 / det(a), rev(a))


def normalize(a):
    return smul(1.0 / math.sqrt(det(a).real), a)


def classify(a):
    """The flags of ``paravec.classify`` from their documented definitions."""
    d = det(a)
    sc = scale(a)
    q = qthr(sc)
    lin = TOL_ABS + REL * sc
    singular = abs(d) <= q
    proper = not singular and abs(d.imag) <= q and d.real > 0.0
    orthogonal = proper and abs(d - 1.0) <= q
    s, x, y, z = a
    special = (
        abs(s.imag) <= lin
        and abs(x.real) <= lin
        and abs(y.real) <= lin
        and abs(z.real) <= lin
    )
    w = mul(a, conj(a))
    unitar = abs(w[0] - 1.0) <= q and all(abs(c) <= q for c in w[1:])
    return d, (proper, singular, orthogonal, special, unitar)


def embed4(a):
    """The documented 4x4 embedding pattern."""
    s, x, y, z = a
    return (
        (s, x, y, z),
        (x, s, -1j * z, 1j * y),
        (y, 1j * z, s, -1j * x),
        (z, -1j * y, 1j * x, s),
    )


def pauli(a):
    s, x, y, z = a
    return ((s + z, x - 1j * y), (x + 1j * y, s - z))


def rodrigues(w, n, theta):
    """Rotate the real 3-vector w by theta about the real unit vector n."""
    c, s = math.cos(theta), math.sin(theta)
    dot = n[0] * w[0] + n[1] * w[1] + n[2] * w[2]
    cr = (
        n[1] * w[2] - n[2] * w[1],
        n[2] * w[0] - n[0] * w[2],
        n[0] * w[1] - n[1] * w[0],
    )
    return tuple(w[k] * c + cr[k] * s + n[k] * dot * (1.0 - c) for k in range(3))


def wire(a):
    """Components in wire order ``[a, d, bx, by, bz, cx, cy, cz]``."""
    s, x, y, z = a
    return [s.real, s.imag, x.real, y.real, z.real, x.imag, y.imag, z.imag]


def wire_text(a):
    """The wire text: shortest round-trip float reprs, no spaces."""
    return "[" + ",".join(repr(c) for c in wire(a)) + "]"


def close(actual, expected, thr):
    """Componentwise |actual - expected| <= thr over flat complex sequences."""
    return len(actual) == len(expected) and all(
        abs(x - y) <= thr for x, y in zip(actual, expected)
    )


def flat(rows):
    return [e for row in rows for e in row]
