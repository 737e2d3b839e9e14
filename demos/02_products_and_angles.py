"""Integrated products, the scalar/vector products, and paravector angles."""

import math

from paravec import (
    Angle,
    Orientation,
    Paravector,
    angle,
    compose_angles,
    explement,
    integrated,
    scalar_product,
    vector_product,
)

R, L = Orientation.RIGHT, Orientation.LEFT

a = Paravector(2, (1, 0, 0))
b = Paravector(2, (0, 1, 0))

print("The right integrated product pairs a with rev(b); the left one")
print("pairs rev(a) with b.  Their scalar parts always agree:")
print(f"  (a,b>  = {integrated(a, b, R)}")
print(f"  <a,b)  = {integrated(a, b, L)}")
print(f"  scalar product <a,b> = {scalar_product(a, b):.6g}")

print("\nThe self product collapses to the determinant:")
print(f"  (a,a> = {integrated(a, a, R)}   (det a = {a.det():.6g})")

print("\nThe vector product is the oriented vector part:")
print(f"  right: {vector_product(a, b, R)}")
print(f"  left:  {vector_product(a, b, L)}")

print("\nDeterminants factorize through the integrated product:")
ip = integrated(a, b, R)
print(f"  det (a,b> = {ip.det():.6g} = det a * det b = {a.det() * b.det():.6g}")

print("\nAngles between proper paravectors are determinant-one paravectors.")
f = angle(a, b, R)
print(f"  angle(a,b) value   = {f.value}")
print(f"  cosinis            = {f.cosinis:.6g}")
print(f"  det of the angle   = {f.value.det():.6g}")

print("\nEuclidean geometry embeds through imaginary vectors {0|iw}:")
w1 = Paravector(0, (1j, 0, 0))
w2 = Paravector(0, (0, 1j, 0))
t = angle(w1, w2, R)
print(f"  angle(e1, e2) = {t.value}   (cos 90deg = 0, axis e3)")

print("\nAngle composition is just the paravector product; a quarter turn")
print("composed with itself gives the straight angle about the same axis:")
q = Angle(
    Paravector(math.cos(math.pi / 4), (0, 0, 1j * math.sin(math.pi / 4))), L
)
print(f"  quarter   = {q.value}")
print(f"  composed  = {compose_angles(q, q).value}")

print("\nThe explement swaps the arguments: same cosinis, negated vector:")
print(f"  explement(angle(a,b)) = {explement(f).value}")
print(f"  angle(b,a)            = {angle(b, a, R).value}")
