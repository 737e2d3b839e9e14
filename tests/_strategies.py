"""Hypothesis strategies for paravectors."""

import cmath

from hypothesis import assume, strategies as st

from _oracles import det_components
from paravec import Paravector
from paravec.wire import from_wire

components = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)

# exact and signed zeros are where a reordered product changes bits
coords = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(min_value=-1e3, max_value=1e3)
complexes = st.builds(complex, coords, coords)
zero_rich_paravectors = st.builds(Paravector, complexes, st.tuples(complexes, complexes, complexes))


@st.composite
def paravectors(draw):
    return from_wire([draw(components) for _ in range(8)])


@st.composite
def nonsingular_paravectors(draw, min_det=0.05):
    p = draw(paravectors())
    assume(abs(det_components(p)) > min_det)
    return p


@st.composite
def proper_paravectors(draw, min_det=0.05):
    p = draw(nonsingular_paravectors(min_det=min_det))
    phase = cmath.exp(-0.5j * cmath.phase(det_components(p)))
    v = p.v
    return Paravector(p.s * phase, (v[0] * phase, v[1] * phase, v[2] * phase))


@st.composite
def real_vectors(draw, min_norm=0.1):
    v = tuple(draw(components) for _ in range(3))
    assume(v[0] ** 2 + v[1] ** 2 + v[2] ** 2 > min_norm * min_norm)
    return v


# parts that are zero or at least 2**-20 in modulus: no product of them, times
# a power of two, leaves the normal range before a square of the scaled parts
# overflows
moderate_parts = st.sampled_from([0.0, -0.0]) | st.floats(-4, 4).filter(lambda x: abs(x) >= 2**-20)
moderate_complexes = st.builds(complex, moderate_parts, moderate_parts)
moderate_paravectors = st.builds(Paravector, moderate_complexes, st.tuples(*(moderate_complexes,) * 3))
