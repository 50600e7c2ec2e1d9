import math
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from meridian.mink4 import (E1, E2, E3, E4, CausalClass, Vec4,
                            causal_character, gram, inner)

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                  allow_infinity=False)
vec4s = st.builds(Vec4, coord, coord, coord, coord)


def test_inner_basis_vectors():
    assert inner(E1, E1) == 1.0
    assert inner(E2, E2) == 1.0
    assert inner(E3, E3) == 1.0
    assert inner(E4, E4) == -1.0


def test_inner_direct_arithmetic():
    assert inner(Vec4(1, 2, 3, 4), Vec4(1, 1, 1, 1)) == 2.0


def test_vec4_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec4(math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        Vec4(0, math.inf, 0, 0)


@given(vec4s, vec4s)
def test_inner_symmetric(u, v):
    assert inner(u, v) == inner(v, u)


@given(vec4s, vec4s, vec4s, st.floats(min_value=-100, max_value=100,
                                      allow_nan=False))
def test_inner_bilinear(u, v, w, a):
    lhs = inner(a * u + w, v)
    rhs = a * inner(u, v) + inner(w, v)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("v,expected", [
    (Vec4(1, 0, 0, 0), CausalClass.SPACELIKE),
    (Vec4(0, 0, 0, 1), CausalClass.TIMELIKE),
    (Vec4(1, 0, 0, 1), CausalClass.LIGHTLIKE),
    (Vec4(0, 0, 0, 0), CausalClass.ZERO),
    # squares of these coordinates underflow to 0
    (Vec4(1e-163, 0, 0, 0), CausalClass.SPACELIKE),
    (Vec4(0, 0, 0, 1e-163), CausalClass.TIMELIKE),
    (Vec4(0, 0, 0, 5e-324), CausalClass.TIMELIKE),
])
def test_causal_character_examples(v, expected):
    assert causal_character(v, 0.0) is expected


def test_causal_character_tolerance():
    assert causal_character(Vec4(1e-12, 0, 0, 0), 1e-9) is CausalClass.ZERO
    with pytest.raises(ValueError):
        causal_character(E1, -1.0)


@example(Vec4(1e-163, 0, 0, 0), 1, False)
@example(Vec4(0, 0, 0, 1e-163), -1, True)
@example(Vec4(0, 0, 0, 5e-324), 1074, False)
@given(vec4s, st.integers(min_value=-64, max_value=64), st.booleans())
def test_causal_character_scale_invariant(v, k, negate):
    # s = +-2^k makes s*v exact, so it lies on the light cone exactly when v
    # does; an arbitrary s rounds s*v and can move it off the cone.  Only a
    # coordinate that becomes subnormal loses bits, so such draws are out.
    w = Vec4(*(math.ldexp(-c if negate else c, k) for c in v.coords()))
    assume(all(c == 0.0 or abs(d) >= sys.float_info.min
               for c, d in zip(v.coords(), w.coords())))
    assert causal_character(w, 0.0) is causal_character(v, 0.0)


def test_gram_examples():
    assert gram([E1, E4]) == [[1.0, 0.0], [0.0, -1.0]]
    full = gram([E1, E2, E3, E4])
    expected = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    expected[3][3] = -1.0
    assert full == expected
    assert gram([Vec4(1, 0, 0, 1)]) == [[0.0]]


def test_gram_rejects_bad_size():
    with pytest.raises(ValueError):
        gram([])
    with pytest.raises(ValueError):
        gram([E1] * 5)
