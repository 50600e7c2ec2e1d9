import math

import pytest
from hypothesis import given, strategies as st

from meridian.mink4 import E1, E2, E3, E4, Vec4, gram, inner

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
