from fractions import Fraction

import pytest

from meridian.quadrature import adaptive_gauss


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def _poly(coeffs):
    return lambda x: sum(c * x ** k for k, c in enumerate(coeffs))


def _exact(coeffs, a, b):
    a, b = Fraction(a), Fraction(b)
    return float(sum(Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                     for k, c in enumerate(coeffs)))


@pytest.mark.parametrize("degree", range(20))
def test_exact_on_polynomials_to_degree_19_in_30_evaluations(degree):
    coeffs = [(-1.0) ** k * (1.0 + 0.25 * k) for k in range(degree + 1)]
    a, b = -0.75, 1.5
    f, calls = _counted(_poly(coeffs))
    want = _exact(coeffs, a, b)
    assert abs(adaptive_gauss(f, a, b) - want) <= 1e-15 * max(1.0, abs(want))
    assert len(calls) == 30  # one panel and its two halves


def test_empty_interval_is_zero_without_evaluation():
    f, calls = _counted(lambda x: 1.0 / x)
    assert adaptive_gauss(f, 0.3, 0.3) == 0.0
    assert calls == []


def test_reversed_interval_negates():
    f = lambda x: 1.0 / (1.0 + x * x)  # noqa: E731
    assert adaptive_gauss(f, 2.0, -0.5) == -adaptive_gauss(f, -0.5, 2.0)
