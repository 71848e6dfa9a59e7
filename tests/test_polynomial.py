import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynomial import InexactDivision, IntPolynomial


def P(nvars, terms):
    return IntPolynomial(nvars, terms)


def test_basic_arithmetic():
    a = IntPolynomial.linear((1, 0))
    b = IntPolynomial.linear((0, 1))
    s = a + b
    assert s == IntPolynomial.linear((1, 1))
    assert (s - a) == b
    assert (a - a).is_zero
    prod = a * b
    assert prod.terms == {(1, 1): 1}
    assert (2 * a).terms == {(1, 0): 2}


def test_zero_terms_dropped():
    p = P(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms == {(0, 1): 3}
    assert not (p - p)


def test_constant_and_degree():
    c = IntPolynomial.constant(2, 5)
    assert c.constant_term() == 5
    assert c.total_degree() == 0
    assert IntPolynomial.zero(2).total_degree() == -1
    q = IntPolynomial.linear((1, 2)) * IntPolynomial.linear((3, 1))
    assert q.total_degree() == 2
    assert q.is_homogeneous()
    assert not (q + c).is_homogeneous()


def test_evaluate():
    q = IntPolynomial.linear((1, 2)) * IntPolynomial.linear((3, 1)) + IntPolynomial.constant(2, -7)
    # (x + 2y)(3x + y) - 7 at (2, 5)
    assert q.evaluate((2, 5)) == (2 + 10) * (6 + 5) - 7


def test_exact_linear_division():
    g = IntPolynomial.linear((2, -1, 3))
    f = g * P(3, {(1, 0, 0): 4, (0, 2, 1): -5, (0, 0, 0): 7})
    q = f.divide_exact_linear((2, -1, 3))
    assert q == P(3, {(1, 0, 0): 4, (0, 2, 1): -5, (0, 0, 0): 7})


def test_division_pivot_not_first_variable():
    g = IntPolynomial.linear((0, 1, 1))
    f = g * P(3, {(2, 1, 0): 3})
    assert f.divide_exact_linear((0, 1, 1)) == P(3, {(2, 1, 0): 3})


def test_inexact_division_raises():
    f = IntPolynomial.linear((1, 1))
    with pytest.raises(InexactDivision):
        f.divide_exact_linear((1, -1))
    with pytest.raises(InexactDivision):
        IntPolynomial.constant(2, 3).divide_exact_linear((2, 0))
    with pytest.raises(InexactDivision):
        # coefficient divisibility failure
        IntPolynomial.linear((1, 0)).divide_exact_linear((2, 0))
    assert not IntPolynomial.linear((1, 1)).divisible_by_linear((1, -1))


def test_division_by_zero_form():
    with pytest.raises(InexactDivision):
        IntPolynomial.constant(2, 1).divide_exact_linear((0, 0))


@st.composite
def polys(draw, nvars=3, max_terms=6):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[e] = draw(st.integers(-9, 9))
    return IntPolynomial(nvars, terms)


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_ring_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a


@settings(max_examples=80, deadline=None)
@given(polys(), st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
def test_division_roundtrip(f, coords):
    if all(c == 0 for c in coords):
        return
    g = IntPolynomial.linear(coords)
    assert (f * g).divide_exact_linear(coords) == f


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
def test_evaluation_is_a_ring_map(a, b, point):
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
