"""Exact scalar layer: Gaussian rationals, and polynomials in central
parameters as Weyl polynomials over generators of the same names."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_capelli import pbw
from nc_capelli.scalars import (G_I, G_ONE, G_ZERO, Coefficient,
                                GaussianRational, _make)
from nc_capelli.weyl import GeneratorSet, WeylElement

# the parameters s, u, k, d1 as commuting generators
PARAMS = GeneratorSet(["s", "u", "k", "d1"])
ONE = WeylElement.one(PARAMS)
I = ONE.scale(G_I)


def C(value, den=1):
    return ONE.scale(Fraction(value, den))


def param(name):
    return WeylElement.variable(PARAMS, name)


@st.composite
def coefficients(draw):
    out = WeylElement.zero(PARAMS)
    for _ in range(draw(st.integers(0, 3))):
        re = draw(st.integers(-5, 5))
        im = draw(st.integers(-5, 5))
        term = C(re) + I * C(im)
        name = draw(st.sampled_from(PARAMS.names))
        exp = draw(st.integers(0, 2))
        out = out + term * param(name) ** exp if exp else out + term
    return out


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(1, 2), Fraction(-3))
        assert (a + b) == GaussianRational(Fraction(1))
        assert (a * b) == GaussianRational(Fraction(1, 4) + Fraction(9))

    def test_i_squared(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        assert i * i == GaussianRational(Fraction(-1))

    def test_inverse(self):
        a = GaussianRational(Fraction(2), Fraction(-1))
        assert a * a.inverse() == GaussianRational(Fraction(1))

    def test_conjugate(self):
        a = GaussianRational(Fraction(2), Fraction(3))
        assert a.conjugate() == GaussianRational(Fraction(2), Fraction(-3))


# Small, mixed and large denominators, so that sums and products meet
# both the same-denominator path and the cross-multiplied one.
rationals = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(max_denominator=12),
    st.fractions(min_value=-10**12, max_value=10**12,
                 max_denominator=10**15),
)
gaussians = st.tuples(rationals, rationals)


def _reference_render(a, b):
    """The text of a + b*i, built from the Fraction pair alone."""
    if b == 0:
        return str(a)
    itxt = "i" if abs(b) == 1 else f"{abs(b)}*i"
    if a == 0:
        return itxt if b > 0 else "-" + itxt
    return f"{a}{'+' if b > 0 else '-'}{itxt}"


def _agrees(x, ref):
    """x equals the Fraction pair ref and is in canonical form."""
    assert (x.re, x.im) == ref
    assert x.d > 0 and gcd(x.p, x.q, x.d) == 1
    assert x.render() == _reference_render(*ref)


class TestGaussianDifferential:
    """GaussianRational against a pair of Fractions as the reference."""

    @given(gaussians, gaussians)
    @settings(max_examples=300, deadline=None)
    def test_ring_operations(self, u, v):
        (a, b), (c, d) = u, v
        x, y = GaussianRational(a, b), GaussianRational(c, d)
        _agrees(x, (a, b))
        _agrees(x + y, (a + c, b + d))
        _agrees(x - y, (a - c, b - d))
        _agrees(x * y, (a * c - b * d, a * d + b * c))
        _agrees(-x, (-a, -b))
        _agrees(x.conjugate(), (a, -b))
        n = c * c + d * d
        if n:
            _agrees(y.inverse(), (c / n, -d / n))
        else:
            with pytest.raises(ZeroDivisionError):
                y.inverse()

    @given(gaussians, gaussians)
    @settings(max_examples=200, deadline=None)
    def test_routes_meet(self, u, v):
        x, y = GaussianRational(*u), GaussianRational(*v)
        for z in ((x + y) - y, (x * y) + x - x * y, -(-x)):
            assert z == x and hash(z) == hash(x)
        if not y.is_zero():
            z = x * y * y.inverse()
            assert z == x and hash(z) == hash(x)

    def test_equal_values_are_equal(self):
        half = GaussianRational("1/2")
        assert half + half == G_ONE and hash(half + half) == hash(G_ONE)
        assert _make(2, 0, 4) == half and hash(_make(2, 0, 4)) == hash(half)
        assert _make(6, -4, 2) == GaussianRational(3, -2)
        assert _make(0, 0, 7) == GaussianRational()
        assert GaussianRational(Fraction(1, 6), Fraction(1, 4)).d == 12


class TestCoefficient:
    """What the parametric value type held, polynomials over Q[i] in
    central parameters, is the commutative Weyl polynomial ring over
    the parameters as generators."""

    def test_half_plus_half(self):
        assert C(1, 2) + C(1, 2) == ONE

    def test_i_cancellation(self):
        assert (I + (-I)).is_zero()

    def test_like_term_merge(self):
        s = param("s")
        assert s + s == C(2) * s

    def test_i_squared(self):
        assert I * I == C(-1)

    def test_inverse_of_minus_two_i(self):
        inv = C(1, 2) * I  # 1/(-2i) = i/2
        assert inv * (C(-2) * I) == ONE

    def test_s_times_s_plus_one(self):
        s = param("s")
        assert s * (s + ONE) == s ** 2 + s

    def test_bar(self):
        assert (C(2) + C(3) * I).bar() == C(2) - C(3) * I
        s = param("s")
        assert (s * I).bar() == -(s * I)

    def test_split_by_param(self):
        """A central letter's degree splits a PBW element."""
        spec = pbw.build_gln(1, central="su")
        u, s = spec.generator("u"), spec.generator("s")
        poly = u * u + s * u + spec.one().scale(7)
        parts = poly.split_by_letter("u")
        assert parts == {2: spec.one(), 1: s, 0: spec.one().scale(7)}

    def test_render(self):
        assert C(0).render() == "0"
        assert (C(2) + C(3) * I).render() == "2+3*i"
        s, u = param("s"), param("u")
        cases = [
            (s, "s"),
            (-s, "-s"),
            (I * s, "i*s"),
            (-I * s, "-i*s"),
            ((C(1) + I) * s, "(1+i)*s"),
            ((C(1) - I) * s, "(1-i)*s"),
            (C(3, 2) * s, "3/2*s"),
            (C(-1, 2) * I * s, "-1/2*i*s"),
            (s ** 2 * u, "s^2*u"),
            (C(2) + C(3) * I + s - C(1, 2) * s * u + (C(1) + I) * s ** 2,
             "(1+i)*s^2 - 1/2*s*u + s + 2+3*i"),
        ]
        for x, text in cases:
            assert x.render() == text
        assert repr(s) == "<WeylElement s>"

    @given(coefficients())
    @settings(max_examples=60, deadline=None)
    def test_bar_involution(self, x):
        assert x.bar().bar() == x

    @given(coefficients(), coefficients())
    @settings(max_examples=60, deadline=None)
    def test_mul_commutative(self, x, y):
        assert x * y == y * x

    @given(coefficients(), coefficients(), coefficients())
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(coefficients(), coefficients())
    @settings(max_examples=60, deadline=None)
    def test_bar_multiplicative(self, x, y):
        assert (x * y).bar() == x.bar() * y.bar()

    def test_param_validation(self):
        """A parameter must be declared as a generator or letter of its
        host."""
        with pytest.raises(KeyError):
            param("not a param!")
        with pytest.raises(KeyError):
            pbw.build_gln(1, central="u").generator("s")


@st.composite
def gaussians(draw):
    d = draw(st.integers(1, 4))
    return GaussianRational(Fraction(draw(st.integers(-5, 5)), d),
                            Fraction(draw(st.integers(-5, 5)), d))


class TestBareAndWrapped:
    """A bare GaussianRational and an element are separate types: an
    element takes a bare factor through ``scale``, and ``+``, ``-`` and
    a bare left factor raise TypeError."""

    @given(gaussians(), coefficients())
    @settings(max_examples=80, deadline=None)
    def test_mixed_arithmetic(self, g, c):
        got = c.scale(g)
        assert got == c * ONE.scale(g)
        assert all(type(v) is GaussianRational for v in got.terms.values())
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(g, c)
            with pytest.raises(TypeError):
                op(c, g)
        with pytest.raises(TypeError):
            g * c
        assert g != ONE.scale(g) and ONE.scale(g) != g

    @given(gaussians())
    @settings(max_examples=60, deadline=None)
    def test_int_factor_on_either_side(self, g):
        """The Weyl kernel multiplies values by the int 1 from the left."""
        assert 3 * g == g * 3 == g + g + g
        one = 1 * g
        assert type(one) is GaussianRational and one == g

    def test_parametric_differs_from_bare(self):
        s = param("s")
        assert s != G_ONE and G_ONE != s
        assert s + C(1) != G_ONE

    def test_foreign_operand_is_not_implemented(self):
        c = param("s")
        for op in ("__add__", "__sub__", "__mul__", "__eq__"):
            assert getattr(G_ONE, op)(c) is NotImplemented
        for op in ("__add__", "__sub__"):
            assert getattr(c, op)(G_ONE) is NotImplemented
        with pytest.raises(TypeError):
            G_ONE + 1

    def test_coefficient_scale_stays_coefficient(self):
        """``scale`` keeps values bare; the ``Coefficient`` stub's two
        constructors are the bare zero and one."""
        s = param("s")
        assert C(2).scale(C(3).terms[0]) == C(6)
        assert (s * C(2)).scale(Fraction(1, 2)) == s
        assert all(type(v) is GaussianRational
                   for v in C(2).scale(G_ONE).terms.values())
        assert Coefficient.zero() is G_ZERO and Coefficient.one() is G_ONE
        assert [g + Coefficient.one() for g in (G_ZERO, G_ONE)] == \
            [G_ONE, GaussianRational(2)]
