"""Exact scalar layer: Gaussian rationals with formal parameters."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_capelli.scalars import G_ONE, Coefficient, GaussianRational, _make, rat


def C(value, den=None):
    return Coefficient.from_rational(value, den)


I = Coefficient.i()


@st.composite
def coefficients(draw):
    out = Coefficient.zero()
    for _ in range(draw(st.integers(0, 3))):
        re = draw(st.integers(-5, 5))
        im = draw(st.integers(-5, 5))
        term = C(re) + I * C(im)
        name = draw(st.sampled_from(["s", "u", "k", "d1"]))
        exp = draw(st.integers(0, 2))
        out = out + term * Coefficient.param(name, exp) if exp else out + term
    return out


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(rat(1, 2), rat(3))
        b = GaussianRational(rat(1, 2), rat(-3))
        assert (a + b) == GaussianRational(rat(1))
        assert (a * b) == GaussianRational(rat(1, 4) + rat(9))

    def test_i_squared(self):
        i = GaussianRational(rat(0), rat(1))
        assert i * i == GaussianRational(rat(-1))

    def test_inverse(self):
        a = GaussianRational(rat(2), rat(-1))
        assert a * a.inverse() == GaussianRational(rat(1))

    def test_conjugate(self):
        a = GaussianRational(rat(2), rat(3))
        assert a.conjugate() == GaussianRational(rat(2), rat(-3))


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
    def test_half_plus_half(self):
        assert C(1, 2) + C(1, 2) == Coefficient.one()

    def test_i_cancellation(self):
        assert (I + (-I)).is_zero()

    def test_like_term_merge(self):
        s = Coefficient.param("s")
        assert s + s == C(2) * s

    def test_i_squared(self):
        assert I * I == C(-1)

    def test_inverse_of_minus_two_i(self):
        inv = C(1, 2) * I  # 1/(-2i) = i/2
        assert inv * (C(-2) * I) == Coefficient.one()

    def test_s_times_s_plus_one(self):
        s = Coefficient.param("s")
        assert s * (s + Coefficient.one()) == Coefficient.param("s", 2) + s

    def test_bar(self):
        assert (C(2) + C(3) * I).bar() == C(2) - C(3) * I
        s = Coefficient.param("s")
        assert (s * I).bar() == -(s * I)

    def test_substitute_sum(self):
        a, c, k = (Coefficient.param(x) for x in "ack")
        assert (a + c).substitute({"a": k, "c": k}) == C(2) * k

    def test_substitute_eval(self):
        s = Coefficient.param("s")
        poly = s * (s + Coefficient.one())
        assert poly.substitute({"s": C(3)}) == C(12)

    def test_substitute_affine(self):
        b, d, k = (Coefficient.param(x) for x in "bdk")
        assert (d - b).substitute({"d": b - C(2) * k}) == -(C(2) * k)

    def test_split_by_param(self):
        u = Coefficient.param("u")
        s = Coefficient.param("s")
        poly = u * u + s * u + C(7)
        parts = poly.split_by_param("u")
        assert parts[2] == Coefficient.one()
        assert parts[1] == s
        assert parts[0] == C(7)

    def test_render(self):
        assert C(0).render() == "0"
        assert (C(2) + C(3) * I).render() == "2+3*i"
        s, u = Coefficient.param("s"), Coefficient.param("u")
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
             "2+3*i + s - 1/2*s*u + (1+i)*s^2"),
        ]
        for x, text in cases:
            assert x.render() == text
        assert repr(s) == "<Coefficient s>"

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
        with pytest.raises(ValueError):
            Coefficient.param("not a param!")


@st.composite
def gaussians(draw):
    d = draw(st.integers(1, 4))
    return GaussianRational(Fraction(draw(st.integers(-5, 5)), d),
                            Fraction(draw(st.integers(-5, 5)), d))


def wrapped(g):
    """g as an all-Coefficient value, built without the ``terms`` view."""
    return C(g.re) + I * C(g.im)


class TestBareAndWrapped:
    """A bare GaussianRational and the constant Coefficient it equals are
    interchangeable: mixed arithmetic, ``==`` and ``hash`` agree."""

    @given(gaussians(), coefficients())
    @settings(max_examples=80, deadline=None)
    def test_mixed_arithmetic(self, g, c):
        w = wrapped(g)
        for got, want in [(g + c, w + c), (c + g, c + w), (g - c, w - c),
                          (c - g, c - w), (g * c, w * c), (c * g, c * w)]:
            assert isinstance(got, Coefficient)
            assert got == want and hash(got) == hash(want)

    @given(gaussians())
    @settings(max_examples=60, deadline=None)
    def test_eq_and_hash_across_forms(self, g):
        w = wrapped(g)
        assert g == w and w == g and not g != w
        assert hash(g) == hash(w)
        assert g.terms == w.terms
        assert g.bar() == w.bar()

    def test_cancelled_parameter_leaves_equal_constant(self):
        s = Coefficient.param("s")
        left = (s + C(3, 2) + I) - s
        assert left.terms.keys() == {()}
        bare = GaussianRational(Fraction(3, 2), 1)
        assert left == bare and bare == left and hash(left) == hash(bare)
        zero = GaussianRational()
        assert s - s == zero and hash(s - s) == hash(zero)

    def test_parametric_differs_from_bare(self):
        s = Coefficient.param("s")
        assert s != G_ONE and G_ONE != s
        assert s + C(1) != G_ONE

    def test_foreign_operand_is_not_implemented(self):
        c = Coefficient.param("s")
        for op in ("__add__", "__sub__", "__mul__", "__eq__"):
            assert getattr(G_ONE, op)(c) is NotImplemented
        with pytest.raises(TypeError):
            G_ONE + 1

    def test_coefficient_scale_stays_coefficient(self):
        s = Coefficient.param("s")
        assert C(2).scale(C(3)) == C(6)
        assert isinstance(C(2).scale(G_ONE), Coefficient)
        assert (s * C(2)).scale(C(1, 2)) == s

