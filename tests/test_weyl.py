"""Weyl algebra: normal ordering, apply, complex pairs, Wick, division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_capelli import weyl
from nc_capelli import matrixops as mo
from nc_capelli.ringapi import commutator
from nc_capelli.scalars import Coefficient, GaussianRational
from nc_capelli.weyl import GeneratorSet, NotDivisible, WeylElement


@pytest.fixture
def xy():
    return GeneratorSet(["x", "y"])


def var(gens, name):
    return WeylElement.variable(gens, name)


def der(gens, name):
    return WeylElement.derivative(gens, name)


class TestNormalOrdering:
    def test_canonical_commutation(self, xy):
        x, dx = var(xy, "x"), der(xy, "x")
        assert dx * x == x * dx + WeylElement.one(xy)

    def test_dx_x_squared(self, xy):
        x, dx = var(xy, "x"), der(xy, "x")
        assert dx * x * x == x * x * dx + x.scale(2)

    def test_cross_generators_commute(self, xy):
        x, dy = var(xy, "x"), der(xy, "y")
        assert commutator(dy, x).is_zero()

    def test_render(self, xy):
        x, dx = var(xy, "x"), der(xy, "x")
        assert (dx * x * x).render() == "x^2*dx + 2*x"


class TestValueForms:
    """Weyl values are bare GaussianRationals unless a parameter occurs;
    elements built with wrapped constants are the same elements."""

    def test_bare_and_wrapped_constants(self, xy):
        x, dx = var(xy, "x"), der(xy, "x")
        mono = next(iter(x.terms))
        wrapped = WeylElement(xy, {mono: Coefficient.from_rational(3, 2)})
        bare = WeylElement(xy, {mono: GaussianRational(Fraction(3, 2))})
        assert wrapped == bare and bare == wrapped
        assert hash(wrapped) == hash(bare)
        assert wrapped.render() == bare.render() == "3/2*x"
        scaled = x.scale(Coefficient.from_rational(3, 2))
        assert scaled.terms == bare.terms
        assert isinstance(scaled.terms[mono], GaussianRational)
        p = dx.scale(Coefficient.param("d1")) + x
        assert wrapped * p == bare * p and p * wrapped == p * bare
        assert (wrapped * p).render() == "3/2*x^2 + 3/2*d1*x*dx"
        assert (p * bare).render() == "3/2*x^2 + 3/2*d1*x*dx + 3/2*d1"

    def test_parametric_renders(self, xy):
        d1 = Coefficient.param("d1")
        x, dx = var(xy, "x"), der(xy, "x")
        y = var(xy, "y")
        p = (x.scale(d1) + dx) * (dx.scale(d1) + x.scale(Coefficient.i()))
        assert p.render() == "i*d1*x^2 + (i + d1^2)*x*dx + d1*dx^2 + i"
        q = (dx + y.scale(d1 * Coefficient.from_rational(1, 2))) * \
            (x * x).scale(d1 - Coefficient.one())
        assert q.render() == ("(-1/2*d1 + 1/2*d1^2)*x^2*y + (-1 + d1)*x^2*dx"
                              " + (-2 + 2*d1)*x")

    @pytest.mark.parametrize("sign, off", [("plus", "1/4*i"),
                                           ("minus", "-1/4*i")])
    def test_corr_tridiag_renders(self, xy, sign, off):
        ring = weyl.weyl_ring(xy)
        M = mo.corr_tridiag(ring, [Coefficient.param("d1")], sign)
        assert [[e.render() for e in row] for row in M.entries] == \
            [["1/4 + d1", off], [off, "-1/4 + d1"]]
        assert isinstance(next(iter(M.entries[0][1].terms.values())),
                          GaussianRational)

    def test_cancelled_parameter(self, xy):
        d1 = Coefficient.param("d1")
        x = var(xy, "x")
        r = x.scale(d1) - x.scale(d1 - Coefficient.one())
        assert r == x and x == r and hash(r) == hash(x)
        assert r.render() == "x"


class TestComplexPair:
    def test_z_definition(self):
        gens = GeneratorSet(["x11", "y11"])
        z, dz = weyl.complex_pair(gens, "11")
        x = var(gens, "x11")
        y = var(gens, "y11")
        assert z == x + y.scale(Coefficient.i())
        assert z.bar() == x - y.scale(Coefficient.i())

    def test_canonical_pair(self):
        gens = GeneratorSet(["x11", "y11"])
        z, dz = weyl.complex_pair(gens, "11")
        assert commutator(dz, z) == WeylElement.one(gens)
        assert commutator(dz, z.bar()).is_zero()
        assert commutator(dz.bar(), z).is_zero()


class TestApply:
    def test_euler_operator(self, xy):
        x, dx = var(xy, "x"), der(xy, "x")
        assert (x * dx).apply(x * x) == (x * x).scale(2)

    def test_mixed_second_order(self, xy):
        x, y = var(xy, "x"), var(xy, "y")
        op = der(xy, "x") * der(xy, "y")
        assert op.apply(x * y) == WeylElement.one(xy)

    def test_rejects_operator_target(self, xy):
        with pytest.raises(ValueError):
            der(xy, "x").apply(der(xy, "x"))


class TestWick:
    def test_basic_monomials(self):
        src = GeneratorSet(["z", "p"])
        tgt = GeneratorSet(["z"])
        z, p = var(src, "z"), var(src, "p")
        mapping = {"p": "z"}
        zd = var(tgt, "z") * der(tgt, "z")
        assert weyl.wick(z * p, mapping, tgt) == zd
        assert weyl.wick(p * z, mapping, tgt) == zd
        assert weyl.wick(z * z * p * p, mapping, tgt) == \
            var(tgt, "z") ** 2 * der(tgt, "z") ** 2


class TestExactDivide:
    def test_difference_of_squares(self, xy):
        x, y = var(xy, "x"), var(xy, "y")
        assert weyl.exact_divide(x * x - y * y, x - y) == x + y

    def test_determinant_power(self):
        gens = GeneratorSet(["a", "b", "c", "d"])
        det = var(gens, "a") * var(gens, "d") - var(gens, "b") * var(gens, "c")
        assert weyl.exact_divide(det * det, det) == det

    def test_constant_quotient(self, xy):
        two = weyl.weyl_ring(xy).from_coefficient(Coefficient.from_rational(2))
        assert weyl.exact_divide(two, WeylElement.one(xy)) == two

    def test_not_divisible(self, xy):
        x, y = var(xy, "x"), var(xy, "y")
        with pytest.raises(NotDivisible):
            weyl.exact_divide(x * x + y, x - y)

    def test_parametric_leading_coefficient(self, xy):
        x, y = var(xy, "x"), var(xy, "y")
        q = x.scale(Coefficient.param("d1")) + y
        with pytest.raises(ValueError, match="not a constant: d1"):
            weyl.exact_divide(x * q, q)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_reordering_matches_action(a, b, c):
    """d^a x^b d^c normal-ordered acts on x^c+... the same as stepwise."""
    gens = GeneratorSet(["x"])
    x, dx = var(gens, "x"), der(gens, "x")
    op = dx ** a * x ** b * dx ** c
    target = x ** (a + c)
    stepwise = (dx ** a).apply((x ** b) * ((dx ** c).apply(target)))
    assert op.apply(target) == stepwise


@given(st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_falling_factorial_action(n, m):
    gens = GeneratorSet(["x"])
    x, dx = var(gens, "x"), der(gens, "x")
    got = (dx ** n).apply(x ** m)
    if m < n:
        assert got.is_zero()
    else:
        coef = 1
        for k in range(n):
            coef *= m - k
        assert got == (x ** (m - n)).scale(coef)
