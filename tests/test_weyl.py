"""Weyl algebra: normal ordering, apply, complex pairs, Wick, division."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_capelli import weyl
from nc_capelli.ringapi import commutator
from nc_capelli.scalars import Coefficient
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
