"""Weyl algebra: normal ordering, apply, complex pairs, Wick, division,
and the packed keys against a tuple-keyed reference."""

from fractions import Fraction
from itertools import product
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_capelli import weyl
from nc_capelli import matrixops as mo
from nc_capelli.ringapi import commutator
from nc_capelli.scalars import G_I, G_ONE, GaussianRational, accumulate
from nc_capelli.weyl import EXP_LIMIT, GeneratorSet, NotDivisible, WeylElement


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

    def test_left_derivative_order_past_the_recursion_limit(self, xy):
        """The kernel applies a high-order left d-part one d_g at a time
        in a loop; a field meeting no x_g is a key add."""
        x, y, dx, dy = var(xy, "x"), var(xy, "y"), der(xy, "x"), der(xy, "y")
        assert (dx ** 2000).render() == "dx^2000"
        a, b = 1500, 1200
        assert dx ** a * x ** 2 == (x ** 2 * dx ** a
                                    + (x * dx ** (a - 1)).scale(2 * a)
                                    + (dx ** (a - 2)).scale(a * (a - 1)))
        assert dx ** a * dy ** b * x * y == (
            x * y * dx ** a * dy ** b
            + (x * dx ** a * dy ** (b - 1)).scale(b)
            + (y * dx ** (a - 1) * dy ** b).scale(a)
            + (dx ** (a - 1) * dy ** (b - 1)).scale(a * b))


class TestValueForms:
    """Weyl values are always GaussianRationals: a parameter is the
    generator of the same name, and ``scale`` takes only a scalar."""

    @pytest.fixture
    def xyd(self):
        return GeneratorSet(["x", "y", "d1"])

    def test_parameter_scales_as_generator(self, xyd):
        x, p = var(xyd, "x"), var(xyd, "d1")
        got = x * (p + WeylElement.one(xyd).scale(Fraction(1, 4)))
        assert got == x * p + x.scale(Fraction(1, 4))
        assert x * (p * p - p) == (p * p - p) * x
        assert der(xyd, "x") * p == p * der(xyd, "x")
        assert all(type(c) is GaussianRational for c in got.terms.values())
        with pytest.raises(TypeError):
            x.scale(p)

    def test_parametric_renders(self, xyd):
        d1 = var(xyd, "d1")
        x, dx = var(xyd, "x"), der(xyd, "x")
        y = var(xyd, "y")
        p = (x * d1 + dx) * (dx * d1 + x.scale(G_I))
        assert p.render() == "x*d1^2*dx + i*x^2*d1 + d1*dx^2 + i*x*dx + i"
        q = (dx + (y * d1).scale(Fraction(1, 2))) * \
            (x * x) * (d1 - WeylElement.one(xyd))
        assert q.render() == ("1/2*x^2*y*d1^2 - 1/2*x^2*y*d1 + x^2*d1*dx"
                              " - x^2*dx + 2*x*d1 - 2*x")

    @pytest.mark.parametrize("sign, off", [("plus", "1/4*i"),
                                           ("minus", "-1/4*i")])
    def test_corr_tridiag_renders(self, xyd, sign, off):
        ring = weyl.weyl_ring(xyd)
        M = mo.corr_tridiag(ring, [var(xyd, "d1")], sign)
        assert [[e.render() for e in row] for row in M.entries] == \
            [["d1 + 1/4", off], [off, "d1 - 1/4"]]
        assert all(type(c) is GaussianRational
                   for row in M.entries for e in row for c in e.terms.values())

    def test_cancelled_parameter(self, xyd):
        d1 = var(xyd, "d1")
        x = var(xyd, "x")
        r = x * d1 - x * (d1 - WeylElement.one(xyd))
        assert r == x and x == r and hash(r) == hash(x)
        assert r.render() == "x"


class TestComplexPair:
    def test_z_definition(self):
        gens = GeneratorSet(["x11", "y11"])
        z, dz = weyl.complex_pair(gens, "11")
        x = var(gens, "x11")
        y = var(gens, "y11")
        assert z == x + y.scale(G_I)
        assert z.bar() == x - y.scale(G_I)

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
        two = WeylElement.one(xy).scale(2)
        assert weyl.exact_divide(two, WeylElement.one(xy)) == two

    def test_not_divisible(self, xy):
        x, y = var(xy, "x"), var(xy, "y")
        with pytest.raises(NotDivisible):
            weyl.exact_divide(x * x + y, x - y)

    def test_degree_lead_differs_from_key_lead(self, xy):
        """x^3 leads q by degree and y by packed key; the quotient is
        unique, so the order does not change it."""
        x, y = var(xy, "x"), var(xy, "y")
        q = x ** 3 + y
        f = x * x - y + WeylElement.one(xy)
        assert weyl.exact_divide(f * q, q) == f

    def test_parameter_in_the_divisor(self):
        """A parameter is a generator, so x + d1*y divides like x + y."""
        gens = GeneratorSet(["x", "y", "d1"])
        x, y = var(gens, "x"), var(gens, "y")
        q = x + y * var(gens, "d1")
        assert weyl.exact_divide(q * x, q) == x


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


# --- packed keys against a tuple-keyed reference ---------------------------

def _ref_mul(left, right):
    """Normal-ordered product of {(v, u): value} dicts by the per-generator
    Leibniz rule d^a x^b = sum_k k! C(a,k) C(b,k) x^(b-k) d^(a-k)."""
    out = {}
    for (v1, u1), c1 in left.items():
        for (v2, u2), c2 in right.items():
            choices = [[(k, comb(a, k) * perm(b, k))
                        for k in range(min(a, b) + 1)]
                       for a, b in zip(u1, v2)]
            for picks in product(*choices):
                factor = 1
                for _, f in picks:
                    factor *= f
                ks = [k for k, _ in picks]
                mono = (tuple(a + b - k for a, b, k in zip(v1, v2, ks)),
                        tuple(a + b - k for a, b, k in zip(u1, u2, ks)))
                accumulate(out, [(mono, c1 * c2 * GaussianRational(factor))])
    return out


def _ref_apply(op, p):
    """d^a x^b = perm(b, a) x^(b-a) on polynomials, generator by generator."""
    out = {}
    for (v, u), c in op.items():
        for (vp, zero), cp in p.items():
            factor = 1
            for a, b in zip(u, vp):
                factor *= perm(b, a)
            if factor:
                mono = (tuple(a + b - k for a, b, k in zip(v, vp, u)), zero)
                accumulate(out, [(mono, c * cp * GaussianRational(factor))])
    return out


_VALUES = [GaussianRational(1), GaussianRational(-2), GaussianRational(0, 1),
           GaussianRational(Fraction(1, 3), -1),
           GaussianRational(Fraction(-5, 2), Fraction(2, 7))]
_SMALL = st.integers(0, 3)
# the x exponents of a left factor may reach EXP_LIMIT - 3; the factor
# on the right adds at most 3 to them
_BIG = st.integers(0, 3) | st.integers(EXP_LIMIT - 6, EXP_LIMIT - 3)


@st.composite
def _tuple_terms(draw, n, vexp=_SMALL, uexp=_SMALL, polynomial=False,
                 values=st.sampled_from(_VALUES)):
    out = {}
    for _ in range(draw(st.integers(0, 3))):
        v = tuple(draw(vexp) for _ in range(n))
        u = (0,) * n if polynomial else tuple(draw(uexp) for _ in range(n))
        out[v, u] = draw(values)
    return out


def _packed(gens, terms):
    return WeylElement(gens, {gens.key(v, u): c for (v, u), c in terms.items()})


def _unpacked(w):
    return {w.gens.exponents(k): c for k, c in w.terms.items()}


_NAMES = ["x", "y", "z"]


@given(st.data(), st.integers(1, 3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_packed_product_matches_reference(data, n, ints):
    """Left x and right d exponents reach the field limit: they never
    meet in a Leibniz step, so the reference stays cheap.  Left d
    exponents go up to 3 in every generator.  With ``ints`` the values
    are plain ints, as ``GaussIntWeyl`` feeds the kernel, and the
    results are compared as Gaussian rationals."""
    gens = GeneratorSet(_NAMES[:n])
    values = (st.sampled_from((1, -1, 2, -3)) if ints
              else st.sampled_from(_VALUES))
    left = data.draw(_tuple_terms(n, vexp=_BIG, values=values))
    right = data.draw(_tuple_terms(n, uexp=_BIG, values=values))

    def element(terms):
        return WeylElement(gens, {k: GaussianRational(c) if ints else c
                                  for k, c in terms.items()})

    a, b = _packed(gens, left), _packed(gens, right)
    got = element((a * b).terms)
    assert _unpacked(got) == _ref_mul(left, right)
    assert got == _packed(gens, _ref_mul(left, right))
    into = {0: 1 if ints else G_ONE}
    weyl._mul_kernel(gens, a.terms, b.terms, into, negate=True)
    assert element(into) == WeylElement.one(gens) - got


@given(st.data(), st.integers(1, 3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_packed_apply_matches_reference(data, n, big_target):
    """Either the operator's x exponents or the target's reach the limit.
    The operator's d exponents are 0 or 2, so that several of its terms
    often share a derivative part (apply differentiates once per part)."""
    gens = GeneratorSet(_NAMES[:n])
    op = data.draw(_tuple_terms(n, vexp=_SMALL if big_target else _BIG,
                                uexp=st.sampled_from((0, 2))))
    p = data.draw(_tuple_terms(n, vexp=_BIG if big_target else _SMALL,
                               polynomial=True))
    got = _packed(gens, op).apply(_packed(gens, p))
    assert _unpacked(got) == _ref_apply(op, p)
    assert got.is_polynomial()
    into = {0: G_ONE}
    _packed(gens, op).apply_into(_packed(gens, p), into, negate=True)
    assert WeylElement(gens, into) == WeylElement.one(gens) - got


class TestFieldLimit:
    """An exponent past EXP_LIMIT raises OverflowError; it never wraps
    into the next field."""

    @pytest.fixture
    def top(self, xy):
        return WeylElement(xy, {xy.key((EXP_LIMIT, 0), (0, 0)): G_ONE})

    def test_key_and_exponents(self, xy):
        key = xy.key((EXP_LIMIT, 1), (0, EXP_LIMIT))
        assert xy.exponents(key) == ((EXP_LIMIT, 1), (0, EXP_LIMIT))
        with pytest.raises(OverflowError):
            xy.key((EXP_LIMIT + 1, 0), (0, 0))
        with pytest.raises(OverflowError):
            xy.key((0, 0), (0, EXP_LIMIT + 1))
        with pytest.raises(ValueError):
            xy.key((-1, 0), (0, 0))
        with pytest.raises(ValueError):
            xy.key((1,), (0, 0))

    def test_product_at_and_past_the_limit(self, xy, top):
        x, y, dx = var(xy, "x"), var(xy, "y"), der(xy, "x")
        below = WeylElement(xy, {xy.key((EXP_LIMIT - 1, 0), (0, 0)): G_ONE})
        assert below * x == top
        assert (top * y).render() == f"x^{EXP_LIMIT}*y"
        assert dx * top == top * dx + below.scale(EXP_LIMIT)
        for a, b in ((top, x), (x, top), (top * dx, x * x), (top + y, x)):
            with pytest.raises(OverflowError):
                a * b
        with pytest.raises(OverflowError):
            mo.coldet(mo.matrix(weyl.weyl_ring(xy), [[top, y], [y, x]]))

    def test_apply_past_the_limit(self, xy, top):
        x, dx = var(xy, "x"), der(xy, "x")
        assert dx.apply(top).render() == f"{EXP_LIMIT}*x^{EXP_LIMIT - 1}"
        with pytest.raises(OverflowError):
            top.apply(x)
        with pytest.raises(OverflowError):
            (x * x * dx).apply(top * var(xy, "y") + x)

    def test_power_raises_before_multiplying(self, xy):
        x, dx = var(xy, "x"), der(xy, "x")
        with pytest.raises(OverflowError):
            x ** (EXP_LIMIT + 1)
        with pytest.raises(OverflowError):
            (x * x + dx) ** (EXP_LIMIT // 2 + 1)
        with pytest.raises(OverflowError):
            x ** 99999999999
        assert (x * x) ** 3 == x ** 6
        with pytest.raises(ValueError):
            x ** -1
