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
from nc_capelli.scalars import G_ONE, Coefficient, GaussianRational, accumulate
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

    def test_degree_lead_differs_from_key_lead(self, xy):
        """x^3 leads q by degree and y by packed key; the quotient is
        unique, so the order does not change it."""
        x, y = var(xy, "x"), var(xy, "y")
        q = x ** 3 + y
        f = x * x - y + WeylElement.one(xy)
        assert weyl.exact_divide(f * q, q) == f

    def test_parametric_value_off_the_degree_lead(self, xy):
        """Every value of the divisor must be constant, whatever term
        leads: x + d1*y used to divide when x led by degree."""
        x, y = var(xy, "x"), var(xy, "y")
        q = x + y.scale(Coefficient.param("d1"))
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
           GaussianRational(Fraction(1, 3), -1), Coefficient.param("d1"),
           Coefficient.param("d1") + Coefficient.one()]
_SMALL = st.integers(0, 3)
# the x exponents of a left factor may reach EXP_LIMIT - 3; the factor
# on the right adds at most 3 to them
_BIG = st.integers(0, 3) | st.integers(EXP_LIMIT - 6, EXP_LIMIT - 3)


@st.composite
def _tuple_terms(draw, n, vexp=_SMALL, uexp=_SMALL, polynomial=False):
    out = {}
    for _ in range(draw(st.integers(0, 3))):
        v = tuple(draw(vexp) for _ in range(n))
        u = (0,) * n if polynomial else tuple(draw(uexp) for _ in range(n))
        out[v, u] = draw(st.sampled_from(_VALUES))
    return out


def _packed(gens, terms):
    return WeylElement(gens, {gens.key(v, u): c for (v, u), c in terms.items()})


def _unpacked(w):
    return {w.gens.exponents(k): c for k, c in w.terms.items()}


_NAMES = ["x", "y", "z"]


@given(st.data(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_packed_product_matches_reference(data, n):
    """Left x and right d exponents reach the field limit: they never
    meet in a Leibniz step, so the reference stays cheap."""
    gens = GeneratorSet(_NAMES[:n])
    left = data.draw(_tuple_terms(n, vexp=_BIG))
    right = data.draw(_tuple_terms(n, uexp=_BIG))
    got = _packed(gens, left) * _packed(gens, right)
    assert _unpacked(got) == _ref_mul(left, right)
    assert got == _packed(gens, _ref_mul(left, right))
    into = {0: G_ONE}
    _packed(gens, left).mul_into(_packed(gens, right), into, negate=True)
    assert WeylElement(gens, into) == WeylElement.one(gens) - got


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
