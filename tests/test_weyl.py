"""Weyl algebra: normal ordering, apply, complex pairs, Wick, division,
and the packed keys against a tuple-keyed reference."""

import time
from fractions import Fraction
from itertools import product
from math import comb, lcm, perm

import pytest
from hypothesis import example, given, settings
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
        """The kernel applies a high-order left d-part one field at a
        time, in a loop; a field meeting no x_g is a key add."""
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

    def test_high_derivative_power_times_variable_power(self, xy):
        """dx^a x^b = sum_j C(a, j) b!/(b-j)! x^(b-j) dx^(a-j), one
        binomial pass over the right factor, not a passes."""
        x, dx = var(xy, "x"), der(xy, "x")
        a = b = 1000
        left, right = dx ** a, x ** b
        start = time.perf_counter()
        got = left * right
        took = time.perf_counter() - start
        assert got == WeylElement(xy, {
            xy.key((b - j, 0), (a - j, 0)): GaussianRational(comb(a, j) * perm(b, j))
            for j in range(min(a, b) + 1)})
        assert took < 0.5


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

    def test_divisor_over_another_generator_set(self, xy):
        """y over (y, x) has the key of x over (x, y); dividing by it
        raises rather than reading it in the dividend's layout."""
        x = var(xy, "x")
        with pytest.raises(ValueError, match="different algebras"):
            weyl.exact_divide(x * x, var(GeneratorSet(["y", "x"]), "y"))

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
                 values=st.sampled_from(_VALUES), absent=()):
    """Up to three terms; the generators in ``absent`` have x exponent 0
    in every term."""
    out = {}
    for _ in range(draw(st.integers(0, 3))):
        v = tuple(0 if g in absent else draw(vexp) for g in range(n))
        u = (0,) * n if polynomial else tuple(draw(uexp) for _ in range(n))
        out[v, u] = draw(values)
    return out


def _packed(gens, terms):
    return WeylElement(gens, {gens.key(v, u): c for (v, u), c in terms.items()})


def _unpacked(w):
    return {w.parent.exponents(k): c for k, c in w.terms.items()}


_NAMES = ["x", "y", "z"]


@given(st.data(), st.integers(1, 3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_packed_product_matches_reference(data, n, ints):
    """Left x and right d exponents reach the field limit: they never
    meet in a Leibniz step, so the reference stays cheap.  Left d
    exponents go up to 3 in every generator.  With ``ints`` the values
    are plain ints, as ``GaussIntWeyl`` feeds the kernel, and the
    results are compared as Gaussian rationals.  The right x exponents
    are often 0, and x_g is left out of every right term for a drawn set
    of generators g, so that a left d_g often meets no x_g (a plain key
    add, with no Leibniz step) or meets it in only some right terms."""
    gens = GeneratorSet(_NAMES[:n])
    values = (st.sampled_from((1, -1, 2, -3)) if ints
              else st.sampled_from(_VALUES))
    left = data.draw(_tuple_terms(n, vexp=_BIG, values=values))
    absent = data.draw(st.sets(st.integers(0, n - 1)))
    right = data.draw(_tuple_terms(n, vexp=st.sampled_from((0, 0, 1, 2, 3)),
                                   uexp=_BIG, values=values, absent=absent))

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
    weyl._apply(gens, _packed(gens, op).terms, _packed(gens, p).terms, into,
                negate=True)
    assert WeylElement(gens, into) == WeylElement.one(gens) - got


_PART = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def _gauss_element(draw, gens, polynomial):
    """Up to four terms, each exponent up to 3 (no derivative if
    ``polynomial``), values with denominators in {1, 2, 3, 4, 6} whose
    real or imaginary parts are sometimes all zero."""
    parts = draw(st.sampled_from(("re", "im", "both")))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        v = [draw(_SMALL) for _ in range(gens.n)]
        u = [0 if polynomial else draw(_SMALL) for _ in range(gens.n)]
        value = GaussianRational(draw(_PART) if parts != "im" else 0,
                                 draw(_PART) if parts != "re" else 0)
        if value:
            terms[gens.key(v, u)] = value
    return WeylElement(gens, terms)


@st.composite
def _apply_case(draw):
    gens = GeneratorSet(_NAMES[:draw(st.integers(1, 3))])
    return (draw(_gauss_element(gens, False)),
            draw(_gauss_element(gens, True)), draw(st.booleans()))


def _scaled(w):
    """w as a GaussIntWeyl over the lcm of its value denominators."""
    den = lcm(1, *(c.d for c in w.terms.values()))
    return weyl.GaussIntWeyl.from_weyl(w, den)


def _int_apply(op, p, negate=False, start=0):
    """op acting on p on Gaussian integers, negated if ``negate``, added
    to the constant ``start``, back as a WeylElement: ``apply`` when
    neither is asked for, else ``apply_into`` over the denominators'
    product."""
    g_op, g_p = _scaled(op), _scaled(p)
    if not (negate or start):
        return g_op.apply(g_p).to_weyl()
    den = g_op.den * g_p.den
    out = g_op.apply_into(g_p, ({0: start * den} if start else {}, {}),
                          negate)
    return weyl.GaussIntWeyl(op.parent, *out, den).to_weyl()


_I_X = WeylElement(GeneratorSet(["x"]), {1: G_I})


@given(_apply_case())
# i*x acting on i*x is -x^2: fails if the im*im call adds
@example((_I_X, _I_X, False))
@settings(max_examples=200, deadline=None)
def test_gauss_int_apply_matches_generic(case):
    """GaussIntWeyl.apply_into, over the scale of its operands, equals
    WeylElement.apply, also negated and added into a nonempty sum."""
    op, p, negate = case
    want = op.apply(p)
    assert _int_apply(op, p) == want
    assert _int_apply(op, p, negate, start=1) == \
        WeylElement.one(op.parent) + (-want if negate else want)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_gauss_int_product_matches_generic(data):
    """GaussIntWeyl * GaussIntWeyl, over the product of the denominators,
    equals the WeylElement product, and to_weyl inverts from_weyl."""
    gens = GeneratorSet(_NAMES[:data.draw(st.integers(1, 3))])
    a, b = (data.draw(_gauss_element(gens, False)) for _ in range(2))
    assert _scaled(a).to_weyl() == a
    got = _scaled(a) * _scaled(b)
    assert got.den == _scaled(a).den * _scaled(b).den
    assert got.to_weyl() == a * b


def test_gauss_int_refuses_another_generator_set(xy):
    """* and apply of GaussIntWeyl values over two generator sets raise
    ValueError; over equal sets built apart they run."""
    a = _scaled(var(xy, "x"))
    for gens in (GeneratorSet(["y", "x"]), GeneratorSet(["x"])):
        b = _scaled(var(gens, "x"))
        for op in (lambda: a * b, lambda: b * a, lambda: a.apply(b)):
            with pytest.raises(ValueError, match="different algebras"):
                op()
    b = _scaled(var(GeneratorSet(["x", "y"]), "x"))
    assert (a * b).to_weyl() == var(xy, "x") * var(xy, "x")


def test_gauss_int_apply_limits(xy):
    """A target with a derivative raises ValueError from either part, and
    an exponent pushed past EXP_LIMIT raises OverflowError."""
    x, dx = var(xy, "x"), der(xy, "x")
    top = WeylElement(xy, {xy.key((EXP_LIMIT, 0), (0, 0)): G_ONE})
    for target in (dx, dx.scale(G_I), x + dx.scale(G_I)):
        with pytest.raises(ValueError, match="polynomial"):
            _int_apply(x, target)
    for op, target in ((x, top), (top.scale(G_I), x.scale(G_I)),
                       (x * x * dx, top + x)):
        with pytest.raises(OverflowError):
            _int_apply(op, target)
    assert _int_apply(dx, top.scale(G_I)) == \
        WeylElement(xy, {xy.key((EXP_LIMIT - 1, 0), (0, 0)):
                         GaussianRational(0, EXP_LIMIT)})


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

    def test_field_or_above_the_limit_is_not_an_overflow(self, xy):
        """x^h + x^(h-1), h = 2**(B-2): the OR of the two keys' fields is
        EXP_LIMIT, so x times it sets the guard bit of the bound, yet
        neither pair overflows."""
        x, h = var(xy, "x"), (EXP_LIMIT + 1) // 2
        power = {e: WeylElement(xy, {xy.key((e, 0), (0, 0)): G_ONE})
                 for e in (h - 1, h, h + 1)}
        assert x * (power[h] + power[h - 1]) == power[h + 1] + power[h]
        dx = der(xy, "x")
        assert (x * dx) * (power[h] + power[h - 1]) == \
            (power[h + 1] + power[h]) * dx + power[h].scale(h) \
            + power[h - 1].scale(h - 1)

    def test_one_overflowing_pair_raises(self, xy, top):
        """Only one pair of each product passes the limit."""
        x, y, dx = var(xy, "x"), var(xy, "y"), der(xy, "x")
        one = WeylElement.one(xy)
        for a, b in ((x, y + one + top), (y + x, one + top),
                     (x * dx, y + top), (y * dx + x, one + top)):
            with pytest.raises(OverflowError):
                a * b

    def test_peeled_product_at_the_limit(self, xy):
        """d_x^3 peels d_x^2 into x^2 d_x^e before its last d_x: at
        e = EXP_LIMIT - 3 the product fits, above it the peeled key or
        the last d_x passes the limit."""
        left = {((0, 0), (3, 0)): G_ONE}
        fits = {((2, 0), (EXP_LIMIT - 3, 0)): G_ONE}
        assert _unpacked(_packed(xy, left) * _packed(xy, fits)) == \
            _ref_mul(left, fits)
        for e in (EXP_LIMIT - 2, EXP_LIMIT - 1):
            with pytest.raises(OverflowError):
                _packed(xy, left) * _packed(xy, {((2, 0), (e, 0)): G_ONE})

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
