"""The shared sparse-element core: ring axioms across the four engines,
the bar involution, the exponent contract of ``**`` and the type errors
of ``+`` and ``-``."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_capelli import pbw
from nc_capelli.scalars import G_ONE, G_ZERO, GaussianRational, accumulate
from nc_capelli.swapalg import ExteriorAlgebra, psi_phi_table
from nc_capelli.weyl import GeneratorSet, WeylElement, weyl_ring

GENS = GeneratorSet(["x", "y"])
# t is a central parameter: a letter with no relations of its own
GL2 = pbw.build_gln(2, central="t")
DOUBLED_GL2 = pbw.build_doubled_gln(2, central="t")
PSI_PHI = psi_phi_table(central="t")
EXT = ExteriorAlgebra(2, weyl_ring(GENS))

PROPERTY = settings(max_examples=15, deadline=None)


@st.composite
def constants(draw):
    """A nonzero Gaussian integer."""
    re, im = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                  .filter(lambda p: p != (0, 0)))
    return GaussianRational(re, im)


def _sums(draw, monomial, coefficient, zero, max_terms=3):
    out = zero
    for _ in range(draw(st.integers(0, max_terms))):
        out = out + monomial(draw).scale(draw(coefficient))
    return out


@st.composite
def weyl_elements(draw):
    def monomial(draw):
        v = tuple(draw(st.integers(0, 2)) for _ in range(2))
        u = tuple(draw(st.integers(0, 2)) for _ in range(2))
        return WeylElement(GENS, {GENS.key(v, u): G_ONE})
    return _sums(draw, monomial, constants(), WeylElement.zero(GENS))


@st.composite
def pbw_elements(draw, spec=GL2):
    def monomial(draw):
        out = spec.one()
        for name in draw(st.lists(st.sampled_from(spec.basis), max_size=2)):
            out = out * spec.generator(name)
        return out
    return _sums(draw, monomial, constants(), spec.zero())


@st.composite
def swap_elements(draw):
    def monomial(draw):
        out = PSI_PHI.one()
        for name in draw(st.lists(st.sampled_from(PSI_PHI.letters), max_size=2)):
            out = out * PSI_PHI.letter(name)
        return out
    return _sums(draw, monomial, constants(), PSI_PHI.zero())


@st.composite
def exterior_elements(draw):
    out = EXT.zero()
    for mask in range(4):
        if draw(st.booleans()):
            h = draw(weyl_elements())
            if not h.is_zero():
                out = out + EXT.from_host(h) * _mask_element(mask)
    return out


def _mask_element(mask):
    out = EXT.one()
    for i in range(EXT.m):
        if mask >> i & 1:
            out = out * EXT.psi(i)
    return out


ENGINES = {
    "weyl": weyl_elements(),
    "pbw": pbw_elements(),
    "swap": swap_elements(),
    "exterior": exterior_elements(),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@PROPERTY
@given(data=st.data())
def test_associative(engine, data):
    x, y, z = (data.draw(ENGINES[engine]) for _ in range(3))
    assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@PROPERTY
@given(data=st.data())
def test_distributive(engine, data):
    x, y, z = (data.draw(ENGINES[engine]) for _ in range(3))
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert (x - y) + y == x


@pytest.mark.parametrize("elements", [
    weyl_elements(), pbw_elements(DOUBLED_GL2), swap_elements(),
], ids=["weyl", "pbw", "swap"])
@PROPERTY
@given(data=st.data())
def test_bar_is_an_involutive_automorphism(elements, data):
    x, y = data.draw(elements), data.draw(elements)
    assert x.bar().bar() == x
    assert (x * y).bar() == x.bar() * y.bar()


def test_accumulate_prunes_zero_sums():
    two = GaussianRational(2)
    out = accumulate({"a": G_ONE}, [("a", -G_ONE), ("b", two), ("c", G_ZERO)])
    assert out == {"b": two}


def _power_cases():
    x = WeylElement.variable(GENS, "x")
    t = GeneratorSet(["t"])  # a polynomial in one parameter
    return [
        (WeylElement.variable(t, "t") + WeylElement.one(t).scale(2),
         WeylElement.one(t)),
        (x, WeylElement.one(GENS)),
        (GL2.generator("E12"), GL2.one()),
        (PSI_PHI.letter("psi"), PSI_PHI.one()),
        (EXT.psi(0) + EXT.one(), EXT.one()),
    ]


@pytest.mark.parametrize("x, one", _power_cases(),
                         ids=["coefficient", "weyl", "pbw", "swap", "exterior"])
def test_power_exponents(x, one):
    assert x ** 0 == one
    assert x ** 2 == x * x
    assert x ** 5 == x * x * x * x * x
    assert x ** 6 == x * x * x * x * x * x
    with pytest.raises(ValueError):
        x ** -1


@pytest.mark.parametrize("x", [
    WeylElement.variable(GENS, "x"), GL2.generator("E12"), PSI_PHI.letter("psi"),
    EXT.psi(0),
], ids=["weyl", "pbw", "swap", "exterior"])
@pytest.mark.parametrize("scalar", [1, G_ONE], ids=["int", "gaussian"])
def test_sum_with_a_scalar_is_a_type_error(x, scalar):
    """An element plus or minus a bare scalar, in either order, raises
    TypeError (a scalar enters as ``one.scale(c)``)."""
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(x, scalar)
        with pytest.raises(TypeError):
            op(scalar, x)
    assert x.__add__(scalar) is NotImplemented
    assert x.__sub__(scalar) is NotImplemented
