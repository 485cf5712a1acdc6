"""Matrices over noncommutative rings: column determinant,
decomplexification, correction blocks, multi-indexes."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nc_capelli import identities as idn
from nc_capelli import matrixops as mo
from nc_capelli import pbw, weyl
from nc_capelli.scalars import G_HALF, G_I, GaussianRational
from nc_capelli.weyl import EXP_LIMIT, GaussIntWeyl, GeneratorSet, WeylElement

# Commuting parameters: generators of a Weyl ring whose derivatives never
# occur.
_PARAMS = GeneratorSet(["a", "b", "c", "d", "d1"])
PRING = weyl.weyl_ring(_PARAMS)


def C(value, den=1):
    return PRING.one.scale(Fraction(value, den))


def _params(names):
    return [WeylElement.variable(_PARAMS, x) for x in names]


@pytest.fixture
def wring():
    gens = GeneratorSet(["x", "y"])
    return gens, weyl.weyl_ring(gens)


class TestColdet:
    def test_two_by_two_order(self):
        a, b, c, d = _params("abcd")
        M = mo.matrix(PRING, [[a, b], [c, d]])
        assert mo.coldet(M) == a * d - c * b

    def test_identity(self):
        assert mo.coldet(mo.identity(PRING, 3)) == PRING.one

    def test_weyl_noncommutative(self, wring):
        gens, ring = wring
        x = WeylElement.variable(gens, "x")
        dx = WeylElement.derivative(gens, "x")
        M = mo.matrix(ring, [[x, dx], [ring.one, x]])
        # column order: M[0][0]*M[1][1] - M[1][0]*M[0][1] = x*x - dx
        assert mo.coldet(M) == x * x - dx

    def test_laplace_agreement_random(self):
        """coldet (Laplace) equals the reference permutation walk on
        random matrices of size 0 to 4 over the scalar, Weyl, PBW gl_2
        and swap engines, with zero entries, and with the last row
        repeating the first."""
        rng = random.Random(7)
        for (ring, entry), size in product(idn._random_entry_engines(rng), range(5)):
            dets = []
            for trial in range(4):
                rows = [[entry() if rng.random() < 0.75 else ring.zero
                         for _ in range(size)] for _ in range(size)]
                if trial % 2 and size >= 2:
                    rows[-1] = list(rows[0])
                M = mo.matrix(ring, rows)
                dets.append(mo.coldet(M))
                assert (dets[-1] - mo.coldet_permutations(M)).is_zero(), (
                    ring.name, size, trial)
            assert any(not d.is_zero() for d in dets), (ring.name, size)

    def test_scalar_engine(self):
        """The oracle's scalar engine is the Weyl ring over no generators:
        its elements are constants, and coldet is ad - cb."""
        scalar, entry = idn._random_entry_engines(random.Random(1))[0]
        assert scalar.name == "weyl()"
        assert all(entry().terms.keys() <= {0} for _ in range(20))
        a, b, c, d = (scalar.one.scale(v) for v in (2, 3, 5, 7))
        M = mo.matrix(scalar, [[a, b], [c, d]])
        assert mo.coldet(M) == mo.coldet_permutations(M) == scalar.one.scale(-1)

    def test_rejects_non_square(self):
        M = mo.matrix(PRING, [[PRING.one] * 2])
        with pytest.raises(ValueError):
            mo.coldet(M)
        with pytest.raises(ValueError):
            mo.coldet_permutations(M)


_XY = GeneratorSet(["x", "y"])
_X = WeylElement.variable(_XY, "x")
_EXPONENT = st.integers(0, 2)
_PART = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def _bare_entry(draw):
    """A parameter-free Weyl element: up to three terms whose values have
    denominators in {1, 2, 3, 4, 6} and often an imaginary part."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        key = _XY.key([draw(_EXPONENT) for _ in "xy"],
                      [draw(_EXPONENT) for _ in "xy"])
        value = GaussianRational(draw(_PART), draw(_PART))
        if value:
            terms[key] = value
    return WeylElement(_XY, terms)


@st.composite
def _bare_matrix(draw):
    """A parameter-free Weyl matrix of size 1 to 4 with zero entries,
    sometimes an all-zero column, and sometimes (at_limit) a shape whose
    determinant has an exponent past EXP_LIMIT in every term: column 0 is
    (c x^EXP_LIMIT, 0, ..., 0) and the rest below row 0 is upper
    triangular with diagonal entries x * (nonzero), so every path
    multiplies x^EXP_LIMIT by a term holding x."""
    n = draw(st.integers(1, 4))
    rows = [[draw(_bare_entry()) for _ in range(n)] for _ in range(n)]
    zero = WeylElement.zero(_XY)
    if draw(st.integers(0, 4)) == 0:
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = zero
    at_limit = n >= 2 and draw(st.integers(0, 4)) == 0
    if at_limit:
        c = GaussianRational(draw(_PART) or 1, draw(_PART))
        rows[0][0] = WeylElement(_XY, {_XY.key([EXP_LIMIT, 0], [0, 0]): c})
        for i in range(1, n):
            rows[i][0] = zero
            for j in range(1, i):
                rows[i][j] = zero
            rows[i][i] = _X * (rows[i][i] + WeylElement.one(_XY))
            if not rows[i][i]:
                rows[i][i] = _X
    return mo.matrix(weyl.weyl_ring(_XY), rows), at_limit


def _outcome(det, M):
    try:
        return det(M)
    except OverflowError:
        return OverflowError


def _fail(*args):
    raise AssertionError("the other path ran")


def _constants(rows):
    """The matrix of constant Weyl entries over x, y with these values."""
    one = WeylElement.one(_XY)
    return mo.matrix(weyl.weyl_ring(_XY), [
        [one.scale(GaussianRational(*v)) for v in row] for row in rows]), False


@given(_bare_matrix())
# Each example fails under a break of the integer path, so that break is
# found before any matrix is generated or shrunk: an odd row's re*re
# product not negated ([[0, 1], [1, 0]]); im*im added to the real part
# (i times the identity); the max in place of the lcm of a column's
# denominators (a column 1/2, 1/3); the first column's scale missing
# from the divisor ([[1/2]]).
@example(_constants([[(0,), (1,)], [(1,), (0,)]]))
@example(_constants([[(0, 1), (0,)], [(0,), (0, 1)]]))
@example(_constants([[(Fraction(1, 2),), (0,)], [(Fraction(1, 3),), (1,)]]))
@example(_constants([[(Fraction(1, 2),)]]))
@settings(max_examples=200, deadline=None)
def test_gauss_int_coldet_matches_generic(case):
    """coldet of a Weyl matrix runs on Gaussian integers (never through
    WeylElement.mul_into) and equals, term for term, the generic Laplace
    recursion and the permutation walk; at the exponent limit every path
    raises OverflowError."""
    M, at_limit = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WeylElement, "mul_into", _fail)
        got = _outcome(mo.coldet, M)
    generic = _outcome(
        lambda M: mo._laplace(M, M.ring.one, WeylElement.mul_into), M)
    reference = _outcome(mo.coldet_permutations, M)
    assert got == generic == reference
    assert (got is OverflowError) == at_limit


def test_gauss_int_coldet_denominator():
    """gauss_int_coldet's value lies over the product of its columns'
    lcms: 6 for a column 1/2, i/3 and 20 for a column 1/4, 1/5 + i/10,
    though the determinant, 1/10 - i/30, lies over 30 once reduced."""
    M, _ = _constants([[(Fraction(1, 2),), (Fraction(1, 4),)],
                       [(0, Fraction(1, 3)),
                        (Fraction(1, 5), Fraction(1, 10))]])
    det = mo.gauss_int_coldet(M)
    assert det.den == 6 * 20
    assert det.to_weyl() == mo.coldet_permutations(M) == WeylElement.one(
        _XY).scale(GaussianRational(Fraction(1, 10), Fraction(-1, 30)))


@st.composite
def _bare_polynomial(draw):
    """A polynomial over x, y: up to three terms, values with
    denominators in {1, 2, 3, 4, 6} and often an imaginary part."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        key = _XY.key([draw(_EXPONENT) for _ in "xy"], [0, 0])
        value = GaussianRational(draw(_PART), draw(_PART))
        if value:
            terms[key] = value
    return WeylElement(_XY, terms)


_HALF_X = WeylElement(_XY, {_XY.key([1, 0], [0, 0]): GaussianRational(
    Fraction(1, 2), Fraction(1, 3))})


@given(_bare_matrix(), _bare_polynomial())
# p = (1/2 + i/3) x lies over 6, and the determinant 1 acts on it as the
# identity: fails if the action drops p's denominator
@example(_constants([[(1,)]]), _HALF_X)
@example(_constants([[(0, 1), (1,)], [(Fraction(1, 2),), (0,)]]), _HALF_X)
@settings(max_examples=150, deadline=None)
def test_gauss_int_coldet_action_matches_expanded(case, p):
    """gauss_int_coldet(M, p), the determinant acting on p unexpanded,
    equals the expanded determinant acting on p, for p over a
    denominator above 1 and with imaginary parts, which no monomial
    witness (over 1) has.  It lies over the product of the column scales
    and p.den."""
    M, at_limit = case
    assume(not at_limit)
    g = GaussIntWeyl.from_weyl(p)
    det = mo.gauss_int_coldet(M)
    got = mo.gauss_int_coldet(M, g)
    assert got == det.apply(g)
    assert got.den == det.den * g.den
    assert got.to_weyl() == mo.coldet_permutations(M).apply(p)


def test_gauss_int_coldet_action_refuses_another_generator_set():
    """A polynomial over other generators raises ValueError; over an
    equal set built apart it acts."""
    M, _ = _constants([[(1,)]])
    for names in (["y", "x"], ["x"]):
        p = GaussIntWeyl(GeneratorSet(names), {1: 1}, {})
        with pytest.raises(ValueError, match="different algebras"):
            mo.gauss_int_coldet(M, p)
    p = GaussIntWeyl(GeneratorSet(["x", "y"]), {1: 1}, {})
    assert mo.gauss_int_coldet(M, p) == p


class TestDecomplexify:
    def test_variable_block(self, wring):
        gens, ring = wring
        z, dz = weyl.complex_pair(GeneratorSet(["x", "y"]), "")
        x = WeylElement.variable(z.parent, "x")
        y = WeylElement.variable(z.parent, "y")
        ZR = mo.decomplexify(mo.matrix(weyl.weyl_ring(z.parent), [[z]]))
        assert ZR.entries[0][0] == x
        assert ZR.entries[0][1] == y
        assert ZR.entries[1][0] == -y
        assert ZR.entries[1][1] == x

    def test_derivative_block(self):
        gens = GeneratorSet(["x", "y"])
        z, dz = weyl.complex_pair(gens, "")
        dx = WeylElement.derivative(gens, "x")
        dy = WeylElement.derivative(gens, "y")
        DR = mo.decomplexify(mo.matrix(weyl.weyl_ring(gens), [[dz]]))
        assert DR.entries[0][0] == dx.scale(G_HALF)
        assert DR.entries[0][1] == -dy.scale(G_HALF)
        assert DR.entries[1][0] == dy.scale(G_HALF)
        assert DR.entries[1][1] == dx.scale(G_HALF)

    def test_homomorphism(self):
        gens = GeneratorSet(["x1", "y1", "x2", "y2"])
        ring = weyl.weyl_ring(gens)
        z1, d1 = weyl.complex_pair(gens, "1")
        z2, d2 = weyl.complex_pair(gens, "2")
        M = mo.matrix(ring, [[z1, d2], [z2, d1]])
        N = mo.matrix(ring, [[d1, z2], [z1.bar(), d2.bar()]])
        lhs = mo.decomplexify(mo.matmul(M, N))
        rhs = mo.matmul(mo.decomplexify(M), mo.decomplexify(N))
        assert all(
            (a - b).is_zero()
            for ra, rb in zip(lhs.entries, rhs.entries)
            for a, b in zip(ra, rb)
        )

    def test_transpose_is_bar_transpose(self):
        gens = GeneratorSet(["x1", "y1"])
        ring = weyl.weyl_ring(gens)
        z, _ = weyl.complex_pair(gens, "1")
        M = mo.matrix(ring, [[z]])
        lhs = mo.transpose(mo.decomplexify(M))
        rhs = mo.decomplexify(mo.matrix(ring, [[z.bar()]]))
        assert all(
            (a - b).is_zero()
            for ra, rb in zip(lhs.entries, rhs.entries)
            for a, b in zip(ra, rb)
        )

    def test_ring_without_bar_rejected(self):
        g = pbw.build_gln(2)
        M = mo.matrix(g.ring(), [[g.generator("E11")]])
        with pytest.raises(TypeError):
            mo.decomplexify(M)


class TestCorrTriDiag:
    def test_n1_block(self):
        corr = mo.corr_tridiag(PRING, [C(0)], "plus")
        i4 = C(1, 4).scale(G_I)
        assert corr.entries[0][0] == C(1, 4)
        assert corr.entries[0][1] == i4
        assert corr.entries[1][0] == i4
        assert corr.entries[1][1] == C(-1, 4)

    def test_n2_blocks(self):
        corr = mo.corr_tridiag(PRING, [C(1), C(0)], "plus")
        assert corr.entries[0][0] == C(5, 4)
        assert corr.entries[1][1] == C(3, 4)
        assert corr.entries[2][2] == C(1, 4)
        assert corr.entries[3][3] == C(-1, 4)
        assert corr.entries[0][2].is_zero()

    def test_block_determinant_is_d_squared(self):
        (d,) = _params(["d1"])
        for sign in ("plus", "minus"):
            corr = mo.corr_tridiag(PRING, [d], sign)
            det = (corr.entries[0][0] * corr.entries[1][1]
                   - corr.entries[1][0] * corr.entries[0][1])
            assert det == d * d

    def test_minus_sign(self):
        plus = mo.corr_tridiag(PRING, [C(0)], "plus")
        minus = mo.corr_tridiag(PRING, [C(0)], "minus")
        assert minus.entries[0][1] == -plus.entries[0][1]


class TestIndexHelpers:
    def test_submatrix_full(self):
        a, b, c, d = _params("abcd")
        M = mo.matrix(PRING, [[a, b], [c, d]])
        S = mo.submatrix(M, (1, 2), (1, 2))
        assert S.entries == M.entries

    def test_submatrix_single(self):
        a, b, c, d = _params("abcd")
        M = mo.matrix(PRING, [[a, b], [c, d]])
        assert mo.submatrix(M, (2,), (1,)).entries[0][0] == c

    def test_double_index(self):
        assert mo.double_index((1, 3)) == (1, 2, 5, 6)

    def test_multi_indexes(self):
        assert mo.multi_indexes(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert mo.multi_indexes(2, 0) == [()]


class TestMatrixAlgebra:
    def test_transpose_involution(self):
        a, b, c, d = _params("abcd")
        M = mo.matrix(PRING, [[a, b], [c, d]])
        T = mo.transpose(mo.transpose(M))
        assert T.entries == M.entries

    def test_identity_matmul(self):
        a, b, c, d = _params("abcd")
        M = mo.matrix(PRING, [[a, b], [c, d]])
        P = mo.matmul(mo.identity(PRING, 2), M)
        assert P.entries == M.entries
