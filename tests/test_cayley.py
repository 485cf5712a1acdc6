"""Cayley identity family: classical, decomplexified, quaternionic,
radial-part."""

from fractions import Fraction

import pytest

from nc_capelli import cayley
from nc_capelli.scalars import GaussianRational
from nc_capelli.weyl import GeneratorSet, WeylElement

# polynomials in s
S_GENS = GeneratorSet(["s"])
S = WeylElement.variable(S_GENS, "s")


def C(value, den=1):
    return GaussianRational(Fraction(value, den))


def P(value, den=1):
    """A constant polynomial in s."""
    return WeylElement.one(S_GENS).scale(Fraction(value, den))


class TestScalar:
    def test_n1_s3(self):
        assert cayley.cayley_scalar(1, 3) == C(3)

    def test_n2_values(self):
        assert cayley.cayley_scalar(2, 1) == C(2)
        assert cayley.cayley_scalar(2, 3) == C(12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b_polynomial_reconstruction(self, n):
        report = cayley.verify_cayley_scalar(n)
        assert report.residualIsZero

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            cayley.cayley_scalar(2, 0)


class TestDecomplexified:
    def test_n1_values(self):
        assert cayley.cayley_decomplexified(1, 1) == C(1)
        assert cayley.cayley_decomplexified(1, 2) == C(4)

    def test_n2_s1(self):
        assert cayley.cayley_decomplexified(2, 1) == C(4)

    def test_square_of_scalar(self):
        for n in (1, 2):
            for s in (1, 2):
                b = cayley.cayley_scalar(n, s)
                assert cayley.cayley_decomplexified(n, s) == b * b


class TestQuaternion:
    @pytest.mark.parametrize("n", [1, 2])
    def test_commutation_table(self, n):
        assert cayley.quaternion_commutation_check(n).residualIsZero

    def test_complex_form_values(self):
        assert cayley.cayley_quaternion("complexForm", 1, 1) == C(1, 2)

    def test_real_form_values(self):
        assert cayley.cayley_quaternion("realForm", 1, 1) == C(3, 4)
        assert cayley.cayley_quaternion("realForm", 1, 2) == C(15)

    def test_closed_form_polynomials(self):
        assert cayley.verify_cayley_quaternion("complexForm", 1).residualIsZero
        assert cayley.verify_cayley_quaternion("realForm", 1).residualIsZero


class TestRadial:
    def test_n1(self):
        assert cayley.radial_identity(1, 3).residualIsZero

    def test_gl2_example_value(self):
        assert cayley.radial_gl2_example() == C(2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_scalar(self, n):
        for s in (1, 2):
            report = cayley.radial_identity(n, s)
            assert report.residualIsZero
            b = 1
            for k in range(n):
                b *= s + k
            assert cayley.cayley_scalar(n, s) == C(b)


class TestConstantOf:
    gens = GeneratorSet(["x", "y"])

    def test_constant(self):
        three = WeylElement.one(self.gens).scale(3)
        assert cayley._constant_of(three) == C(3)
        assert type(cayley._constant_of(three)) is GaussianRational
        assert cayley._constant_of(WeylElement.zero(self.gens)) == C(0)

    @pytest.mark.parametrize("names", [["x"], ["x", "y"], ["x", None]])
    def test_non_constant(self, names):
        w = WeylElement.zero(self.gens)
        for name in names:
            w = w + (WeylElement.variable(self.gens, name) if name
                     else WeylElement.one(self.gens))
        with pytest.raises(ValueError, match="not a constant: "):
            cayley._constant_of(w)


class TestInterpolation:
    def test_linear(self):
        pts = [(1, C(3)), (2, C(5))]
        assert cayley.interpolate(pts) == S.scale(2) + P(1)

    def test_b_polynomial(self):
        assert cayley.b_polynomial(2) == S * S + S

    def test_quaternion_closed_forms(self):
        """(1/4) s (s+1) and (1/16)(2s-1)(2s)^2(2s+1) at n = 1."""
        assert cayley.quaternion_expected("complexForm", 1) == \
            (S * S + S).scale(Fraction(1, 4))
        two_s = S.scale(2)
        assert cayley.quaternion_expected("realForm", 1) == (
            (two_s - P(1)) * two_s * two_s * (two_s + P(1))).scale(
                Fraction(1, 16))


class TestSympyFirstPrinciples:
    """b(s) at n = 2 from sympy alone: det(d) applied to det(X)^s with a
    symbolic s, divided by det(X)^(s-1).  No Weyl product, apply or
    exact_divide of this package runs on the sympy side."""

    @staticmethod
    def _fitted():
        report = cayley.verify_cayley_scalar(2)
        assert report.residualIsZero
        return report.notes["bPolynomial"]

    @staticmethod
    def _disagreement(sign, fitted_text):
        """quotient - fitted, for det(d) with the given sign of its
        second product (-1 is the determinant)."""
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        x11, x12, x21, x22 = sympy.symbols("x11 x12 x21 x22")
        det = x11 * x22 - x12 * x21
        f = det ** s
        op = sympy.diff(f, x11, x22) + sign * sympy.diff(f, x12, x21)
        fitted = sympy.sympify(fitted_text.replace("^", "**"),
                               locals={"s": s})
        return sympy.simplify(op / det ** (s - 1) - fitted)

    def test_b_polynomial_matches(self):
        assert self._disagreement(-1, self._fitted()) == 0

    def test_permanent_operator_disagrees(self):
        assert self._disagreement(+1, self._fitted()) != 0

    def test_perturbed_polynomial_disagrees(self):
        assert self._disagreement(-1, self._fitted() + " + s") != 0

