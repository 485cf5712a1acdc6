"""PBW layer: structure constants, straightening, bar, HC projection."""

import random
from fractions import Fraction

import pytest

from nc_capelli import cli, pbw, swapalg
from nc_capelli import matrixops as mo
from nc_capelli.ringapi import commutator
from nc_capelli.scalars import G_I, GaussianRational
from nc_capelli.weyl import GeneratorSet, WeylElement


def C(value, den=1):
    return GaussianRational(Fraction(value, den))


@pytest.fixture(scope="module")
def gl2():
    return pbw.build_gln(2)


@pytest.fixture(scope="module")
def gl3():
    return pbw.build_gln(3)


class TestStructureConstants:
    def test_n1_abelian(self):
        g = pbw.build_gln(1)
        e = g.generator("E11")
        assert commutator(e, e).is_zero()

    def test_gl2_bracket(self, gl2):
        e12, e21 = gl2.generator("E12"), gl2.generator("E21")
        e11, e22 = gl2.generator("E11"), gl2.generator("E22")
        assert commutator(e12, e21) == e11 - e22

    def test_jacobi_gl3(self, gl3):
        # the overlap test of the bracket rules is the Jacobi identity
        gl3.check_confluence()

    @pytest.mark.parametrize("n", [2, 3])
    def test_doubled_gln_confluent(self, n):
        pbw.build_doubled_gln(n).check_confluence()

    def test_straighten_example(self, gl2):
        e12, e21 = gl2.generator("E12"), gl2.generator("E21")
        e11, e22 = gl2.generator("E11"), gl2.generator("E22")
        assert e12 * e21 == e21 * e12 + e11 - e22

    def test_cartan_commute(self, gl2):
        e11 = gl2.generator("E11")
        assert e11 * e11 == e11 ** 2

    def test_associativity_random(self, gl2):
        rng = random.Random(11)
        gens = [gl2.generator(name) for name in gl2.basis]
        for _ in range(20):
            a, b, c = (rng.choice(gens) for _ in range(3))
            assert ((a * b) * c - a * (b * c)).is_zero()


def _product(spec, *factors):
    out = spec.one()
    for name in factors:
        out = out * spec.generator(name)
    return out


class TestRendering:
    """Terms print in descending (degree, exponent vector) order, with
    repeated letters grouped into powers."""

    @pytest.mark.parametrize("n, factors, minus, text", [
        (2, ("E21", "E12", "E11", "E11"), "E22",
         "E21*E11^2*E12 - 2*E21*E11*E12 + E21*E12 - E22"),
        (2, ("E12", "E12", "E21"), None,
         "E21*E12^2 + 2*E11*E12 - 2*E22*E12 - 2*E12"),
        (3, ("E13", "E31", "E22"), None,
         "E31*E22*E13 + E11*E22 - E22*E33"),
        (3, ("E32", "E21", "E13", "E11"), None,
         "E21*E32*E11*E13 - E21*E32*E13 + E31*E11*E13 - E31*E13"),
        (3, ("E23", "E23", "E32"), None,
         "E32*E23^2 + 2*E22*E23 - 2*E33*E23 - 2*E23"),
    ])
    def test_products(self, n, factors, minus, text):
        g = pbw.build_gln(n)
        x = _product(g, *factors)
        if minus:
            x = x - g.generator(minus)
        assert x.render() == text

    def test_doubled_bar_of_mixed_product(self):
        g = pbw.build_doubled_gln(2)
        x = (_product(g, "E12", "Eb21", "E21").scale(G_I)
             + _product(g, "Eb11", "Eb11").scale(C(2)) + g.generator("E22"))
        assert x.render() == (
            "i*E21*E12*Eb21 + i*E11*Eb21 - i*E22*Eb21 + 2*Eb11^2 + E22")
        assert x.bar().render() == (
            "-i*E21*Eb21*Eb12 - i*E21*Eb11 + i*E21*Eb22 + 2*E11^2 + Eb22")

    @pytest.mark.parametrize("context, text, out", [
        ("gl2", "E12^2*E21", "E21*E12^2 + 2*E11*E12 - 2*E22*E12 - 2*E12"),
        ("gl2", "(E11 + i*E22)*E12*E21",
         "E21*E11*E12 + i*E21*E22*E12 + (-1+i)*E21*E12 + E11^2"
         " + (-1+i)*E11*E22 - i*E22^2"),
        ("swap", "(psi + i*phi)*(phi_bar - psi_bar)*psi",
         "psi*psi*psi_bar - psi*psi*phi_bar + i*phi*psi*psi_bar"
         " - i*phi*psi*phi_bar"),
        ("swap", "phi*psi*phi", "phi*psi*phi"),
    ])
    def test_expand_output(self, capsys, context, text, out):
        assert cli.main(["expand", "--context", context, text]) == 0
        assert capsys.readouterr().out.strip() == out


class TestDoubled:
    def test_bar_copy_commutes(self):
        g = pbw.build_doubled_gln(2)
        assert commutator(g.generator("E12"), g.generator("Eb21")).is_zero()

    def test_bar_map(self):
        g = pbw.build_doubled_gln(2)
        assert g.generator("E12").bar() == g.generator("Eb12")
        assert g.generator("Eb12").bar() == g.generator("E12")

    @pytest.mark.parametrize("element", [
        lambda: pbw.build_gln(2).generator("E12"),
        lambda: swapalg.SwapTable(["p", "q"]).letter("p"),
    ], ids=["pbw", "swap"])
    def test_bar_needs_a_bar_map(self, element):
        with pytest.raises(TypeError):
            element().bar()

    def test_barred_bracket(self):
        g = pbw.build_doubled_gln(2)
        got = commutator(g.generator("Eb12"), g.generator("Eb21"))
        assert got == g.generator("Eb11") - g.generator("Eb22")


def _shifted_capelli_gl2():
    """(spec, coldet(E + diag(1 + u, u))) over U(gl_2) with the central
    letter u."""
    spec = pbw.build_gln(2, central="u")
    ring = spec.ring()
    E = mo.matrix(
        ring,
        [[spec.generator(f"E{i}{j}") for j in (1, 2)] for i in (1, 2)],
    )
    u = spec.generator("u")
    return spec, mo.coldet(E + mo.diag(ring, [ring.one + u, u]))


class TestHarishChandra:
    def test_n1(self):
        g = pbw.build_gln(1)
        assert pbw.hc_projection(g.generator("E11")) == \
            WeylElement.variable(GeneratorSet(["lam1"]), "lam1")

    def test_gl2_capelli_determinant(self):
        """A central letter keeps its name in the image."""
        _, det = _shifted_capelli_gl2()
        gens = GeneratorSet(["lam1", "lam2", "u"])
        lam1, lam2, u = (WeylElement.variable(gens, x) for x in gens.names)
        expected = (lam1 + WeylElement.one(gens) + u) * (lam2 + u)
        assert pbw.hc_projection(det) == expected


class TestCentrality:
    def test_trace_central(self, gl2):
        assert pbw.is_central(gl2.generator("E11") + gl2.generator("E22"))

    def test_raising_not_central(self, gl2):
        assert not pbw.is_central(gl2.generator("E12"))

    def test_capelli_coefficients_central(self):
        _, det = _shifted_capelli_gl2()
        parts = det.split_by_letter("u")
        assert parts
        for part in parts.values():
            assert pbw.is_central(part)

    def test_split_by_central_letter(self):
        """coldet(E + diag(1 + u, u)) = u^2 + (E11 + E22 + 1) u
        + (E11 + 1) E22 - E21 E12, each part without the letter u."""
        spec, det = _shifted_capelli_gl2()
        e = {name: spec.generator(name) for name in ("E11", "E12", "E21", "E22")}
        one = spec.one()
        assert det.split_by_letter("u") == {
            2: one,
            1: e["E11"] + e["E22"] + one,
            0: (e["E11"] + one) * e["E22"] - e["E21"] * e["E12"],
        }


class TestLieAlgebraSpec:
    def test_sl2_brackets(self):
        # basis f < h < e; brackets keyed (u, v) with u > v
        g = pbw.LieAlgebraSpec(("f", "h", "e"), {
            (1, 0): {0: C(-2)},  # [h, f] = -2f
            (2, 0): {1: C(1)},   # [e, f] = h
            (2, 1): {2: C(-2)},  # [e, h] = -2e
        })
        e, h, f = g.generator("e"), g.generator("h"), g.generator("f")
        assert commutator(e, f) == h
        assert commutator(h, e) == e.scale(2)
        assert commutator(h, f) == f.scale(-2)
        g.check_confluence()

    def test_jacobi_failure_rejected(self):
        for basis, brackets, at in [
            # [b, a] = a and [c, b] = b, with [c, a] = 0, break Jacobi
            (("a", "b", "c"), {(1, 0): {0: C(1)}, (2, 1): {1: C(1)}},
             r"c\*b\*a"),
            # sl2 as above with [e, h] sign-flipped to +2e
            (("f", "h", "e"), {(1, 0): {0: C(-2)}, (2, 0): {1: C(1)},
                               (2, 1): {2: C(2)}}, r"e\*h\*f"),
        ]:
            with pytest.raises(swapalg.NonConfluentTable,
                               match=f"critical pair at {at}"):
                pbw.LieAlgebraSpec(basis, brackets)

    def test_brackets_keyed_by_descent(self):
        with pytest.raises(ValueError, match="u > v"):
            pbw.LieAlgebraSpec(("a", "b"), {(0, 1): {0: C(1)}})
