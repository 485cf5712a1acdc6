"""Trace-monoid rewriting, psi/phi local factorization, exterior layer."""

import pytest

from nc_capelli import swapalg
from nc_capelli import weyl
from nc_capelli.scalars import G_I
from nc_capelli.swapalg import (
    ExteriorAlgebra,
    ExteriorElement,
    NonConfluentTable,
    SwapTable,
    bigrade_project,
    bigrades,
    psi_M,
    psi_phi_table,
)
from nc_capelli.weyl import GeneratorSet, WeylElement


class TestSwapTable:
    def test_anticommute_swap(self):
        table = psi_phi_table()
        psi = table.letter("psi")
        psib = table.letter("psi_bar")
        assert psib * psi == -(psi * psib)

    def test_commute_swap(self):
        table = SwapTable(
            ["M11", "M21"],
            policies={frozenset({"M11", "M21"}): "commute"},
        )
        a, b = table.letter("M11"), table.letter("M21")
        assert b * a == a * b

    def test_square_zero(self):
        table = SwapTable(["p"], extra_rules={("p", "p"): []})
        p = table.letter("p")
        assert (p * p).is_zero()

    def test_non_confluent_rejected(self):
        # r passes q, q passes p, but r cannot pass p: rqp has two
        # distinct normal forms
        with pytest.raises(NonConfluentTable):
            SwapTable(
                ["p", "q", "r"],
                policies={frozenset({"p", "q"}): "anticommute",
                          frozenset({"q", "r"}): "commute"},
            )

    def test_bar(self):
        table = psi_phi_table()
        psi = table.letter("psi")
        phi = table.letter("phi")
        x = psi * phi.scale(G_I)
        assert x.bar() == (table.letter("psi_bar")
                           * table.letter("phi_bar").scale(-G_I))

    def test_central_letter(self):
        """A central letter commutes with every letter, ends every word,
        and bar fixes it."""
        table = psi_phi_table(central="ak")
        a, k = table.letter("a"), table.letter("k")
        for name in ("psi", "phi", "psi_bar", "phi_bar", "k"):
            x = table.letter(name)
            assert a * x == x * a
        x = k * a * table.letter("phi_bar") * table.letter("psi")
        assert x.render() == "-psi*phi_bar*a*k"
        assert x.bar() == -(table.letter("psi_bar") * table.letter("phi") * a * k)


class TestBigrades:
    def test_project(self):
        table = psi_phi_table()
        psi = table.letter("psi")
        psib = table.letter("psi_bar")
        phi = table.letter("phi")
        x = psi * psib + psi * phi
        assert bigrade_project(x, 1, 1) == psi * psib
        assert bigrade_project(x, 2, 0) == psi * phi
        assert bigrade_project(psi * phi, 0, 2).is_zero()

    def test_bigrades_listing(self):
        table = psi_phi_table()
        x = table.letter("psi") * table.letter("phi_bar")
        assert bigrades(x) == {(1, 1)}

    def test_central_letters_not_counted(self):
        table = psi_phi_table(central="k")
        psi, k = table.letter("psi"), table.letter("k")
        x = psi * k + psi * table.letter("psi_bar") * k * k + k
        assert bigrades(x) == {(1, 0), (1, 1), (0, 0)}
        assert bigrade_project(x, 1, 0) == psi * k
        assert bigrade_project(x, 0, 0) == k


class TestLocalFactorization:
    @pytest.mark.parametrize("variant", ["hol", "antihol"])
    def test_holfactpsi(self, variant):
        result = swapalg.check_holfactpsi(variant)
        assert result["ok"]
        assert result["hol_component_matches"]
        assert result["antihol_component_matches"]
        assert all(result["mixed_zero_per_condition_set"])
        assert result["degenerate_zero"]

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_coronfact(self, sign):
        result = swapalg.check_coronfact(sign)
        assert result["ok"]
        assert result["mixed_zero"]
        assert result["psi_cubed_zero"]
        # the defect concentrates in one pure bidegree: (0,2) for the
        # plus variant, (2,0) for minus
        expected = (0, 2) if sign == "plus" else (2, 0)
        assert result["defect_bigrades"] == [expected]

    def test_psi_cubed_zero(self):
        table = swapalg.coronfact_table()
        psi = table.letter("psi")
        assert (psi * psi * psi).is_zero()


@pytest.fixture
def host():
    gens = GeneratorSet(["x", "y"])
    return gens, weyl.weyl_ring(gens)


class TestExteriorAlgebra:
    def test_anticommute(self, host):
        _, ring = host
        alg = ExteriorAlgebra(3, ring)
        p1, p2 = alg.psi(0), alg.psi(1)
        assert p1 * p2 == -(p2 * p1)
        assert (p1 * p1).is_zero()

    def test_host_coefficient_order(self, host):
        gens, ring = host
        alg = ExteriorAlgebra(2, ring)
        x = WeylElement.variable(gens, "x")
        dx = WeylElement.derivative(gens, "x")
        a = ExteriorElement(alg, {1: dx})
        b = ExteriorElement(alg, {2: x})
        # (dx psi1)(x psi2): host product in factor order, dx*x
        assert (a * b).terms[3] == dx * x

    def test_psi_identity_matrix(self, host):
        _, ring = host
        from nc_capelli import matrixops as mo
        alg = ExteriorAlgebra(2, ring)
        M = mo.identity(ring, 2)
        assert psi_M(alg, M, 0) == alg.psi(0)
        assert psi_M(alg, M, 1) == alg.psi(1)

    def test_top_form_lemma(self, host):
        gens, ring = host
        from nc_capelli import matrixops as mo
        x = WeylElement.variable(gens, "x")
        dx = WeylElement.derivative(gens, "x")
        M = mo.matrix(ring, [[x, dx], [ring.one, x + dx]])
        alg = ExteriorAlgebra(2, ring)
        prod = psi_M(alg, M, 0) * psi_M(alg, M, 1)
        assert prod.terms[alg.top_mask()] == mo.coldet(M)

    def test_manin_coaction_commutative(self, host):
        gens, ring = host
        from nc_capelli import matrixops as mo
        x = WeylElement.variable(gens, "x")
        y = WeylElement.variable(gens, "y")
        M = mo.matrix(ring, [[x, y], [x * y, x + y]])
        alg = ExteriorAlgebra(2, ring)
        cols = [psi_M(alg, M, k) for k in range(2)]
        for i in range(2):
            for j in range(2):
                assert (cols[i] * cols[j] + cols[j] * cols[i]).is_zero()
