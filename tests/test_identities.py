"""Verifier suite: condition checkers, instance catalog, registry."""

import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_capelli import cayley
from nc_capelli import identities as idn
from nc_capelli import matrixops as mo
from nc_capelli import swapalg, weyl
from nc_capelli.identities import VerificationReport
from nc_capelli.scalars import GaussianRational
from nc_capelli.weyl import GaussIntWeyl


class TestReport:
    def test_round_trip(self):
        report = idn.verify_classical_capelli("plain", 1)
        again = VerificationReport(**report.to_dict())
        assert again == report

    def test_immutable(self):
        report = idn.bool_report("x", "", {"n": 1}, False, 0.0, notes={"a": 1},
                                 conditional=True)
        with pytest.raises(AttributeError):
            report.residualIsZero = True
        assert VerificationReport(**report.to_dict()) == report
        assert list(report.to_dict()) == list(VerificationReport._fields)

    def test_notes_default_to_a_dict_of_their_own(self):
        first, second = (idn.bool_report("x", "", {}, True, 0.0)
                         for _ in range(2))
        assert first.notes == {} and first.notes is not second.notes
        assert not first.conditional

    def test_fields(self):
        report = idn.verify_classical_capelli("plain", 2)
        assert report.residualIsZero
        assert report.residualRendering == ""
        assert report.lhsTermCount > 0
        assert not report.conditional


class TestCheckers:
    def test_commutative_matrix_all_true(self):
        ring, gens, Z, D = idn.classical_weyl(2, "plain")
        assert idn.check_column_commuting(Z)
        assert idn.check_manin(Z)
        assert idn.check_bar_commuting(Z)

    def test_E_not_manin(self):
        spec, ring, E = idn.gln_E_matrix(2)
        assert not idn.check_manin(E)

    def test_doubled_bar_commuting(self):
        spec, ring, E = idn.gln_E_matrix(2, doubled=True)
        assert idn.check_bar_commuting(E)

    def test_css_on_classical(self):
        ring, gens, M, Y, Q = idn.css_instance("css", 2)
        assert idn.check_css(M, Y, Q)
        assert idn.check_gcss(M, Y, Q)

    def test_tcss_on_turnbull(self):
        ring, gens, M, Y, Q = idn.css_instance("tcss", 2)
        ok, h = idn.check_tcss(M, Y)
        assert ok
        assert (h - ring.one).is_zero()

    def test_factorization_relations(self):
        # C = E over U(gl_2), Q = Id
        spec, ring, E = idn.gln_E_matrix(2)
        assert idn.check_factorization_relations(E, mo.identity(ring, 2))
        # C = Z D^t over the Weyl algebra, Q = Id
        wring, gens, Z, D = idn.classical_weyl(2, "plain")
        assert idn.check_factorization_relations(
            mo.matmul(Z, mo.transpose(D)), mo.identity(wring, 2)
        )

    def test_factorization_relations_fail(self):
        spec, ring, E = idn.gln_E_matrix(2)
        # a wrong Q breaks the first relation family
        badQ = mo.matrix(ring, [[E.entries[0][1], ring.zero],
                                [ring.zero, ring.one]])
        assert not idn.check_factorization_relations(E, badQ)


def _complex_z_d(n=2):
    ring, gens, Z, D = idn.complex_weyl(n, "plain")
    return Z, D, mo.identity(ring, n)


class TestCheckersFail:
    """Each condition checker returns False on an input that violates
    its condition (check_manin and check_factorization_relations are
    covered in TestCheckers)."""

    def test_column_commuting(self):
        # [E11, E21] = -E21 in U(gl_2)
        spec, ring, E = idn.gln_E_matrix(2)
        assert not idn.check_column_commuting(E)

    def test_bar_commuting(self):
        # on real variables bar(d_ij) = d_ij, and [z_ij, d_ij] != 0
        ring, gens, Z, D = idn.classical_weyl(2, "plain")
        assert not idn.check_bar_commuting(Z, D)

    def test_css_untransposed(self):
        Z, D, Q = _complex_z_d()
        assert idn.check_css(Z, mo.transpose(D), Q)
        assert not idn.check_css(Z, D, Q)

    def test_gcss_untransposed(self):
        Z, D, Q = _complex_z_d()
        assert idn.check_gcss(Z, mo.transpose(D), Q)
        assert not idn.check_gcss(Z, D, Q)

    def test_tcss_plain_pair(self):
        # a plain (not symmetric) Z, D^t pair misses the second delta term
        Z, D, _ = _complex_z_d()
        ok, _ = idn.check_tcss(Z, mo.transpose(D))
        assert not ok


class TestMainTheoremSides:
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_corrected_coldet_with_unit_q(self, sign):
        """With Q = Id the corrected determinant is coldet(C^R + CorrTriDiag)."""
        Z, D, Q = _complex_z_d(1)
        ZDt = mo.matmul(Z, mo.transpose(D))
        ds = [ZDt.ring.one.scale(Fraction(3, 2))]
        want = mo.coldet(
            mo.decomplexify(ZDt) + mo.corr_tridiag(ZDt.ring, ds, sign))
        assert idn.corrected_coldet(ZDt, Q, ds, sign) == want


class TestClassical:
    @pytest.mark.parametrize("n", [1, 2])
    def test_plain(self, n):
        assert idn.verify_classical_capelli("plain", n).residualIsZero

    def test_turnbull_n1_doubled_diagonal(self):
        # 2 z d - z * 2d = 0 shape check via the report
        assert idn.verify_classical_capelli("turnbull", 1).residualIsZero

    def test_huks_requires_even(self):
        with pytest.raises(ValueError):
            idn.verify_classical_capelli("huks", 3)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown kind 'foo'"):
            idn.verify_classical_capelli("foo", 2)


def _witnesses(M):
    """The d-exponent vectors b of a complete witness set for coldet(M):
    the d-parts occurring in each column of M, multiplied column by
    column, closed downward."""
    gens = M.ring.one.parent
    columns = [{gens.exponents(k)[1] for row in M.entries for k in row[j].terms}
               for j in range(M.cols)]
    tops = {tuple(map(sum, zip(*us))) for us in product(*columns)}
    return {b for top in tops for b in product(*(range(e + 1) for e in top))}


@pytest.mark.parametrize("kind, shape, n, count", [
    ("plain", "plain", 1, 2), ("plain", "plain", 2, 9),
    ("plain", "plain", 3, 64), ("turnbull", "symmetric", 1, 2),
    ("turnbull", "symmetric", 2, 8), ("turnbull", "symmetric", 3, 51),
    ("huks", "antisymmetric", 2, 3)])
def test_classical_capelli_on_a_complete_witness_set(kind, shape, n, count):
    """capelli.<kind> proved by action, with the left determinant never
    expanded (gauss_int_coldet(M, p)) and no product that takes a
    Leibniz step.  A nonzero R = sum_u a_u(x) d^u, with u0 minimal among
    its d-parts, sends x^u0 to u0! a_u0, which is not zero; so R = 0 iff
    R kills x^b for every b of a downward-closed set that holds its
    d-support (the Weyl algebra acts faithfully on polynomials).  Each
    term of coldet(M) takes one entry from each column, and normal
    ordering only lowers d-parts, so _witnesses(M) holds the d-support
    of coldet(M), and that of det(Z) det(D^t), whose columns carry the
    same d-parts.  Negative control at n >= 2: without the shifts a
    witness tells the sides apart."""
    ring, gens, Z, D = idn.classical_weyl(n, shape)
    Dt = D if shape == "antisymmetric" else mo.transpose(D)
    ZDt = mo.matmul(Z, Dt)
    M = ZDt + idn.shift_diag(ring, idn.capelli_shifts(n))
    witnesses = [GaussIntWeyl(gens, {gens.key(b, (0,) * gens.n): 1}, {})
                 for b in sorted(_witnesses(M))]
    assert len(witnesses) == count
    zdet, ddet = mo.gauss_int_coldet(Z), mo.gauss_int_coldet(Dt)

    def acts_alike(M):
        return all(mo.gauss_int_coldet(M, p) == zdet * ddet.apply(p)
                   for p in witnesses)

    assert acts_alike(M)
    assert acts_alike(ZDt) == (n == 1)


class TestDecomplexified:
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_plain_n1(self, sign):
        report = idn.verify_decomplexified_capelli("plain", 1, sign)
        assert report.residualIsZero
        assert report.notes["operator_oracle"]
        assert report.notes["raw_transpose_residual_zero"] is False

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_alt_reading_full_expansion(self, monkeypatch, sign):
        """Given the true reading decomplexify(transpose(D)) in place of
        the raw transpose, the witness scan finds nothing and the full
        expansion of the left-hand determinant proves a zero residual.
        A gauss_int_coldet call without a polynomial is an expansion;
        with one it is a scan step, the determinant acting unexpanded."""
        ring, gens, Z, D = idn.complex_weyl(1, "plain")
        ZR = mo.decomplexify(Z)
        DtR = mo.decomplexify(mo.transpose(D))
        corr = mo.corr_tridiag(ring, idn.embed(ring, idn.capelli_shifts(1)), sign)
        expanded, scanned = [], []
        gauss_int_coldet = mo.gauss_int_coldet

        def counted(M, p=None):
            (expanded if p is None else scanned).append(M)
            return gauss_int_coldet(M, p)

        monkeypatch.setattr(mo, "gauss_int_coldet", counted)
        monkeypatch.setattr(
            mo, "coldet", lambda M: pytest.fail("the scan called coldet"))
        assert idn._alt_reading_residual_zero(ZR, DtR, corr, gens)
        # coldet(ZR), coldet(DtR), then the full expansion's coldet(lhs)
        assert len(expanded) == 3
        # every monomial of degree <= 3 in x11, y11
        assert len(scanned) == 10

    def test_symmetric_n2(self):
        assert idn.verify_decomplexified_capelli(
            "symmetric", 2).residualIsZero

    def test_antisymmetric_rejects_odd(self):
        with pytest.raises(ValueError):
            idn.verify_decomplexified_capelli("antisymmetric", 3)

    def test_n0_raises(self):
        """I = J = () once reported a pass as 1 = 1."""
        with pytest.raises(ValueError, match="strictly increasing in 1..0"):
            idn.verify_decomplexified_capelli("plain", 0)


class TestMainTheorem:
    def test_n1_parametric(self):
        (inst,) = idn.main_theorem_instances(1)
        report = idn.verify_main_theorem(inst, inst.ds)
        assert report.residualIsZero
        assert report.notes == {"relations_hold": True, "bar_commuting": True}

    def test_n1_zero_shift_q_free_rhs(self):
        (inst,) = idn.main_theorem_instances(1)
        report = idn.verify_main_theorem(inst, [inst.ring.zero])
        assert report.residualIsZero

    def test_truncation_defect_nonzero(self):
        report = idn.verify_holfact_general(2, truncate=1)
        assert report.residualIsZero  # "ok" means defect is nonzero
        assert report.notes["truncated_defect_nonzero"]

    def test_global_cancellation(self):
        assert idn.verify_holfact_general(2).residualIsZero


class TestRectangular:
    def test_q_off_diagonal_zero(self):
        report = idn.verify_rectangular("capelli", 2, (1,), (2,))
        assert report.residualIsZero

    def test_full_index_reduces_to_square(self):
        report = idn.verify_rectangular("capelli", 2, (1, 2), (1, 2))
        assert report.residualIsZero

    def test_antisym_flagged_conditional(self):
        report = idn.verify_rectangular("antisym-conditional", 2, (1,), (1,))
        assert report.conditional
        assert report.residualIsZero

    @pytest.mark.parametrize("I, J", [
        ((), ()), ((1, 1), (1, 2)), ((2, 1), (1, 2)), ((1, 2), (2, 1)),
        ((3,), (1,)), ((1,), (1, 2))],
        ids=["empty", "repeated", "decreasing I", "decreasing J",
             "out of range", "unequal lengths"])
    def test_bad_multi_indexes_raise(self, I, J):
        """Each of these once reported a pass (1 = 1, 0 = 0, or another
        (I, J) under this label) or raised IndexError."""
        with pytest.raises(ValueError, match="strictly increasing in 1..2"):
            idn.verify_rectangular("capelli", 2, I, J)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown kind 'foo'"):
            idn.verify_rectangular("foo", 2, (1,), (1,))


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("shape, n", [
    (shape, n) for shape in ("plain", "symmetric", "antisymmetric")
    for n in (1, 2)])
def test_decomplexified_sides_match_generic(shape, n, sign):
    """The square case's Gaussian-integer sides, read from the cached
    instance, equal corrected_coldet and coldet(Z^R) coldet((D^t)^R)
    over a fresh instance, and the left side the generic Laplace
    recursion on Gaussian rationals."""
    full = tuple(range(1, n + 1))
    ring, lhs, rhs = idn._decomplexified_sides(shape, n, full, full, sign)
    _, _, Z, D = idn.complex_weyl(n, shape)
    Dt = D if shape == "antisymmetric" else mo.transpose(D)
    args = (mo.matmul(Z, Dt), mo.identity(ring, n),
            idn.embed(ring, idn.capelli_shifts(n)), sign)
    generic = mo._laplace(idn.corrected_matrix(*args), ring.one,
                          weyl.WeylElement.mul_into)
    assert lhs.to_weyl() == idn.corrected_coldet(*args) == generic
    assert rhs.to_weyl() == \
        mo.coldet(mo.decomplexify(Z)) * mo.coldet(mo.decomplexify(Dt))


def _literal_cauchy_binet(shape, n, I, J):
    """The rectangular RHS summed on Gaussian rationals, from a fresh
    instance: the reference for the cached integer sum."""
    ring, _, Z, D = idn.complex_weyl(n, shape)
    ZR = mo.decomplexify(Z)
    DtR = mo.decomplexify(D if shape == "antisymmetric" else mo.transpose(D))
    dI, dJ = mo.double_index(I), mo.double_index(J)
    return sum((mo.coldet(mo.submatrix(ZR, dI, L))
                * mo.coldet(mo.submatrix(DtR, L, dJ))
                for L in mo.multi_indexes(2 * n, 2 * len(I))), ring.zero)


_RECT_CASES = [(shape, 2, I, J)
               for shape in ("plain", "symmetric", "antisymmetric")
               for r in (1, 2)
               for I in mo.multi_indexes(2, r) for J in mo.multi_indexes(2, r)]


@pytest.mark.parametrize("shape, n, I, J",
                         _RECT_CASES + [("symmetric", 3, (1, 3), (2, 3))])
def test_cached_cauchy_binet_matches_literal_sum(shape, n, I, J):
    """The cached Gaussian-integer RHS equals the sum of coldet products
    on Gaussian rationals, cold and then from a warm cache."""
    want = _literal_cauchy_binet(shape, n, I, J)
    assert want or shape == "antisymmetric"
    assert idn._cauchy_binet(shape, n, I, J).to_weyl() == want
    assert idn._cauchy_binet(shape, n, I, J).to_weyl() == want


def test_cached_cauchy_binet_mixed_denominators(monkeypatch):
    """With z_11 scaled by 1/2 + i/3 a minor holds values over 4, 6 and
    9 at once: each minor is scaled by the lcm of its denominators, and
    the cache, cold at the start of each test, holds no minor of the
    unpatched instance."""
    real = idn.complex_weyl

    def scaled(n, kind="plain"):
        ring, gens, Z, D = real(n, kind)
        Z.entries[0][0] = Z.entries[0][0].scale(
            GaussianRational(Fraction(1, 2), Fraction(1, 3)))
        return ring, gens, Z, D

    monkeypatch.setattr(idn, "complex_weyl", scaled)
    for I, J in (((1,), (1,)), ((1,), (2,)), ((1, 2), (1, 2))):
        want = _literal_cauchy_binet("plain", 2, I, J)
        assert idn._cauchy_binet("plain", 2, I, J).to_weyl() == want


class TestResidualReport:
    def _report(self, lhs, rhs):
        return idn.residual_report("t", "r", {}, lhs, rhs, 0.0)

    def test_nonzero_residual_renders(self):
        gens = weyl.GeneratorSet(["x"])
        x = weyl.WeylElement.variable(gens, "x")
        report = self._report(x * x + x, x)
        assert not report.residualIsZero
        assert report.residualRendering == "x^2"
        report = self._report(x.scale(3), x)  # same monomials
        assert not report.residualIsZero
        assert report.residualRendering == "2*x"

    def test_equal_sides_zero(self):
        gens = weyl.GeneratorSet(["x"])
        x = weyl.WeylElement.variable(gens, "x")
        report = self._report(x + x, x.scale(2))
        assert report.residualIsZero
        assert report.residualRendering == ""

    def test_sides_over_two_generator_sets_raise(self):
        """x over (x, y) and y over (y, x) share a key; their residual is
        not zero, it is refused."""
        x = weyl.WeylElement.variable(weyl.GeneratorSet(["x", "y"]), "x")
        y = weyl.WeylElement.variable(weyl.GeneratorSet(["y", "x"]), "y")
        assert x.terms == y.terms
        with pytest.raises(ValueError, match="different algebras"):
            self._report(x, y)

    def test_constant_coefficient_equals_bare_value(self):
        """A parameter that cancels leaves the bare Gaussian rational of
        the constant, so the sides are equal."""
        gens = weyl.GeneratorSet(["x", "s"])
        x = weyl.WeylElement.variable(gens, "x")
        p = weyl.WeylElement.variable(gens, "s")
        lhs = x * (p + weyl.WeylElement.one(gens).scale(3)) - x * p
        rhs = x.scale(3)
        (key,) = x.terms
        assert lhs.terms == rhs.terms == {key: GaussianRational(3)}
        report = self._report(lhs, rhs)
        assert report.residualIsZero
        assert report.residualRendering == ""


_X1 = weyl.GeneratorSet(["x"])
_INT_PART = st.dictionaries(
    st.builds(lambda v, u: _X1.key([v], [u]), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-6, 6).filter(bool), max_size=4)


def _gint(re, im, den=1):
    return GaussIntWeyl(_X1, re, im, den)


def _scaled(G, m):
    """G with numerators and denominator times m: the same value."""
    re, im = G.terms
    return _gint({k: v * m for k, v in re.items()},
                 {k: v * m for k, v in im.items()}, G.den * m)


@st.composite
def _pair_sides(draw):
    """Two GaussIntWeyl sides: unrelated, equal over different
    denominators, or equal in the real part only."""
    left = _gint(draw(_INT_PART), draw(_INT_PART), draw(st.integers(1, 6)))
    how = draw(st.sampled_from(("unrelated", "scaled", "imaginary")))
    if how == "unrelated":
        right = _gint(draw(_INT_PART), draw(_INT_PART), draw(st.integers(1, 6)))
    else:
        right = _scaled(left, draw(st.integers(1, 4)))
        if how == "imaginary":
            right = _gint(right.terms[0], draw(_INT_PART), right.den)
    sides = [left, right]
    if draw(st.booleans()):
        sides.reverse()
    return sides


_G = _gint({_X1.key([1], [0]): 3, _X1.key([0], [1]): -2},
           {_X1.key([1], [0]): 1, 0: 5}, 3)
# name: (left, right, whether they are equal)
_PAIR_CASES = {
    "G*2 over 2d against G over d": (_scaled(_G, 2), _G, True),
    "only the imaginary parts differ": (
        _G, _gint(_scaled(_G, 2).terms[0], {0: 10}, 6), False),
    "only the imaginary parts differ, equal denominators": (
        _G, _gint(_G.terms[0], {0: 5}, 3), False),
    "empty real parts": (_gint({}, {0: 2}, 4), _gint({}, {0: 1}, 2), True),
    "empty real parts, unequal": (
        _gint({}, {0: 2}, 4), _gint({}, {0: 1}, 4), False),
    "empty imaginary parts": (
        _gint({0: 2}, {}, 4), _gint({0: 1}, {}, 2), True),
    "empty imaginary parts, unequal keys": (
        _gint({0: 2}, {}, 4), _gint({1: 1}, {}, 2), False),
    "zero against nonzero": (_gint({}, {}), _gint({0: 1}, {}, 2), False),
}


def _check_pair_report(left, right):
    """==, len, - and residual_report on two GaussIntWeyl sides agree
    with their to_weyl forms."""
    wl, wr = left.to_weyl(), right.to_weyl()
    report = idn.residual_report("t", "r", {}, left, right, 0.0)
    assert (left == right) == (right == left) == (wl == wr)
    assert (left != right) == (wl != wr)
    assert left - right == wl - wr
    assert report.residualIsZero == (wl == wr)
    assert report.residualRendering == ("" if wl == wr else (wl - wr).render())
    assert report.lhsTermCount == len(left) == len(wl.terms)
    assert report.rhsTermCount == len(right) == len(wr.terms)
    return report


class TestPairResidual:
    """residual_report on two GaussIntWeyl sides, each over its own
    denominator, decides the residual on ints, as to_weyl equality
    would."""

    @pytest.mark.parametrize("case", sorted(_PAIR_CASES))
    def test_case(self, case):
        left, right, equal = _PAIR_CASES[case]
        assert _check_pair_report(left, right).residualIsZero == equal

    @settings(max_examples=300, deadline=None)
    @given(_pair_sides())
    def test_matches_to_weyl(self, sides):
        _check_pair_report(*sides)

    def test_mixed_forms_raise(self):
        """A GaussIntWeyl against a WeylElement, even of the same value,
        raises TypeError in either order and gives no verdict."""
        w = _G.to_weyl()
        for left, right in ((_G, w), (w, _G)):
            assert left != right
            with pytest.raises(TypeError):
                idn.residual_report("t", "r", {}, left, right, 0.0)

    def test_values_are_unhashable_and_keep_their_generators(self):
        with pytest.raises(TypeError):
            hash(_G)
        re, im = _G.terms
        assert GaussIntWeyl(weyl.GeneratorSet(["y"]), re, im, 3) != _G


class TestCss:
    def test_degenerate_n1(self):
        report = idn.verify_css_capelli("css", 1)
        assert report.residualIsZero
        assert report.notes["preconditions"]["bar_commuting"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_unknown_kind_raises(self, n):
        """At n = 1 the kind was never read, and "foo" passed."""
        with pytest.raises(ValueError, match="unknown CSS kind 'foo'"):
            idn.verify_css_capelli("foo", n)

    def test_implications(self):
        report = idn.verify_implications(2)
        assert report.residualIsZero
        assert report.notes["css_implies_relations"]
        assert report.notes["tcss_implies_relations"]
        assert report.notes["gcss_first_relation"]


class TestCenter:
    def test_center_gl2(self):
        assert idn.verify_capelli_center(2).residualIsZero

    def test_hc_gl2(self):
        assert idn.verify_hc_image(2).residualIsZero


class TestRegistry:
    EXPECTED_IDS = {
        "capelli.plain", "capelli.turnbull", "capelli.huks",
        "decomplex.square.plain", "decomplex.square.symmetric",
        "decomplex.square.antisymmetric",
        "rect.capelli", "rect.turnbull", "rect.antisym",
        "factorization.weak", "factorization.main", "factorization.capelli",
        "factorization.local", "factorization.global-cancellation",
        "css.capelli", "css.implications",
        "center.capelli", "center.hc",
        "oracle.coldet", "oracle.topform", "oracle.decomplexify",
        "cayley.scalar", "cayley.decomplexified", "cayley.quaternion",
        "cayley.radial",
    }

    def test_ids_present(self):
        assert self.EXPECTED_IDS <= set(idn.REGISTRY)

    def test_selection_runs(self):
        config = {"max_n": 2, "signs": "plus", "extended": False}
        reports = idn.REGISTRY["capelli.plain"](config)
        assert [r.sizeParams["n"] for r in reports] == [1, 2]
        assert all(r.residualIsZero for r in reports)

    def test_weyl_values_are_gaussian_rationals(self, monkeypatch):
        """No verifier at the default config builds a Weyl, PBW or swap
        element with a value that is not a GaussianRational: a parameter
        (the shifts d_k, the Capelli u, the swap a, b, c, d, k, the
        Cayley s) enters as a generator or a letter."""
        forms = {}
        for cls in (weyl.WeylElement, swapalg.SwapElement):
            def init(self, *args, real=cls.__init__):
                real(self, *args)
                forms.setdefault(type(self).__name__, set()).update(
                    map(type, self.terms.values()))
            monkeypatch.setattr(cls, "__init__", init)
        config = {"max_n": 2, "signs": "both", "extended": False}
        for vid in sorted(idn.REGISTRY):
            idn.REGISTRY[vid](config)
        assert forms == {name: {GaussianRational} for name in (
            "WeylElement", "PbwElement", "SwapElement")}


class TestOracles:
    def test_coldet_oracle(self):
        report = idn.verify_oracle_coldet()
        assert report.residualIsZero and report.sizeParams == {"count": 200}

    def test_topform_oracle(self):
        report = idn.verify_oracle_topform()
        assert report.residualIsZero and report.sizeParams == {"count": 100}

    def test_decomplexify_oracle(self):
        report = idn.verify_oracle_decomplexify()
        assert report.residualIsZero and report.sizeParams == {"count": 100}


def _random_weyl_matrix(rng, gens, n):
    """An n x n matrix of sums of one or two Weyl monomials (degree <= 1
    in each variable and derivative) with small integer coefficients."""
    ring = weyl.weyl_ring(gens)

    def entry():
        out = ring.zero
        for _ in range(rng.randint(1, 2)):
            v = tuple(rng.randint(0, 1) for _ in gens.names)
            u = tuple(rng.randint(0, 1) for _ in gens.names)
            c = GaussianRational(rng.choice([-2, -1, 1, 2]))
            out = out + weyl.WeylElement(gens, {gens.key(v, u): c})
        return out

    return mo.matrix(ring, [[entry() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("seed", range(6))
def test_coldet_apply_matches_expanded_action(seed):
    """The memoized action of coldet(M), gauss_int_coldet(M, p), equals
    the action of the expanded determinant, on every monomial of degree
    <= 3."""
    rng = random.Random(seed)
    gens = weyl.GeneratorSet(["x", "y"])
    M = _random_weyl_matrix(rng, gens, 2 + seed % 2)
    det = mo.coldet_permutations(M)
    assert mo.coldet(M) == det
    actions = [(mo.gauss_int_coldet(M, p).to_weyl(), det.apply(p.to_weyl()))
               for p in idn._monomials(gens, 3)]
    assert all(got == want for got, want in actions)
    assert any(not want.is_zero() for _, want in actions)


_SIZED = {
    "capelli.plain": partial(idn.verify_classical_capelli, "plain"),
    "capelli.turnbull": partial(idn.verify_classical_capelli, "turnbull"),
    "capelli.huks": partial(idn.verify_classical_capelli, "huks"),
    "factorization.capelli": idn.verify_holfact_capelli,
    "factorization.global-cancellation": idn.verify_holfact_general,
    "factorization.weak": idn.verify_thm_theor1,
    "factorization.main": idn.main_theorem_instances,
    "center.capelli": idn.verify_capelli_center,
    "center.hc": idn.verify_hc_image,
    "cayley.scalar": cayley.verify_cayley_scalar,
    "cayley.decomplexified": cayley.verify_cayley_decomplexified,
    "cayley.quaternion.complexForm": partial(
        cayley.verify_cayley_quaternion, "complexForm"),
    "cayley.quaternion.realForm": partial(
        cayley.verify_cayley_quaternion, "realForm"),
    "cayley.radial": partial(cayley.radial_identity, s=1),
    "cayley.quaternion-commutation": cayley.quaternion_commutation_check,
    "css.implications": idn.verify_implications,
}


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in _SIZED for n in (0, -1)), ("center.capelli", -2),
    ("css.implications", 1)])
def test_sized_verifiers_refuse_n_below_one(name, n):
    """Below its least size (1; 2 for css.implications) a sized verifier
    raises ValueError: it would otherwise report 1 = 1, or an empty
    product, as a proof (realForm as a failure)."""
    least = 2 if name == "css.implications" else 1
    with pytest.raises(ValueError, match=f"n must be at least {least}, got {n}"):
        _SIZED[name](n)


def test_capelli_sides_reach_the_report_on_ints(monkeypatch):
    """Every capelli.*, decomplex.square.*, rect.* and css.capelli report
    of run --max-n 3, both signs, hands GaussIntWeyl sides to
    residual_report, so its verdict and its notes are decided on ints."""
    sides = {}
    real = idn.residual_report

    def record(name, ring_name, size, lhs, rhs, *args, **kwargs):
        sides.setdefault(name, set()).add((type(lhs), type(rhs)))
        return real(name, ring_name, size, lhs, rhs, *args, **kwargs)

    monkeypatch.setattr(idn, "residual_report", record)
    config = {"max_n": 3, "signs": "both", "extended": False}
    for vid in idn.REGISTRY:
        if vid.startswith(("capelli.", "decomplex.square.", "rect.",
                           "css.capelli")):
            assert all(r.residualIsZero for r in idn.REGISTRY[vid](config))
    assert {"capelli.huks", "decomplex.square.antisymmetric", "rect.antisym",
            "css.capelli.n1", "css.capelli.tcss"} <= set(sides)
    ints = {(GaussIntWeyl, GaussIntWeyl)}
    assert {name: s for name, s in sides.items() if s != ints} == {}
