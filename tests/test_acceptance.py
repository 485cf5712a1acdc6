"""Acceptance suite: one test per acceptance criterion, exact-zero
tolerance throughout.  Each test prints a single pass/fail line via its
assertion; timing bounds are asserted with the documented budgets.
"""

import time

import pytest

from nc_capelli import cayley
from nc_capelli import identities as idn
from nc_capelli import matrixops as mo
from nc_capelli.scalars import Coefficient


def C(value, den=None):
    return Coefficient.from_rational(value, den)


SIGNS = ("plus", "minus")


def test_criterion_01_classical_capelli_turnbull_huks():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        assert idn.verify_classical_capelli("plain", n).residualIsZero
        assert idn.verify_classical_capelli("turnbull", n).residualIsZero
    assert idn.verify_classical_capelli("huks", 2).residualIsZero
    assert time.monotonic() - t0 < 5


def test_criterion_02_decomplexified_square_plain():
    for n in (1, 2):
        for sign in SIGNS:
            report = idn.verify_decomplexified_capelli("plain", n, sign)
            assert report.residualIsZero, (n, sign)
            assert "raw_transpose_residual_zero" in report.notes


@pytest.mark.slow
def test_criterion_02_decomplexified_square_plain_n3_extended():
    t0 = time.monotonic()
    for sign in SIGNS:
        report = idn.verify_decomplexified_capelli("plain", 3, sign)
        assert report.residualIsZero, sign
    assert time.monotonic() - t0 < 300


def test_criterion_03_decomplexified_symmetric_antisymmetric():
    t0 = time.monotonic()
    for n in (1, 2):
        for sign in SIGNS:
            assert idn.verify_decomplexified_capelli(
                "symmetric", n, sign).residualIsZero, (n, sign)
    for sign in SIGNS:
        assert idn.verify_decomplexified_capelli(
            "antisymmetric", 2, sign).residualIsZero, sign
    assert time.monotonic() - t0 < 30


def test_criterion_04_rectangular():
    t0 = time.monotonic()
    for kind in ("capelli", "turnbull"):
        for n in (2, 3):
            for r in (1, 2):
                for I in mo.multi_indexes(n, r):
                    for J in mo.multi_indexes(n, r):
                        report = idn.verify_rectangular(kind, n, I, J)
                        assert report.residualIsZero, (kind, n, I, J)
    for I in mo.multi_indexes(2, 1):
        for J in mo.multi_indexes(2, 1):
            report = idn.verify_rectangular("antisym-conditional", 2, I, J)
            assert report.conditional
            assert report.residualIsZero, (I, J)
    assert time.monotonic() - t0 < 120


def test_criterion_05_holfact_capelli_abstract():
    t0 = time.monotonic()
    for n in (1, 2):
        for sign in SIGNS:
            assert idn.verify_holfact_capelli(n, sign).residualIsZero, (n, sign)
    assert time.monotonic() - t0 < 10


def test_criterion_06_main_theorem():
    t0 = time.monotonic()
    for sign in SIGNS:
        assert idn.verify_local_factorization(sign).residualIsZero, sign
    d1, d2 = Coefficient.param("d1"), Coefficient.param("d2")
    (inst1,) = idn.main_theorem_instances(1)
    (inst2,) = idn.main_theorem_instances(2)
    for sign in SIGNS:
        assert idn.verify_main_theorem(inst1, [d1], sign).residualIsZero
        assert idn.verify_main_theorem(inst2, [d2, d1], sign).residualIsZero
    for n in (2, 3):
        assert idn.verify_holfact_general(n).residualIsZero
        for m in range(1, n):
            report = idn.verify_holfact_general(n, truncate=m)
            assert report.residualIsZero  # ok == truncated defect NONZERO
            assert report.notes["truncated_defect_nonzero"]
    assert time.monotonic() - t0 < 10


def test_criterion_07_weak_factorization():
    t0 = time.monotonic()
    for n in (2, 3):
        assert idn.verify_thm_theor1(n).residualIsZero, n
    assert time.monotonic() - t0 < 10


def test_criterion_08_css_suite():
    t0 = time.monotonic()
    ring, gens, M, Y, Q = idn.css_instance("css", 2)
    assert idn.check_css(M, Y, Q)
    assert idn.check_gcss(M, Y, Q)
    tring, tgens, tM, tY, tQ = idn.css_instance("tcss", 2)
    ok, h = idn.check_tcss(tM, tY)
    assert ok
    for n in (2, 3):
        assert idn.verify_implications(n).residualIsZero, n
    assert idn.verify_css_capelli("css", 1).residualIsZero
    assert idn.verify_css_capelli("css", 2).residualIsZero
    assert idn.verify_css_capelli("tcss", 2).residualIsZero
    assert time.monotonic() - t0 < 30


def test_criterion_09_center_and_hc():
    t0 = time.monotonic()
    for n in (2, 3):
        assert idn.verify_capelli_center(n).residualIsZero, n
    for n in (1, 2, 3):
        assert idn.verify_hc_image(n).residualIsZero, n
    assert time.monotonic() - t0 < 30


def test_criterion_10_cayley_family():
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        assert cayley.verify_cayley_scalar(n).residualIsZero, n
    for n in (1, 2):
        assert cayley.verify_cayley_decomplexified(n).residualIsZero, n
        assert cayley.quaternion_commutation_check(n).residualIsZero, n
    assert cayley.verify_cayley_quaternion("complexForm", 1).residualIsZero
    # one point past the sweep: s(s+1)/4 at s = 4
    assert cayley.cayley_quaternion("complexForm", 1, 4) == C(5)
    assert cayley.verify_cayley_quaternion("realForm", 1).residualIsZero
    assert cayley.cayley_quaternion("realForm", 1, 1) == C(3, 4)
    for n in (1, 2, 3, 4):
        for s in (1, 2, 3, 4):
            assert cayley.radial_identity(n, s).residualIsZero, (n, s)
    assert cayley.radial_gl2_example() == C(2)
    assert time.monotonic() - t0 < 60


def test_criterion_11_cross_engine_oracles():
    t0 = time.monotonic()
    assert idn.verify_oracle_coldet().residualIsZero
    assert idn.verify_oracle_topform().residualIsZero
    assert idn.verify_oracle_decomplexify().residualIsZero
    # operator-action oracle on the Weyl identities
    for kind in ("plain", "turnbull"):
        for n in (1, 2):
            report = idn.verify_classical_capelli(kind, n)
            assert report.notes["operator_oracle"]
    for kind in ("plain", "symmetric"):
        for n in (1, 2):
            report = idn.verify_decomplexified_capelli(kind, n)
            assert report.notes["operator_oracle"]
    assert idn.verify_decomplexified_capelli(
        "antisymmetric", 2).notes["operator_oracle"]
    assert time.monotonic() - t0 < 60
