"""Negative controls for every verifier id: with one helper perturbed
for the duration of the call, each identity below is false, and its
verifier must report a nonzero residual."""

import hashlib

import pytest

from nc_capelli import cayley
from nc_capelli import identities as idn
from nc_capelli import matrixops as mo
from nc_capelli import swapalg, weyl
from nc_capelli.scalars import G_ONE, accumulate


def _shift_plus_one(real):
    return lambda n: [s + G_ONE for s in real(n)]


def _shift_reversed(real):
    return lambda n: real(n)[::-1]


def _zero_correction(real):
    def corr_tridiag(ring, ds, sign="plus"):
        size = 2 * len(ds)
        return mo.matrix(ring, [[ring.zero] * size for _ in range(size)])
    return corr_tridiag


def _no_bar(real):
    return lambda M: M


def _identity(real):
    return lambda x: x


def _degree_plus_one(real):
    return lambda n: real(n + 1)


def _quaternion_degree_plus_one(real):
    return lambda kind, n: real(kind, n + 1)


def _without_first(real):
    return lambda n, r: real(n, r)[1:]


def _of_transpose(real):
    return lambda M: real(mo.transpose(M))


def _sign_one(real):
    return lambda a, b: 1


def _twice(real):
    return staticmethod(lambda gens, name: real(gens, name).scale(2))


def _squares_to_one(real):
    """The exterior product with psi_i^2 = 1 in place of 0: masks combine
    by XOR."""
    def mul(self, other):
        return swapalg.ExteriorElement(self.parent, accumulate({}, (
            (m1 ^ m2, h1 * h2 if swapalg._wedge_sign(m1, m2) > 0 else -(h1 * h2))
            for m1, h1 in self.terms.items() for m2, h2 in other.terms.items())))
    return mul


def _commuting_bars(real):
    """The psi/phi table with barred letters commuting with unbarred
    ones instead of anticommuting."""
    def psi_phi_table(extra_rules=None, central=()):
        letters = ("psi", "phi", "psi_bar", "phi_bar", *central)
        pairs = [*((u, b) for u in ("psi", "phi") for b in ("psi_bar", "phi_bar")),
                 *((p, x) for p in central for x in letters if x != p)]
        return swapalg.SwapTable(
            letters,
            policies={frozenset(pair): "commute" for pair in pairs},
            extra_rules=extra_rules,
            bar_pairs=[("psi", "psi_bar"), ("phi", "phi_bar")],
        )
    return psi_phi_table


def _doubled_gl2_main():
    (instance,) = idn.main_theorem_instances(2)
    return idn.verify_main_theorem(instance, instance.ds)


# name: (module, helper, replacement built from the real helper)
PERTURBATIONS = {
    "capelli_shifts + 1": (idn, "capelli_shifts", _shift_plus_one),
    "capelli_shifts reversed": (idn, "capelli_shifts", _shift_reversed),
    "corr_tridiag = 0": (mo, "corr_tridiag", _zero_correction),
    "mat_bar = identity": (idn, "mat_bar", _no_bar),
    "barred letters commute": (swapalg, "psi_phi_table", _commuting_bars),
    "b_polynomial(n + 1)": (cayley, "b_polynomial", _degree_plus_one),
    "quaternion_expected(kind, n + 1)": (
        cayley, "quaternion_expected", _quaternion_degree_plus_one),
    "coldet_permutations of the transpose": (
        mo, "coldet_permutations", _of_transpose),
    "re_part = identity": (mo, "re_part", _identity),
    "transpose = identity": (mo, "transpose", _identity),
    "_wedge_sign = 1": (swapalg, "_wedge_sign", _sign_one),
    "derivative scaled by 2": (weyl.WeylElement, "derivative", _twice),
    "psi_i^2 = 1": (swapalg.ExteriorElement, "__mul__", _squares_to_one),
    "first 2r-subset left out": (mo, "multi_indexes", _without_first),
}

# (perturbation, verifier id and instance, verification)
CASES = [
    ("capelli_shifts + 1", "capelli.plain n=2",
     lambda: idn.verify_classical_capelli("plain", 2)),
    ("capelli_shifts + 1", "capelli.turnbull n=2",
     lambda: idn.verify_classical_capelli("turnbull", 2)),
    ("capelli_shifts + 1", "decomplex.square.plain n=2",
     lambda: idn.verify_decomplexified_capelli("plain", 2)),
    ("capelli_shifts + 1", "decomplex.square.symmetric n=2",
     lambda: idn.verify_decomplexified_capelli("symmetric", 2)),
    ("capelli_shifts + 1", "rect.capelli n=2 I=J=(1,)",
     lambda: idn.verify_rectangular("capelli", 2, (1,), (1,))),
    ("capelli_shifts + 1", "rect.turnbull n=2 I=J=(1,)",
     lambda: idn.verify_rectangular("turnbull", 2, (1,), (1,))),
    ("capelli_shifts + 1", "decomplex.square.antisymmetric n=2",
     lambda: idn.verify_decomplexified_capelli("antisymmetric", 2)),
    ("corr_tridiag = 0", "decomplex.square.plain n=2",
     lambda: idn.verify_decomplexified_capelli("plain", 2)),
    ("corr_tridiag = 0", "css.capelli css n=2",
     lambda: idn.verify_css_capelli("css", 2)),
    ("corr_tridiag = 0", "css.capelli tcss n=2",
     lambda: idn.verify_css_capelli("tcss", 2)),
    ("corr_tridiag = 0", "factorization.capelli n=2",
     lambda: idn.verify_holfact_capelli(2)),
    ("mat_bar = identity", "factorization.weak n=2",
     lambda: idn.verify_thm_theor1(2)),
    ("capelli_shifts reversed", "center.capelli n=2",
     lambda: idn.verify_capelli_center(2)),
    ("capelli_shifts + 1", "center.hc n=2",
     lambda: idn.verify_hc_image(2)),
    ("corr_tridiag = 0", "factorization.main doubled gl_2",
     _doubled_gl2_main),
    ("barred letters commute", "factorization.local plus",
     lambda: idn.verify_local_factorization("plus")),
    ("capelli_shifts + 1", "capelli.huks n=2",
     lambda: idn.verify_classical_capelli("huks", 2)),
    ("capelli_shifts + 1", "rect.antisym n=2 I=J=(1,)",
     lambda: idn.verify_rectangular("antisym-conditional", 2, (1,), (1,))),
    ("b_polynomial(n + 1)", "cayley.scalar n=2",
     lambda: cayley.verify_cayley_scalar(2)),
    ("b_polynomial(n + 1)", "cayley.decomplexified n=1",
     lambda: cayley.verify_cayley_decomplexified(1)),
    ("quaternion_expected(kind, n + 1)", "cayley.quaternion complexForm n=1",
     lambda: cayley.verify_cayley_quaternion("complexForm", 1)),
    ("quaternion_expected(kind, n + 1)", "cayley.quaternion realForm n=1",
     lambda: cayley.verify_cayley_quaternion("realForm", 1)),
    ("coldet_permutations of the transpose", "oracle.coldet",
     idn.verify_oracle_coldet),
    ("re_part = identity", "oracle.decomplexify",
     idn.verify_oracle_decomplexify),
    ("transpose = identity", "css.implications n=2",
     lambda: idn.verify_implications(2)),
    ("_wedge_sign = 1", "oracle.topform",
     idn.verify_oracle_topform),
    ("derivative scaled by 2", "cayley.radial n=2 s=2",
     lambda: cayley.radial_identity(2, 2)),
    ("psi_i^2 = 1", "factorization.global-cancellation n=2",
     lambda: idn.verify_holfact_general(2)),
]


@pytest.mark.parametrize(
    "perturbation, verify", [(p, v) for p, _, v in CASES],
    ids=[f"{p}: {case}" for p, case, _ in CASES])
def test_perturbed_identity_fails(monkeypatch, perturbation, verify):
    """The unperturbed call comes first, so a perturbed helper must bite
    through a warm instance cache (the test starts with a cold one)."""
    module, name, replacement = PERTURBATIONS[perturbation]
    assert verify().residualIsZero
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    assert not verify().residualIsZero


@pytest.mark.parametrize("verify", [
    lambda: idn.verify_classical_capelli("plain", 2),
    lambda: idn.verify_classical_capelli("turnbull", 2),
    lambda: idn.verify_decomplexified_capelli("plain", 2)],
    ids=["capelli.plain n=2", "capelli.turnbull n=2",
         "decomplex.square.plain n=2"])
def test_operator_oracle_note_fails(monkeypatch, verify):
    """With the shifts off by one, the sides act differently on some
    monomial of degree <= 2, so the operator_oracle note reads False."""
    assert verify().notes["operator_oracle"] is True
    module, name, replacement = PERTURBATIONS["capelli_shifts + 1"]
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    assert verify().notes["operator_oracle"] is False


# (checker of a precondition, verifier id and instance, verification)
PRECONDITIONS = [
    ("check_factorization_relations", "factorization.main doubled gl_2",
     _doubled_gl2_main),
    ("check_css", "css.capelli css n=2",
     lambda: idn.verify_css_capelli("css", 2)),
]


@pytest.mark.parametrize(
    "check, verify", [(c, v) for c, _, v in PRECONDITIONS],
    ids=[f"{c} false: {case}" for c, case, _ in PRECONDITIONS])
def test_failed_precondition_fails(monkeypatch, check, verify):
    """With a precondition reported false, the report fails although its
    residual stays zero, so nothing is rendered."""
    assert verify().residualIsZero
    monkeypatch.setattr(idn, check, lambda *matrices: False)
    report = verify()
    assert not report.residualIsZero
    assert report.residualRendering == ""


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind", ["capelli", "turnbull"])
def test_rect_rhs_missing_subset_fails(monkeypatch, kind, warm):
    """The rectangular RHS with the first 2r-subset L left out of the
    Cauchy-Binet sum is false, whether or not an unperturbed call has
    already cached the instance and its minors."""
    verify = lambda: idn.verify_rectangular(kind, 2, (1,), (1,))
    if warm:
        assert verify().residualIsZero
    module, name, replacement = PERTURBATIONS["first 2r-subset left out"]
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    assert not verify().residualIsZero


# (kind, perturbation): lhsTermCount, rhsTermCount and the SHA-256 of the
# residualRendering of the perturbed rect.<kind> at n = 3, I = J = (1, 2),
# the size of the benchmark's rectangular sweeps.
RECT_N3 = {
    ("capelli", "capelli_shifts + 1"): (
        5773, 4224,
        "4c628af9dd0425002c50043cc5cc19d3bc75ed18a5ad9f04f96c68b11dce0b18"),
    ("capelli", "first 2r-subset left out"): (
        4224, 3968,
        "e0dbf07f486ad436dbf0154fe0c4dbee0bfff9dfa7ad1f19a28b140502e898c4"),
    ("turnbull", "capelli_shifts + 1"): (
        4539, 3417,
        "66a7aafe89fbef382ae2a6dc10ce93adf9ef3ebebeb7cc0822759c063c7b0858"),
    ("turnbull", "first 2r-subset left out"): (
        3417, 3248,
        "28f1507b321ab8c32118d358548109f965f4a41db95d5f28f637a8045db3cb30"),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind, perturbation", sorted(RECT_N3))
def test_rect_n3_perturbed_rendering(monkeypatch, kind, perturbation, warm):
    """At n = 3, r = 2 each perturbed rectangular identity fails with the
    same term counts and rendering, whether or not an unperturbed call
    has already cached the instance and its minors."""
    verify = lambda: idn.verify_rectangular(kind, 3, (1, 2), (1, 2))
    if warm:
        assert verify().residualIsZero
    module, name, replacement = PERTURBATIONS[perturbation]
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    report = verify()
    assert not report.residualIsZero
    digest = hashlib.sha256(report.residualRendering.encode()).hexdigest()
    assert (report.lhsTermCount, report.rhsTermCount, digest) == \
        RECT_N3[kind, perturbation]
