"""Mutation check: each row of MUTANTS breaks the source on purpose, and
the row's test selection must catch it.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutants.py

The script copies src/, tests/ and pyproject.toml into a temporary
directory and first runs every selection there unmutated, which must
pass.  Then, one row at a time, it replaces the row's old text in the
copy (the text must occur exactly once in its file, so the table has to
follow the code) by the new text, runs ``python -m pytest -x -q`` on the
row's selection with the copy's src/ first on the path, and restores the
file.  A row is killed when pytest reports failed tests or a collection
error within the row's timeout.  The script prints one line per row and
exits 1 if any row's old text does not match, or if its mutant survives
or times out.  pytest does not collect this file (its name does not
start with ``test_``).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file old new tests timeout")

MUTANTS = [
    Mutant(
        "exact_divide adds each quotient term times q instead of subtracting",
        "nc_capelli/weyl.py",
        "_mul_kernel(gens, t, q.terms, rem, negate=True)",
        "_mul_kernel(gens, t, q.terms, rem)",
        ["tests/test_weyl.py::TestExactDivide"], 120),
    Mutant(
        "comb for perm in _apply's derivative factor",
        "nc_capelli/weyl.py",
        "factor *= perm((kp >> shift) & FIELD_MASK, a)",
        "factor *= __import__('math').comb((kp >> shift) & FIELD_MASK, a)",
        ["tests/test_weyl.py::test_falling_factorial_action"], 120),
    Mutant(
        "_apply without its divisibility skip",
        "nc_capelli/weyl.py",
        """\
            if ((kp | guard) - u) & guard != guard:
                continue
""",
        "",
        ["tests/test_weyl.py::test_falling_factorial_action"], 120),
    Mutant(
        "the Gaussian table's im*im product is not negated (integer apply)",
        "nc_capelli/weyl.py",
        "kernel(gens, im, rim, out_re, not negate)",
        "kernel(gens, im, rim, out_re, negate)",
        ["tests/test_weyl.py::test_gauss_int_apply_matches_generic"], 120),
    Mutant(
        "the power chain does not advance",
        "nc_capelli/cayley.py",
        "prev, power = power, det_z * power",
        "prev = power",
        ["tests/test_cayley.py::test_sweep_matches_direct_computation"],
        120),
    Mutant(
        "GaussIntWeyl.apply drops the operator's denominator",
        "nc_capelli/weyl.py",
        "self.den * p.den)",
        "p.den)",
        ["tests/test_cayley.py::test_sweep_matches_direct_computation"],
        120),
    Mutant(
        "the peeled d_g is not taken off the left key",
        "nc_capelli/weyl.py",
        """\
                k1 -= a << (xshift + dshift)
""",
        "",
        ["tests/test_weyl.py::test_packed_product_matches_reference"], 120),
    Mutant(
        "the binomial factor of a peeled d_g power misses its 1/(j+1)",
        "nc_capelli/weyl.py",
        "factor = factor * (a - j) * (b - j) // (j + 1)",
        "factor = factor * (a - j) * (b - j)",
        ["tests/test_weyl.py::test_packed_product_matches_reference"], 120),
    Mutant(
        "a field is peeled only where it meets no x_g",
        "nc_capelli/weyl.py",
        "if a and (bound >> xshift) & FIELD_MASK:",
        "if a and not (bound >> xshift) & FIELD_MASK:",
        ["tests/test_weyl.py::test_packed_product_matches_reference"], 120),
    Mutant(
        "the pairs are not tested one by one when the OR bound fires",
        "nc_capelli/weyl.py",
        """\
        if (k1 + bound) & guard and any((k1 + k2) & guard for k2 in terms):
            _overflow()
""",
        "",
        ["tests/test_weyl.py::TestFieldLimit::test_one_overflowing_pair_raises"],
        120),
    Mutant(
        "the OR bound alone raises",
        "nc_capelli/weyl.py",
        " and any((k1 + k2) & guard for k2 in terms):",
        ":",
        ["tests/test_weyl.py::TestFieldLimit::"
         "test_field_or_above_the_limit_is_not_an_overflow"], 120),
    Mutant(
        "the OR bound is not retaken after a peel",
        "nc_capelli/weyl.py",
        """\
                bound = reduce(or_, terms, 0)
""",
        "",
        ["tests/test_weyl.py::TestFieldLimit::test_peeled_product_at_the_limit"],
        120),
    Mutant(
        "a hit mask of 0: no right term takes a Leibniz step",
        "nc_capelli/weyl.py",
        "hit = FIELD_MASK << xshift",
        "hit = 0",
        ["tests/test_weyl.py::TestNormalOrdering::test_canonical_commutation"],
        120),
    Mutant(
        "the no-hit test inverted: the plain loop runs where x_g occurs",
        "nc_capelli/weyl.py",
        "if xshift < 0 or not (bound >> xshift) & FIELD_MASK:",
        "if xshift < 0 or (bound >> xshift) & FIELD_MASK:",
        ["tests/test_weyl.py::TestNormalOrdering::test_dx_x_squared"], 120),
    Mutant(
        "a report's residualIsZero ignores its preconditions",
        "nc_capelli/identities.py",
        "residualIsZero=zero and holds,",
        "residualIsZero=zero,",
        ["tests/test_negative_controls.py::test_failed_precondition_fails"],
        120),
    Mutant(
        "the Gaussian table's re*re product not negated at odd rows "
        "(integer coldet)",
        "nc_capelli/weyl.py",
        "kernel(gens, re, rre, out_re, negate)",
        "kernel(gens, re, rre, out_re)",
        ["tests/test_matrixops.py::test_gauss_int_coldet_matches_generic"],
        120),
    Mutant(
        "the Gaussian table's im*im product added to the real part "
        "instead of subtracted (integer coldet)",
        "nc_capelli/weyl.py",
        "kernel(gens, im, rim, out_re, not negate)",
        "kernel(gens, im, rim, out_re, negate)",
        ["tests/test_matrixops.py::test_gauss_int_coldet_matches_generic"],
        120),
    Mutant(
        "GaussIntWeyl.__eq__ scales each side by its own denominator",
        "nc_capelli/weyl.py",
        "_times(a, oden // g) == _times(b, den // g)",
        "_times(a, den // g) == _times(b, oden // g)",
        ["tests/test_identities.py::TestPairResidual"], 120),
    Mutant(
        "GaussIntWeyl.__eq__ skips the imaginary parts",
        "nc_capelli/weyl.py",
        "for a, b in zip(self.terms, other.terms))",
        "for a, b in zip(self.terms[:1], other.terms[:1]))",
        ["tests/test_identities.py::TestPairResidual"], 120),
    Mutant(
        "_cauchy_binet sums its groups without rescaling them to the "
        "common denominator",
        "nc_capelli/identities.py",
        "{0: den // d}, {}).mul_into(",
        "{0: 1}, {}).mul_into(",
        ["tests/test_identities.py::test_cached_cauchy_binet_mixed_denominators"],
        120),
    Mutant(
        "the operator-action oracle applies one side twice",
        "nc_capelli/identities.py",
        "return all(lhs.apply(p) == rhs.apply(p) for p in (",
        "return all(lhs.apply(p) == lhs.apply(p) for p in (",
        ["tests/test_negative_controls.py::test_operator_oracle_note_fails"],
        120),
    Mutant(
        "max for lcm in gauss_int_coldet's column scale",
        "nc_capelli/matrixops.py",
        "scales = [lcm(*(c.d ",
        "scales = [max(1, *(c.d ",
        ["tests/test_matrixops.py::test_gauss_int_coldet_matches_generic"],
        120),
    Mutant(
        "a column's scale dropped from gauss_int_coldet's divisor",
        "nc_capelli/matrixops.py",
        "*det.terms, prod(scales))",
        "*det.terms, prod(scales[1:]))",
        ["tests/test_matrixops.py::test_gauss_int_coldet_matches_generic"],
        120),
    Mutant(
        "the letter-degree split leaves the central letter in the word",
        "nc_capelli/pbw.py",
        "out.setdefault(len(word) - len(rest), {})[rest] = c",
        "out.setdefault(len(word) - len(rest), {})[word] = c",
        ["tests/test_pbw.py::TestCentrality"], 120),
    Mutant(
        "bigrade_project counts a central letter as holomorphic",
        "nc_capelli/swapalg.py",
        "return (sum(1 for k in word if k in table.plain),",
        "return (sum(1 for k in word if k not in table.barred),",
        ["tests/test_swapalg.py::TestLocalFactorization"], 120),
    Mutant(
        "no check_confluence() when a swap table is built",
        "nc_capelli/swapalg.py",
        """\
        self._memo = {}
        self.check_confluence()
""",
        """\
        self._memo = {}
""",
        ["tests/test_swapalg.py", "tests/test_pbw.py"], 300),
    Mutant(
        "the parent check dropped from SparseElement.__add__",
        "nc_capelli/scalars.py",
        """\
    def __add__(self, other):
        try:
            items = other.terms.items()
        except AttributeError:
            return NotImplemented
        if other.parent is not self.parent:
            require_same_parent(self.parent, other.parent)
""",
        """\
    def __add__(self, other):
        try:
            items = other.terms.items()
        except AttributeError:
            return NotImplemented
""",
        ["tests/test_ringapi.py::test_two_algebras_do_not_mix"], 120),
    Mutant(
        "the parent check by identity alone",
        "nc_capelli/scalars.py",
        "if a is not b and a != b:",
        "if a is not b:",
        ["tests/test_ringapi.py::test_equal_generator_sets_built_apart_mix"],
        120),
    Mutant(
        "SwapElement.__mul__ without the parent check",
        "nc_capelli/swapalg.py",
        """\
        require_same_parent(self.parent, other.parent)
        normalize = self.parent.normalize
""",
        """\
        normalize = self.parent.normalize
""",
        ["tests/test_ringapi.py::test_two_algebras_do_not_mix"], 120),
    Mutant(
        "__pow__ without its odd-step product",
        "nc_capelli/scalars.py",
        """\
            if bit == "1":
                result = result * self
""",
        "",
        ["tests/test_ringapi.py::test_power_exponents"], 120),
]


def _pytest(copy, tests, timeout):
    """pytest's exit code on ``tests`` in the copy, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return None


def main():
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)

        found = subprocess.run(
            [sys.executable, "-c", "import nc_capelli; print(nc_capelli.__file__)"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True).stdout.strip()
        if not found.startswith(str(copy)):
            print(f"nc_capelli imports from {found!r}, not from the copy")
            return 1
        selections = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = _pytest(copy, selections, sum(m.timeout for m in MUTANTS))
        if code != 0:
            print(f"the unmutated selections do not pass (exit {code})")
            return 1

        bad = 0
        for m in MUTANTS:
            path = copy / "src" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.file}: {m.name}: the old text occurs "
                      f"{text.count(m.old)} times")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            t0 = time.monotonic()
            try:
                code = _pytest(copy, m.tests, m.timeout)
            finally:
                path.write_text(text)
            took = time.monotonic() - t0
            # 1: tests failed; 2: a collection error
            verdict = ("killed" if code in (1, 2)
                       else "TIMED OUT" if code is None else "SURVIVED")
            bad += verdict != "killed"
            print(f"{verdict:<9} {m.file}: {m.name} ({took:.1f} s)")
        print(f"{len(MUTANTS)} mutants, {bad} not killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
