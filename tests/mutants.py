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
        "comb for perm in apply_into's derivative factor",
        "nc_capelli/weyl.py",
        "factor *= perm((kp >> shift) & FIELD_MASK, a)",
        "factor *= comb((kp >> shift) & FIELD_MASK, a)",
        ["tests/test_weyl.py::test_falling_factorial_action"], 120),
    Mutant(
        "apply_into without its divisibility skip",
        "nc_capelli/weyl.py",
        """\
                if ((kp | guard) - u) & guard != guard:
                    continue
""",
        "",
        ["tests/test_weyl.py::test_falling_factorial_action"], 120),
    Mutant(
        "the peeled d_g is not taken off the left key",
        "nc_capelli/weyl.py",
        """\
                k1 -= a << (xshift + dshift)
""",
        "",
        ["tests/test_weyl.py::test_packed_product_matches_reference"], 120),
    Mutant(
        "each peeled d_g is applied negated",
        "nc_capelli/weyl.py",
        "_mul_kernel(gens, unit, terms, {})",
        "_mul_kernel(gens, unit, terms, {}, True)",
        ["tests/test_weyl.py::test_packed_product_matches_reference"], 120),
    Mutant(
        "a field is peeled only where it meets no x_g",
        "nc_capelli/weyl.py",
        "if a and any(",
        "if a and not any(",
        ["tests/test_weyl.py::test_packed_product_matches_reference"], 120),
    Mutant(
        "re*re not negated at odd rows in GaussIntWeyl.mul_into",
        "nc_capelli/weyl.py",
        "_mul_kernel(gens, re, ore, out_re, negate)",
        "_mul_kernel(gens, re, ore, out_re)",
        ["tests/test_matrixops.py::test_gauss_int_coldet_matches_generic"],
        120),
    Mutant(
        "im*im added to the real part instead of subtracted",
        "nc_capelli/weyl.py",
        "_mul_kernel(gens, im, oim, out_re, not negate)",
        "_mul_kernel(gens, im, oim, out_re, negate)",
        ["tests/test_matrixops.py::test_gauss_int_coldet_matches_generic"],
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
        "GaussIntWeyl.mul_into), prod(scales)",
        "GaussIntWeyl.mul_into), prod(scales[1:])",
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
