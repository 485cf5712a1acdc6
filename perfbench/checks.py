"""Output checks, made in the benchmark's parent process.

Every check rests on a property the method must have, or on a value
computed here with plain integers, fractions or sympy; none compares
with a stored copy of an earlier run's output.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import sympy

_S = sympy.Symbol("s")


def _b(n, s):
    """b(s) = s(s+1)...(s+n-1), for an int or a sympy symbol s."""
    return prod((s + k for k in range(n)), start=1)


def _quaternion_real(n, s):
    out = (2 * s - 1) * (2 * s + 2 * n - 1)
    for k in range(2 * n - 1):
        out *= (2 * s + k) ** 2
    return out


# identity name -> (numerator, denominator) of the Cayley quotient's
# closed form, as functions of n (the numerator also of s)
_CAYLEY = {
    "cayley.scalar": (_b, lambda n: 1),
    "cayley.decomplexified": (lambda n, s: _b(n, s) ** 2, lambda n: 1),
    "cayley.quaternion.complexForm": (lambda n, s: _b(2 * n, s),
                                      lambda n: 2 ** (2 * n)),
    "cayley.quaternion.realForm": (_quaternion_real, lambda n: 2 ** (4 * n)),
}


def _polynomial(text):
    return sympy.parse_expr(text.replace("^", "**"),
                            local_dict={"s": _S, "i": sympy.I})


def check_report(r, expect="zero"):
    """Problems found in one report dict; empty when it is correct."""
    if expect == "nonzero":
        if r["residualIsZero"] or not r["residualRendering"]:
            return ["false identity came out zero"]
        return []
    problems = []
    if not r["conditional"] and not r["residualIsZero"]:
        problems.append("nonzero residual")
    if r["residualIsZero"] and r["lhsTermCount"] != r["rhsTermCount"]:
        problems.append("zero residual with unequal LHS and RHS term counts")
    name, notes, size = r["identityName"], r["notes"], r["sizeParams"]
    if name in _CAYLEY:
        num, den = _CAYLEY[name]
        n = size["n"]
        for row in notes["results"]:
            if Fraction(row["quotient"]) != Fraction(num(n, row["s"]), den(n)):
                problems.append(f"quotient at s={row['s']} is {row['quotient']}")
        diff = sympy.expand(_polynomial(notes["bPolynomial"])
                            - num(n, _S) / sympy.Integer(den(n)))
        if diff != 0:
            problems.append(f"interpolated polynomial off by {diff}")
    if name == "cayley.radial" and int(notes["b_value"]) != _b(size["n"], size["s"]):
        problems.append(f"b value {notes['b_value']}")
    if (name == "factorization.global-cancellation"
            and size.get("truncate") is not None
            and notes.get("truncated_defect_nonzero") is not True):
        problems.append("truncated product cancelled")
    return problems


def tally(records):
    """(attempted, failed, correct, problems) over one round's records.

    A verification fails when it raises or when its report has a
    problem; ``correct`` is False only for the latter, the outputs that
    the program did produce."""
    attempted = failed = 0
    correct = True
    problems = []
    for rec in records:
        if "error" in rec:
            attempted += rec["weight"]
            failed += rec["weight"]
            problems.append(f"{rec['label']}: {rec['error']}")
            continue
        for r in rec["reports"]:
            attempted += 1
            found = check_report(r, rec["expect"])
            if found:
                failed += 1
                correct = False
                problems.append(f"{rec['label']} {r['identityName']} "
                                f"{r['sizeParams']}: {'; '.join(found)}")
    return attempted, failed, correct, problems
