"""The Cayley identity family: classical, decomplexified,
dequaternionified, and the radial-part identity.

The formal exponent s is handled by integer sweeps plus exact Lagrange
interpolation: a degree-d polynomial identity verified at d+1 distinct
integer points is a proof of the polynomial identity.  All work happens
in the commutative polynomial layer of the Weyl algebra plus apply().
"""

from __future__ import annotations

import time
from itertools import product

from . import matrixops as mo
from . import weyl
from .identities import bool_report, classical_weyl, complex_weyl, residual_report
from .ringapi import commutator
from .scalars import Coefficient


def _constant_of(w):
    """The value of a constant Weyl element, as a Coefficient; ValueError
    otherwise."""
    if w.terms.keys() - {0}:
        raise ValueError(f"not a constant: {w.render()}")
    return Coefficient({(): w.terms[0]} if w.terms else {})


def interpolate(points):
    """Exact Lagrange interpolation through [(s, value)] integer points;
    returns a Coefficient polynomial in the parameter s."""
    s = Coefficient.param("s")
    out = Coefficient.zero()
    for i, (si, vi) in enumerate(points):
        basis = Coefficient.one()
        for j, (sj, _) in enumerate(points):
            if i == j:
                continue
            basis = basis * (s - Coefficient.from_rational(sj)) * \
                Coefficient.from_rational(1, si - sj)
        out = out + vi * basis
    return out


def b_polynomial(n):
    """b(s) = s(s+1)...(s+n-1) as a Coefficient polynomial in s."""
    s = Coefficient.param("s")
    out = Coefficient.one()
    for k in range(n):
        out = out * (s + Coefficient.from_rational(k))
    return out


def _quotient(det_d, det_z, s):
    """apply(det_d, det_z^s) exact-divided by det_z^(s-1), as a
    Coefficient constant, for one integer s >= 1."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    prev = det_z ** (s - 1)
    applied = det_d.apply(prev * det_z)
    return _constant_of(weyl.exact_divide(applied, prev))


# ---------------------------------------------------------------------------
# Classical and decomplexified
# ---------------------------------------------------------------------------

def cayley_scalar(n, s):
    """det(d/dx) det(X)^s = b(s) det(X)^(s-1); returns b(s) for one
    integer s >= 1."""
    _, _, X, D = classical_weyl(n)
    return _quotient(mo.coldet(D), mo.coldet(X), s)


def cayley_decomplexified(n, s):
    """det(D^R) det(Z^R)^s = b(s)^2 det(Z^R)^(s-1); returns b(s)^2."""
    _, _, Z, D = complex_weyl(n)
    return _quotient(
        mo.coldet(mo.decomplexify(D)), mo.coldet(mo.decomplexify(Z)), s
    )


# ---------------------------------------------------------------------------
# Dequaternionification
# ---------------------------------------------------------------------------

def quaternion_pair(n):
    """Complex forms of the quaternionic matrices Z, D.

    Entry q_ab = z1_ab + j z2_ab maps to the block
    [[z1, z2], [-bar z2, bar z1]]; the derivative entry
    d_ab = 1/2 (d_{z1} - j d_{z2}) maps (with j written on the right,
    j w = bar(w) j) to the block
    (1/2) [[d_{z1}, -d_{bar z2}], [d_{z2}, d_{bar z1}]],
    the form under which [2 (D^C)^t_rs, Z^C_uv] = delta_ur delta_vs.
    """
    names = [f"{c}{k}{a}{b}" for c in "xy" for k in (1, 2)
             for a in range(1, n + 1) for b in range(1, n + 1)]
    gens = weyl.GeneratorSet(names)
    ring = weyl.weyl_ring(gens)
    half = Coefficient.from_rational(1, 2)
    Z = [[None] * (2 * n) for _ in range(2 * n)]
    D = [[None] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            z1, d1 = weyl.complex_pair(gens, f"1{a + 1}{b + 1}")
            z2, d2 = weyl.complex_pair(gens, f"2{a + 1}{b + 1}")
            Z[2 * a][2 * b] = z1
            Z[2 * a][2 * b + 1] = z2
            Z[2 * a + 1][2 * b] = -z2.bar()
            Z[2 * a + 1][2 * b + 1] = z1.bar()
            # the derivative matrix is indexed blockwise transposed, as
            # in the classical Cayley operator matrix
            D[2 * b][2 * a] = d1.scale(half)
            D[2 * b][2 * a + 1] = -d2.bar().scale(half)
            D[2 * b + 1][2 * a] = d2.scale(half)
            D[2 * b + 1][2 * a + 1] = d1.bar().scale(half)
    return ring, mo.matrix(ring, Z), mo.matrix(ring, D)


def quaternion_commutation_check(n):
    """[2 (D^C)^t_rs, Z^C_uv] = delta_ur delta_vs for all indices up to
    2n (operator-first commutator ordering)."""
    t0 = time.monotonic()
    ring, Z, D = quaternion_pair(n)
    Dt = mo.transpose(D).entries
    ok = all(
        (commutator(Dt[r][s].scale(2), Z.entries[u][v])
         - (ring.one if (u, v) == (r, s) else ring.zero)).is_zero()
        for u, v, r, s in product(range(2 * n), repeat=4))
    return bool_report(
        "cayley.quaternion-commutation", ring.name, {"n": n}, ok, t0,
        detail="" if ok else "canonical relations violated",
        notes={"ordering": "operator-first commutator"},
    )


def cayley_quaternion(kind, n, s):
    """Dequaternionified Cayley quotients.

    complexForm: det(D^C) det(Z^C)^s / det(Z^C)^(s-1)
      = (1/2^(2n)) s(s+1)...(s+2n-1);
    realForm: det(D^R) det(Z^R)^s / det(Z^R)^(s-1)
      = (1/2^(4n)) (2s-1)(2s)^2 (2s+1)^2 ... (2s+2n-2)^2 (2s+2n-1).
    """
    ring, Z, D = quaternion_pair(n)
    if kind == "complexForm":
        return _quotient(mo.coldet(D), mo.coldet(Z), s)
    if kind == "realForm":
        return _quotient(
            mo.coldet(mo.decomplexify(D)), mo.coldet(mo.decomplexify(Z)), s
        )
    raise ValueError(f"unknown kind {kind!r}")


def quaternion_expected(kind, n):
    """Closed forms of the two corollaries, as polynomials in s."""
    s = Coefficient.param("s")
    two_s = s * Coefficient.from_rational(2)
    if kind == "complexForm":
        out = Coefficient.from_rational(1, 2 ** (2 * n))
        for k in range(2 * n):
            out = out * (s + Coefficient.from_rational(k))
        return out
    if kind == "realForm":
        out = Coefficient.from_rational(1, 2 ** (4 * n))
        out = out * (two_s - Coefficient.one())
        for k in range(2 * n - 1):
            t = two_s + Coefficient.from_rational(k)
            out = out * t * t
        out = out * (two_s + Coefficient.from_rational(2 * n - 1))
        return out
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Radial-part identity
# ---------------------------------------------------------------------------

def radial_identity(n, s):
    """The reduced Cayley identity on the diagonal slice:
    (1/V) d_{lam1}...d_{lamn} [ V * (lam1...lamn)^s ]
      = s(s+1)...(s+n-1) (lam1...lamn)^(s-1),
    V the Vandermonde prod_{i<j}(lam_i - lam_j)."""
    t0 = time.monotonic()
    if s < 1:
        raise ValueError("s must be a positive integer")
    names = [f"l{i}" for i in range(1, n + 1)]
    gens = weyl.GeneratorSet(names)
    ring = weyl.weyl_ring(gens)
    lam = [weyl.WeylElement.variable(gens, name) for name in names]
    V = ring.one
    for i in range(n):
        for j in range(i + 1, n):
            V = V * (lam[i] - lam[j])
    op = ring.one
    for name in names:
        op = op * weyl.WeylElement.derivative(gens, name)
    prod_lam = ring.one
    for x in lam:
        prod_lam = prod_lam * x
    lhs = weyl.exact_divide(op.apply(V * prod_lam ** s), V)
    b = 1
    for k in range(n):
        b *= s + k
    rhs = (prod_lam ** (s - 1)).scale(b)
    return residual_report("cayley.radial", ring.name, {"n": n, "s": s},
                           lhs, rhs, t0, notes={"b_value": str(b)})


def radial_gl2_example():
    """(1/V)(d_lam1 + d_lam2) V (lam1 + lam2) -> the constant 2."""
    gens = weyl.GeneratorSet(["l1", "l2"])
    l1 = weyl.WeylElement.variable(gens, "l1")
    l2 = weyl.WeylElement.variable(gens, "l2")
    op = weyl.WeylElement.derivative(gens, "l1") + \
        weyl.WeylElement.derivative(gens, "l2")
    V = l1 - l2
    return _constant_of(weyl.exact_divide(op.apply(V * (l1 + l2)), V))


def radial_gl2_report():
    """radial_gl2_example as a report: the constant must be 2."""
    t0 = time.monotonic()
    gl2 = radial_gl2_example()
    ok = (gl2 - Coefficient.from_rational(2)).is_zero()
    return bool_report(
        "cayley.radial.gl2-example", "weyl(l1,l2)", {"n": 2}, ok, t0,
        detail="" if ok else f"got {gl2.render()}",
        notes={"value": gl2.render()},
    )


# ---------------------------------------------------------------------------
# Sweep + interpolation reports
# ---------------------------------------------------------------------------

def _sweep_report(name, n, s_values, compute, expected_poly, t0, table_kind):
    """Run an s-sweep, interpolate, compare to the closed form."""
    table = []
    values = []
    for s in s_values:
        v = compute(s)
        values.append((s, v))
        table.append({"n": n, "s": s, "quotient": v.render()})
    fitted = interpolate(values)
    return residual_report(
        name, "weyl", {"n": n, "sValues": list(s_values)},
        fitted, expected_poly, t0,
        notes={"kind": table_kind, "bPolynomial": fitted.render(),
               "results": table},
    )


def verify_cayley_scalar(n):
    t0 = time.monotonic()
    return _sweep_report(
        "cayley.scalar", n, range(1, n + 2), lambda s: cayley_scalar(n, s),
        b_polynomial(n), t0, "classical",
    )


def verify_cayley_decomplexified(n):
    t0 = time.monotonic()
    b = b_polynomial(n)
    return _sweep_report(
        "cayley.decomplexified", n, range(1, 2 * n + 2),
        lambda s: cayley_decomplexified(n, s), b * b, t0, "decomplexified",
    )


def verify_cayley_quaternion(kind, n):
    t0 = time.monotonic()
    degree = 2 * n if kind == "complexForm" else 4 * n
    return _sweep_report(
        f"cayley.quaternion.{kind}", n, range(1, degree + 2),
        lambda s: cayley_quaternion(kind, n, s),
        quaternion_expected(kind, n), t0, kind,
    )
