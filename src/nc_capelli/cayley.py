"""The Cayley identity family: classical, decomplexified,
dequaternionified, and the radial-part identity.

The formal exponent s is handled by integer sweeps plus exact Lagrange
interpolation: a degree-d polynomial identity verified at d+1 distinct
integer points is a proof of the polynomial identity; a polynomial in s
is a Weyl polynomial over the one generator s.  A sweep (_quotient)
builds det(d) and det(X) once on Gaussian integers
(``weyl.GaussIntWeyl``), carries det(X)^s from one s to the next by one
product, applies det(d) to it on int dicts, and turns to Gaussian
rationals only for the exact division by det(X)^(s-1), which proves the
quotient a constant.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

from . import matrixops as mo
from . import weyl
from .identities import (bool_report, classical_weyl, complex_weyl,
                         require_size, residual_report)
from .ringapi import commutator
from .scalars import G_HALF, G_ZERO, GaussianRational

_S = weyl.GeneratorSet(["s"])


def _s_plus(c):
    """The polynomial s + c, for a rational c."""
    return weyl.WeylElement.variable(_S, "s") + weyl.WeylElement.one(_S).scale(c)


def _constant_of(w):
    """The value of a constant Weyl element, as a GaussianRational;
    ValueError otherwise."""
    if w.terms.keys() - {0}:
        raise ValueError(f"not a constant: {w.render()}")
    return w.terms.get(0, G_ZERO)


def interpolate(points):
    """Exact Lagrange interpolation through [(s, value)] integer points,
    each value a GaussianRational; returns a polynomial in s.  Each basis
    prod (s - s_j), j != i, is scaled once, by v_i / prod (s_i - s_j)."""
    factors = [_s_plus(-sj) for sj, _ in points]
    out = weyl.WeylElement.zero(_S)
    for i, (si, vi) in enumerate(points):
        basis = weyl.WeylElement.one(_S)
        den = 1
        for j, (sj, _) in enumerate(points):
            if i != j:
                basis = basis * factors[j]
                den *= si - sj
        out = out + basis.scale(vi * GaussianRational(Fraction(1, den)))
    return out


def b_polynomial(n):
    """b(s) = s(s+1)...(s+n-1) as a polynomial in s."""
    out = weyl.WeylElement.one(_S)
    for k in range(n):
        out = out * _s_plus(k)
    return out


def _quotient(kind, n, s_values):
    """The quotients apply(det D, det Z^s) / det Z^(s-1), as
    GaussianRational constants, for the increasing integers s >= 1 of
    s_values; (Z, D) is the n-th pair of ``kind``: classical,
    decomplexified, complexForm or realForm.

    Both determinants are built once on Gaussian integers
    (``matrixops.gauss_int_coldet``).  ``power`` = det(Z)^s is carried
    from ``prev``, its value at s - 1, by one product per s, and det D
    acts on it on int dicts; that action divided by ``prev`` is the
    quotient, which exact_divide proves constant."""
    require_size(n)
    if kind in ("classical", "decomplexified"):
        _, _, Z, D = (classical_weyl if kind == "classical" else complex_weyl)(n)
    elif kind in ("complexForm", "realForm"):
        _, Z, D = quaternion_pair(n)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if kind in ("decomplexified", "realForm"):
        Z, D = mo.decomplexify(Z), mo.decomplexify(D)
    det_d, det_z = mo.gauss_int_coldet(D), mo.gauss_int_coldet(Z)
    power = det_z._new({0: 1})
    s = 0
    values = []
    for target in s_values:
        if target <= s:
            raise ValueError("s must be a positive integer, increasing")
        while s < target:
            prev, power = power, det_z * power
            s += 1
        values.append(_constant_of(weyl.exact_divide(
            det_d.apply(power).to_weyl(), prev.to_weyl())))
    return values


# ---------------------------------------------------------------------------
# Classical and decomplexified
# ---------------------------------------------------------------------------

def cayley_scalar(n, s):
    """det(d/dx) det(X)^s = b(s) det(X)^(s-1); returns b(s) for one
    integer s >= 1."""
    return _quotient("classical", n, [s])[0]


def cayley_decomplexified(n, s):
    """det(D^R) det(Z^R)^s = b(s)^2 det(Z^R)^(s-1); returns b(s)^2."""
    return _quotient("decomplexified", n, [s])[0]


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
            D[2 * b][2 * a] = d1.scale(G_HALF)
            D[2 * b][2 * a + 1] = -d2.bar().scale(G_HALF)
            D[2 * b + 1][2 * a] = d2.scale(G_HALF)
            D[2 * b + 1][2 * a + 1] = d1.bar().scale(G_HALF)
    return ring, mo.matrix(ring, Z), mo.matrix(ring, D)


def quaternion_commutation_check(n):
    """[2 (D^C)^t_rs, Z^C_uv] = delta_ur delta_vs for all indices up to
    2n (operator-first commutator ordering)."""
    t0 = time.monotonic()
    require_size(n)
    ring, Z, D = quaternion_pair(n)
    Dt = mo.transpose(D).entries
    ok = all(
        commutator(Dt[r][s].scale(2), Z.entries[u][v])
        == (ring.one if (u, v) == (r, s) else ring.zero)
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
    if kind not in ("complexForm", "realForm"):
        raise ValueError(f"unknown kind {kind!r}")
    return _quotient(kind, n, [s])[0]


def quaternion_expected(kind, n):
    """Closed forms of the two corollaries, as polynomials in s."""
    if kind == "complexForm":
        return b_polynomial(2 * n).scale(Fraction(1, 2 ** (2 * n)))
    if kind == "realForm":
        # 2s + k = 2 (s + k/2), and the 4n factors bring 2^(4n)
        out = _s_plus(Fraction(-1, 2)) * _s_plus(Fraction(2 * n - 1, 2))
        for k in range(2 * n - 1):
            t = _s_plus(Fraction(k, 2))
            out = out * t * t
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
    require_size(n)
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
    ok = gl2 == GaussianRational(2)
    return bool_report(
        "cayley.radial.gl2-example", "weyl(l1,l2)", {"n": 2}, ok, t0,
        detail="" if ok else f"got {gl2.render()}",
        notes={"value": gl2.render()},
    )


# ---------------------------------------------------------------------------
# Sweep + interpolation reports
# ---------------------------------------------------------------------------

def _sweep_report(name, kind, n, s_values, expected_poly, t0):
    """Run an s-sweep of ``kind`` (see _quotient), interpolate, compare
    to the closed form."""
    values = list(zip(s_values, _quotient(kind, n, s_values)))
    fitted = interpolate(values)
    return residual_report(
        name, "weyl", {"n": n, "sValues": list(s_values)},
        fitted, expected_poly, t0,
        notes={"kind": kind, "bPolynomial": fitted.render(),
               "results": [{"n": n, "s": s, "quotient": v.render()}
                           for s, v in values]},
    )


def verify_cayley_scalar(n):
    t0 = time.monotonic()
    require_size(n)
    return _sweep_report("cayley.scalar", "classical", n, range(1, n + 2),
                         b_polynomial(n), t0)


def verify_cayley_decomplexified(n):
    t0 = time.monotonic()
    require_size(n)
    b = b_polynomial(n)
    return _sweep_report("cayley.decomplexified", "decomplexified", n,
                         range(1, 2 * n + 2), b * b, t0)


def verify_cayley_quaternion(kind, n):
    t0 = time.monotonic()
    require_size(n)
    degree = 2 * n if kind == "complexForm" else 4 * n
    return _sweep_report(f"cayley.quaternion.{kind}", kind, n,
                         range(1, degree + 2), quaternion_expected(kind, n), t0)
