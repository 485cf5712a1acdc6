"""Verifier suite: condition checkers and exact verifiers for every
factorization and Capelli-type determinant identity in scope.

Every verifier returns a :class:`VerificationReport`; the residual of an
identity is computed as a canonical normal form and compared to zero
exactly — there is no tolerance anywhere.  Abstract theorems are checked
in the smallest faithful engine (signed trace monoid or PBW), concrete
ones in the Weyl algebra.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import lcm

from . import matrixops as mo
from . import pbw, swapalg, weyl
from .ringapi import commutator
from .scalars import G_HALF, G_ONE, GaussianRational


class VerificationReport(namedtuple(
        "VerificationReport",
        "identityName hostRing sizeParams residualIsZero residualRendering "
        "lhsTermCount rhsTermCount wallMillis conditional notes",
        defaults=(False, None))):
    """The verdict of one verification; immutable once built.  notes
    defaults to an empty dict of its own."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        return report if report.notes is not None else report._replace(notes={})

    def to_dict(self):
        return self._asdict()


def residual_report(name, ring_name, size, lhs, rhs, t0, conditional=False,
                    notes=None, holds=True):
    """The report of an identity lhs = rhs: it holds iff lhs - rhs is
    exactly zero and its preconditions ``holds``.  The rendering is the
    residual's alone.  t0 is the time.monotonic() at which the check
    began.

    The sides, of one engine, are subtracted only when ``==`` finds them
    unequal, so two ``weyl.GaussIntWeyl`` sides are compared on ints and
    build Gaussian rationals only to render a nonzero residual."""
    same = lhs == rhs
    residual = None if same else lhs - rhs
    zero = residual is None or residual.is_zero()
    return VerificationReport(
        identityName=name,
        hostRing=ring_name,
        sizeParams=size,
        residualIsZero=zero and holds,
        residualRendering="" if zero else residual.render(),
        lhsTermCount=len(lhs),
        rhsTermCount=len(rhs),
        wallMillis=int((time.monotonic() - t0) * 1000),
        conditional=conditional,
        notes=notes,
    )


def bool_report(name, ring_name, size, ok, t0, detail="", conditional=False,
                notes=None):
    """The report of a check with a yes/no outcome; detail is rendered in
    place of a residual when it fails."""
    return VerificationReport(
        identityName=name,
        hostRing=ring_name,
        sizeParams=size,
        residualIsZero=bool(ok),
        residualRendering="" if ok else (detail or "check failed"),
        lhsTermCount=0,
        rhsTermCount=0,
        wallMillis=int((time.monotonic() - t0) * 1000),
        conditional=conditional,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------

def _index_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


# which index pairs (i, j) carry a free variable in each matrix shape
_SHAPES = {
    "plain": lambda i, j: True,
    "symmetric": lambda i, j: i <= j,
    "antisymmetric": lambda i, j: i < j,
}


def _shaped_weyl(n, kind, prefixes, pair):
    """(ring, gens, Z, D) of the given shape over one (z, d) pair per
    free index pair: ``pair(gens, "ij")`` builds it from the generators
    named prefix + "ij" (all of the first prefix, then the next).

    symmetric: z_ij = z_ji, D doubled on the diagonal;
    antisymmetric: z_ij = -z_ji, zero diagonal."""
    if kind not in _SHAPES:
        raise ValueError(f"unknown kind {kind!r}")
    bases = [f"{i}{j}" for i, j in _index_pairs(n) if _SHAPES[kind](i, j)]
    gens = weyl.GeneratorSet([p + b for p in prefixes for b in bases])
    ring = weyl.weyl_ring(gens)
    pairs = {b: pair(gens, b) for b in bases}

    def entry(i, j):
        if kind == "plain":
            return pairs[f"{i}{j}"]
        if kind == "antisymmetric" and i == j:
            return ring.zero, ring.zero
        z, d = pairs[f"{min(i, j)}{max(i, j)}"]
        if kind == "symmetric":
            return z, d.scale(2) if i == j else d
        return (z, d) if i < j else (-z, -d)

    cells = [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    Z = mo.matrix(ring, [[z for z, _ in row] for row in cells])
    D = mo.matrix(ring, [[d for _, d in row] for row in cells])
    return ring, gens, Z, D


def classical_weyl(n, kind="plain"):
    """Real-variable Capelli instances over z_ij, d_ij: (ring, gens, Z, D)
    with kind plain, symmetric (Turnbull) or antisymmetric
    (Howe-Umeda / Kostant-Sahi)."""
    return _shaped_weyl(n, kind, "z", lambda gens, b: (
        weyl.WeylElement.variable(gens, f"z{b}"),
        weyl.WeylElement.derivative(gens, f"z{b}"),
    ))


def complex_weyl(n, kind="plain"):
    """Complex-variable instances over real generators x_ij, y_ij:
    z_ij = x_ij + i*y_ij, d_ij = (dx_ij - i*dy_ij)/2."""
    return _shaped_weyl(n, kind, "xy", weyl.complex_pair)


def gln_E_matrix(n, doubled=False, central=()):
    """The matrix E = (E_ij) over U(gl_n) (or the doubled algebra), with
    the central letters named in ``central``."""
    build = pbw.build_doubled_gln if doubled else pbw.build_gln
    spec = build(n, central)
    ring = spec.ring()
    E = mo.matrix(
        ring,
        [[spec.generator(f"E{i}{j}") for j in range(1, n + 1)] for i in range(1, n + 1)],
    )
    return spec, ring, E


# the complex_weyl shape of each CSS kind at n >= 2
CSS_SHAPES = {"css": "plain", "tcss": "symmetric"}


def css_instance(kind, n):
    """CSS catalog entries: returns (ring, gens, M, Y, Q).

    css: M = Z, Y = D^t, Q = Id over the complex Weyl instance;
    tcss: the symmetric (Turnbull) pair, Q = h*Id with h = 1;
    css-n1: the degenerate n = 1 case with an arbitrary holomorphic Q.
    """
    if kind in CSS_SHAPES:
        ring, gens, Z, D = complex_weyl(n, CSS_SHAPES[kind])
        return ring, gens, Z, mo.transpose(D), mo.identity(ring, n)
    if kind == "css-n1":
        gens = weyl.GeneratorSet(["x11", "y11"])
        ring = weyl.weyl_ring(gens)
        z, dz = weyl.complex_pair(gens, "11")
        # Q is arbitrary here as long as everything bar-commutes; pick a
        # genuinely noncommuting holomorphic element.
        return ring, gens, mo.matrix(ring, [[z]]), mo.matrix(ring, [[dz]]), \
            mo.matrix(ring, [[z + dz]])
    raise ValueError(f"unknown CSS kind {kind!r}")


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

def check_column_commuting(M):
    E = M.entries
    return all(commutator(E[a][k], E[b][k]).is_zero()
               for k in range(M.cols) for a, b in combinations(range(M.rows), 2))


def check_bar_commuting(*matrices):
    """[alpha, bar(beta)] = 0 for all entries alpha, beta of the given
    matrices."""
    entries = [e for M in matrices for row in M.entries for e in row]
    bars = [e.bar() for e in entries]
    return all(commutator(a, b).is_zero() for a, b in product(entries, bars))


def check_manin(M):
    """Column entries commute and cross 2x2 commutators match:
    [M_pq, M_kl] = [M_kq, M_pl]; double-checked via the coaction
    property (psi^M columns anticommute in the exterior layer)."""
    E, rows, cols = M.entries, range(M.rows), range(M.cols)
    if not (check_column_commuting(M) and all(
            (commutator(E[p][q], E[k][l]) - commutator(E[k][q], E[p][l])).is_zero()
            for p, k, q, l in product(rows, rows, cols, cols))):
        return False
    # independent check through the coaction: psi^M_i anticommute
    alg = swapalg.ExteriorAlgebra(M.rows, M.ring)
    psis = [swapalg.psi_M(alg, M, k) for k in cols]
    return all((a * b + b * a).is_zero() for a, b in product(psis, repeat=2))


def check_css(M, Y, Q):
    """[Y_lj, M_rp] = delta_lp * Q_rj for all indices."""
    zero = M.ring.zero
    return all(
        (commutator(Y.entries[l][j], M.entries[r][p])
         - (Q.entries[r][j] if l == p else zero)).is_zero()
        for l, j, r, p in product(range(M.rows), repeat=4))


def check_tcss(M, Y):
    """[M_ij, Y_kl] = -h (delta_jk delta_il + delta_ik delta_jl) with a
    central h; returns (ok, h)."""
    # extract h from the diagonal relation [M_11, Y_11] = -2h
    h = (-commutator(M.entries[0][0], Y.entries[0][0])).scale(G_HALF)
    ok = all(
        (commutator(M.entries[i][j], Y.entries[k][l])
         + h.scale((j == k and i == l) + (i == k and j == l))).is_zero()
        for i, j, k, l in product(range(M.rows), repeat=4)
    ) and all(commutator(h, e).is_zero() for row in M.entries + Y.entries
              for e in row)
    return ok, h


def check_gcss(M, Y, Q):
    """GCSS: sum_l psi^M_l [Y_lj, psi^M_p] = psi^M_p psi^Q_j and
    psi^Q_j psi^M_p + psi^M_p psi^Q_j = 0, in the exterior layer."""
    n = M.rows
    alg = swapalg.ExteriorAlgebra(n, M.ring)
    psiM = [swapalg.psi_M(alg, M, k) for k in range(n)]
    psiQ = [swapalg.psi_M(alg, Q, k) for k in range(n)]

    def holds(j, p):
        acc = sum((psiM[l] * commutator(alg.from_host(Y.entries[l][j]),
                                        psiM[p]) for l in range(n)),
                  alg.zero())
        return ((acc - psiM[p] * psiQ[j]).is_zero()
                and (psiQ[j] * psiM[p] + psiM[p] * psiQ[j]).is_zero())

    return all(holds(j, p) for j, p in product(range(n), repeat=2))


def check_factorization_relations(C, Q):
    """The main theorem's column-wise relation families:
    [C_ik, C_jk] = C_ik Q_jk - C_jk Q_ik;
    [C_ik, Q_jk] = [C_jk, Q_ik];
    [Q_ik, Q_jk] = 0."""

    def holds(k, i, j):
        cik, cjk = C.entries[i][k], C.entries[j][k]
        qik, qjk = Q.entries[i][k], Q.entries[j][k]
        return ((commutator(cik, cjk) - (cik * qjk - cjk * qik)).is_zero()
                and (commutator(cik, qjk) - commutator(cjk, qik)).is_zero()
                and commutator(qik, qjk).is_zero())

    return all(holds(k, i, j) for k, i, j in product(range(C.rows), repeat=3))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def require_size(n, least=1):
    """Raise ValueError unless n >= least: at a smaller n a sized
    verifier would check 1 = 1 or an empty product."""
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")


def capelli_shifts(n):
    """diag(n-1, n-2, ..., 0) values as GaussianRationals."""
    return [GaussianRational(n - 1 - k) for k in range(n)]


def embed(ring, values):
    """The scalars ``values`` as elements of the ring."""
    return [ring.one.scale(v) for v in values]


def shift_diag(ring, values):
    return mo.diag(ring, embed(ring, values))


def mat_bar(M):
    return mo.RingMatrix(M.ring, [[e.bar() for e in row] for row in M.entries])


def corrected_matrix(C, Q, ds, sign):
    """C^R + Q^R CorrTriDiag(ds), ds central elements of C's ring: the
    matrix whose column determinant is the main theorem's left side.
    For C = A B this is also the A^R B^R reading: decomplexification is
    a homomorphism, so (A B)^R and A^R B^R have the same entries
    (oracle.decomplexify checks this)."""
    corr = mo.corr_tridiag(C.ring, ds, sign)
    return mo.decomplexify(C) + mo.matmul(mo.decomplexify(Q), corr)


def corrected_coldet(C, Q, ds, sign):
    """The main theorem's left side, coldet_2n(C^R + Q^R CorrTriDiag(ds))."""
    return mo.coldet(corrected_matrix(C, Q, ds, sign))


def bar_factorized(A):
    """The main theorem's right side, coldet(A) coldet(bar A)."""
    return mo.coldet(A) * mo.coldet(mat_bar(A))


def _monomials(gens, max_degree):
    """Every monomial of total degree <= max_degree in the commuting
    variables, lowest degree first, each a ``weyl.GaussIntWeyl``."""
    for deg in range(max_degree + 1):
        for combo in combinations_with_replacement(gens.names, deg):
            exp = [combo.count(name) for name in gens.names]
            yield weyl.GaussIntWeyl(gens, {gens.key(exp, [0] * gens.n): 1}, {})


def operator_action_oracle(lhs, rhs):
    """Apply both sides, ``weyl.GaussIntWeyl`` values, to every monomial
    of total degree <= 2 in the commuting variables; True iff all
    actions agree, decided on ints."""
    return all(lhs.apply(p) == rhs.apply(p) for p in _monomials(lhs.gens, 2))


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def verify_classical_capelli(kind, n):
    """coldet(Z D^t + diag(n-1,...,0)) = det(Z) det(D^t) in the Weyl
    algebra; kind selects plain / turnbull / huks."""
    t0 = time.monotonic()
    require_size(n)
    shape = {"plain": "plain", "turnbull": "symmetric",
             "huks": "antisymmetric"}.get(kind)
    if shape is None:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "huks" and n % 2:
        raise ValueError("huks requires even n")
    ring, _, Z, D = classical_weyl(n, shape)
    # In the antisymmetric case the second factor is the antisymmetric
    # derivative matrix itself (its transpose is its negative, which
    # breaks the identity; n even keeps the determinants equal).
    Dt = D if shape == "antisymmetric" else mo.transpose(D)
    # coldet sides, which the benchmark's tracer counts, decided on ints
    lhs, rhs = (weyl.GaussIntWeyl.from_weyl(s) for s in (
        mo.coldet(mo.matmul(Z, Dt) + shift_diag(ring, capelli_shifts(n))),
        mo.coldet(Z) * mo.coldet(Dt)))
    notes = {"operator_oracle": operator_action_oracle(lhs, rhs)} if n <= 2 else {}
    return residual_report(
        f"capelli.{kind}", ring.name, {"n": n}, lhs, rhs, t0, notes=notes
    )


def _alt_reading_residual_zero(ZR, alt, corr, gens):
    """Residual-is-zero for the raw-transpose reading, by operator action
    on ints: scan the monomials of degree <= 3 for a distinguishing witness
    (proves nonzero), the left determinant acting unexpanded, and fall back
    to the full expansion only when no witness appears.  Both stay: the
    scan always finds a witness in the suite and costs about 2 ms at n = 2
    and 0.02 s at n = 3, while the expansion, the only proof of a zero
    residual, costs about 10 ms at n = 2 and 9-12 s (a 6x6 coldet) at n = 3."""
    lhsM = mo.matmul(ZR, alt) + corr
    zdet, ddet = mo.gauss_int_coldet(ZR), mo.gauss_int_coldet(alt)
    if not all(mo.gauss_int_coldet(lhsM, p) == zdet * ddet.apply(p)
               for p in _monomials(gens, 3)):
        return False
    return mo.gauss_int_coldet(lhsM) == zdet * ddet


def verify_decomplexified_capelli(kind, n, sign="plus"):
    """Decomplexified square Capelli: coldet_2n(Z^R (D^t)^R + CorrTriDiag) =
    coldet(Z^R) coldet((D^t)^R) over x_ij, y_ij, the sides of
    _decomplexified_sides at I = J = 1..n.

    "(D^t)^R" is decomplexify(transpose(D)) — transpose first, then
    decomplexify (decomplexification is a homomorphism, which is what
    the proof needs).  The raw-transpose reading
    transpose(decomplexify(D)) is also evaluated and its residual
    recorded in the notes.
    """
    t0 = time.monotonic()
    if kind == "antisymmetric" and n % 2:
        raise ValueError("antisymmetric requires even n")
    full = tuple(range(1, n + 1))
    ring, lhs, rhs = _decomplexified_sides(kind, n, full, full, sign)
    _, D, _, ZR, _, _ = _capelli_instance(kind, n)
    notes = {"raw_transpose_residual_zero": _alt_reading_residual_zero(
        ZR, mo.transpose(mo.decomplexify(D)),
        mo.corr_tridiag(ring, embed(ring, capelli_shifts(n)), sign), lhs.gens)}
    if n <= 2:
        notes["operator_oracle"] = operator_action_oracle(lhs, rhs)
    return residual_report(f"decomplex.square.{kind}", ring.name,
                           {"n": n, "sign": sign}, lhs, rhs, t0, notes=notes)


def verify_rectangular(kind, n, I, J):
    """Rectangular decomplexified Capelli / Turnbull: the sides of
    _decomplexified_sides at multi-indexes I, J of length r, with the
    correction sign plus.  The antisymmetric kind is conditional
    (evidence mode; no proof is known)."""
    t0 = time.monotonic()
    shape = {"capelli": "plain", "turnbull": "symmetric",
             "antisym-conditional": "antisymmetric"}.get(kind)
    if shape is None:
        raise ValueError(f"unknown kind {kind!r}")
    conditional = kind == "antisym-conditional"
    I, J = tuple(I), tuple(J)
    ring, lhs, rhs = _decomplexified_sides(shape, n, I, J, "plus")
    return residual_report(
        f"rect.{'antisym' if conditional else kind}", ring.name,
        {"n": n, "r": len(I), "I": list(I), "J": list(J), "sign": "plus"},
        lhs, rhs, t0, conditional=conditional)


def _decomplexified_sides(shape, n, I, J, sign):
    """(ring, lhs, rhs), ``weyl.GaussIntWeyl`` values, of the
    decomplexified Capelli identity at rows I, columns J (length r) of
    the cached (shape, n) instance, with Q_ab = delta_{i_a j_b}:
    coldet_2r((Z D^t)_IJ^R + Q^R CorrTriDiag(r)) =
    sum over 2r-subsets L of coldet(Z^R_{dI,L}) coldet((D^t)^R_{L,dJ}).
    I = J = 1..n is the square case (one L).  The left side is built at
    each call, so it reads capelli_shifts and corr_tridiag as they are."""
    # 0 < k_1 < ... < k_r < n + 1 for K = I and K = J
    if not I or len(J) != len(I) or not all(
            a < b for K in (I, J) for a, b in zip((0, *K), (*K, n + 1))):
        raise ValueError(f"need I, J strictly increasing in 1..{n}, of one length")
    ring, _, ZDt, _, _, _ = _capelli_instance(shape, n)
    Q = mo.submatrix(mo.identity(ring, n), I, J)
    lhs = mo.gauss_int_coldet(corrected_matrix(
        mo.submatrix(ZDt, I, J), Q, embed(ring, capelli_shifts(len(I))), sign))
    return ring, lhs, _cauchy_binet(shape, n, I, J)


@lru_cache(maxsize=9)  # three shapes at n <= 3; run --extended needs 7
def _capelli_instance(shape, n):
    """(ring, D, Z D^t, Z^R, (D^t)^R, minors): what every decomplexified
    Capelli identity of one (shape, n) shares, both signs and every
    (I, J) alike; minors is filled by _cauchy_binet."""
    ring, _, Z, D = complex_weyl(n, shape)
    Dt = D if shape == "antisymmetric" else mo.transpose(D)
    return (ring, D, mo.matmul(Z, Dt), mo.decomplexify(Z),
            mo.decomplexify(Dt), {})


def _cauchy_binet(shape, n, I, J):
    """Sum over 2r-subsets L of coldet(Z^R_{dI,L}) coldet((D^t)^R_{L,dJ}),
    as one GaussIntWeyl.  The minors are cached as mo.gauss_int_coldet
    returns them, and the numerators of the products a*b summed in one
    group per a.den*b.den; the sum lies over the lcm of those, and each
    other group is rescaled to it on ints as it is added."""
    _, _, _, ZR, DtR, minors = _capelli_instance(shape, n)

    def minor(M, rows, cols):  # M, ZR or DtR, lives as long as minors
        if (M, rows, cols) not in minors:
            minors[M, rows, cols] = mo.gauss_int_coldet(
                mo.submatrix(M, rows, cols))
        return minors[M, rows, cols]

    dI, dJ = mo.double_index(I), mo.double_index(J)
    groups = {}
    for L in mo.multi_indexes(2 * n, 2 * len(I)):
        a, b = minor(ZR, dI, L), minor(DtR, L, dJ)
        a.mul_into(b, groups.setdefault(a.den * b.den, ({}, {})))
    gens = ZR.ring.one.parent
    den = lcm(*groups)
    total = weyl.GaussIntWeyl(gens, *groups.pop(den, ({}, {})), den)
    for d, g in groups.items():  # total += (den // d) * g, key 0 the unit
        weyl.GaussIntWeyl(gens, {0: den // d}, {}).mul_into(
            weyl.GaussIntWeyl(gens, *g), total.terms)
    return total


def verify_thm_theor1(n):
    """Weak factorization: for a matrix of letters M_ij, Mb_ij where
    same-column letters commute and barred letters commute with
    unbarred ones, coldet(M^R) = coldet(M) coldet(Mb); plus a
    commutative complex Weyl 2x2 instance."""
    t0 = time.monotonic()
    require_size(n)
    plain = [f"M{i}{j}" for i, j in _index_pairs(n)]
    barred = [f"Mb{i}{j}" for i, j in _index_pairs(n)]
    # every barred letter commutes with every unbarred one, and letters
    # of one column commute with each other
    commuting = [*product(plain, barred), *(
        (f"{p}{a}{j}", f"{p}{b}{j}") for j in range(1, n + 1)
        for p in ("M", "Mb") for a, b in combinations(range(1, n + 1), 2))]
    policies = {frozenset(pair): "commute" for pair in commuting}
    table = swapalg.SwapTable(plain + barred, policies=policies,
                              bar_pairs=list(zip(plain, barred)))
    ring = table.ring()
    M = mo.matrix(
        ring,
        [[table.letter(f"M{i}{j}") for j in range(1, n + 1)] for i in range(1, n + 1)],
    )
    # commutative instance over the Weyl polynomial subring
    _, _, Z, _ = complex_weyl(2, "plain")
    commutative = (mo.coldet(mo.decomplexify(Z)) - bar_factorized(Z)).is_zero()
    return residual_report("factorization.weak", ring.name, {"n": n},
                           mo.coldet(mo.decomplexify(M)), bar_factorized(M), t0,
                           notes={"commutative_instance_zero": commutative},
                           holds=commutative)


# A pair (C, Q) over a barred ring for the main theorem, and its
# symbolic shifts d_n, ..., d_1: central generators or letters of the ring.
MainTheoremInstance = namedtuple("MainTheoremInstance", "name ring C Q ds")


def main_theorem_instances(n):
    require_size(n)
    names = [f"d{k}" for k in range(n, 0, -1)]
    if n == 1:
        gens = weyl.GeneratorSet(["x11", "y11", *names])
        ring = weyl.weyl_ring(gens)
        z, dz = weyl.complex_pair(gens, "11")
        ds = [weyl.WeylElement.variable(gens, d) for d in names]
        return [MainTheoremInstance("weyl-z-dz", ring, mo.matrix(ring, [[z]]),
                                    mo.matrix(ring, [[dz]]), ds)]
    spec, ring, E = gln_E_matrix(n, doubled=True, central=names)
    return [MainTheoremInstance(f"doubled-gl{n}", ring, E, mo.identity(ring, n),
                                [spec.generator(d) for d in names])]


def verify_main_theorem(instance, ds, sign="plus"):
    """coldet_2n(C^R + Q^R CorrTriDiag) =
    coldet(C + Q diag(d_n,...,d_1)) coldet(bar C + bar Q diag(...)).

    ds, central elements of the instance's ring, is the displayed block
    order (d_n first); preconditions — the factorization relations and
    bar-commutation — are checked first."""
    t0 = time.monotonic()
    ring, C, Q = instance.ring, instance.C, instance.Q
    pre_rel = check_factorization_relations(C, Q)
    pre_bar = check_bar_commuting(C, Q)
    lhs = corrected_coldet(C, Q, ds, sign)
    rhs = bar_factorized(C + mo.matmul(Q, mo.diag(ring, ds)))
    return residual_report(
        "factorization.main", ring.name,
        {"n": C.rows, "instance": instance.name,
         "ds": [d.render() for d in ds], "sign": sign},
        lhs, rhs, t0, notes={"relations_hold": pre_rel, "bar_commuting": pre_bar},
        holds=pre_rel and pre_bar)


def verify_holfact_capelli(n, sign="plus"):
    """Holomorphic factorization of the Capelli determinant, abstract
    in U(gl_n (+) gl_n-bar):
    coldet_2n(E^R + CorrTriDiag) =
    coldet(E + diag(n-1,...,0)) coldet(Eb + diag(n-1,...,0))."""
    t0 = time.monotonic()
    require_size(n)
    spec, ring, E = gln_E_matrix(n, doubled=True)
    shifts = embed(ring, capelli_shifts(n))
    lhs = corrected_coldet(E, mo.identity(ring, n), shifts, sign)
    rhs = bar_factorized(E + mo.diag(ring, shifts))
    return residual_report(
        "factorization.capelli", ring.name, {"n": n, "sign": sign}, lhs, rhs, t0
    )


def verify_holfact_general(n, truncate=None):
    """The global-cancellation core of holomorphic factorization: in the
    Grassmann algebra on psi_1..psi_n, psib_1..psib_n with symbolic
    commuting entries C1, C2 and symbolic holomorphic corrections b,
    prod_k [(1/(-2i)) psi^C1_k psib^C2_k + sum_pq b_kpq psi_p psi_q]
    equals prod_k (1/(-2i)) psi^C1_k psib^C2_k.

    With truncate = m < n, returns the truncated difference instead —
    it must be NONZERO (the cancellation is global, not termwise).
    """
    t0 = time.monotonic()
    require_size(n)
    host_names = (
        [f"u{k}{i}" for k in range(1, n + 1) for i in range(1, n + 1)]
        + [f"v{k}{i}" for k in range(1, n + 1) for i in range(1, n + 1)]
        + [f"w{k}{p}{q}" for k in range(1, n + 1)
           for p in range(1, n + 1) for q in range(1, n + 1) if p != q]
    )
    gens = weyl.GeneratorSet(host_names)
    host = weyl.weyl_ring(gens)
    alg = swapalg.ExteriorAlgebra(2 * n, host)
    half_i = GaussianRational(0, Fraction(1, 2))  # 1/(-2i)
    factors, firsts = [], []
    for k in range(1, n + 1):
        psiC1 = alg.zero()
        psiC2 = alg.zero()
        for i in range(1, n + 1):
            psiC1 = psiC1 + alg.psi(i - 1) * alg.from_host(
                weyl.WeylElement.variable(gens, f"u{i}{k}")
            )
            psiC2 = psiC2 + alg.psi(n + i - 1) * alg.from_host(
                weyl.WeylElement.variable(gens, f"v{i}{k}")
            )
        first = (psiC1 * psiC2).scale(half_i)
        hol = alg.zero()
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if p == q:
                    continue
                hol = hol + alg.psi(p - 1) * alg.psi(q - 1) * alg.from_host(
                    weyl.WeylElement.variable(gens, f"w{k}{p}{q}")
                )
        factors.append(first + hol)
        firsts.append(first)
    m = truncate if truncate is not None else n
    full = alg.one()
    pure = alg.one()
    for k in range(m):
        full = full * factors[k]
        pure = pure * firsts[k]
    diff = full - pure
    if truncate is None:
        ok = diff.is_zero()
        detail = "" if ok else "global cancellation failed"
    else:
        ok = not diff.is_zero()
        detail = "" if ok else "truncated defect unexpectedly zero"
    return bool_report(
        "factorization.global-cancellation",
        host.name,
        {"n": n, "truncate": truncate},
        ok,
        t0,
        detail=detail,
        notes={"truncated_defect_nonzero": bool(truncate and ok)},
    )


def verify_local_factorization(sign="plus"):
    """The local engine of the main theorem's proof: both psi/phi
    propositions symbolically in a, b, c, d, k plus the corollary for
    the given sign variant."""
    t0 = time.monotonic()
    hol = swapalg.check_holfactpsi("hol")
    antihol = swapalg.check_holfactpsi("antihol")
    cor = swapalg.check_coronfact(sign)
    ok = hol["ok"] and antihol["ok"] and cor["ok"]
    return bool_report(
        "factorization.local",
        "swap(psi,phi,psi_bar,phi_bar)",
        {"sign": sign},
        ok,
        t0,
        detail="" if ok else "local factorization check failed",
        notes={
            "holfactpsi": hol,
            "holfactpsi_mod_antihol": antihol,
            "coronfact": {
                k: v for k, v in cor.items() if k not in ("ok",)
            },
        },
    )


def verify_css_capelli(css_kind, n, sign="plus"):
    """Decomplexified CSS Capelli: coldet_2n(M^R Y^R + Q^R CorrTriDiag) =
    coldet(M^R) coldet(Y^R); at n >= 2 the sides of the square
    decomplexified identity (plain for css, symmetric for tcss), for
    n = 1 the degenerate case with an arbitrary (unconstrained) Q."""
    t0 = time.monotonic()
    if css_kind not in CSS_SHAPES:
        raise ValueError(f"unknown CSS kind {css_kind!r}")
    notes = {}
    if n == 1:
        ring, gens, M, Y, Q = css_instance("css-n1", 1)
        notes["preconditions"] = {"bar_commuting": check_bar_commuting(M, Y, Q)}
        lhs = mo.gauss_int_coldet(corrected_matrix(
            mo.matmul(M, Y), Q, embed(ring, capelli_shifts(n)), sign))
        rhs = mo.gauss_int_coldet(mo.decomplexify(M)) * \
            mo.gauss_int_coldet(mo.decomplexify(Y))
    else:
        ring, gens, M, Y, Q = css_instance(css_kind, n)
        if css_kind == "css":
            cond = check_css(M, Y, Q) and check_manin(M)
        else:
            ok_t, h = check_tcss(M, Y)
            cond = ok_t and all(
                (Q.entries[i][j] - (h if i == j else ring.zero)).is_zero()
                for i in range(n) for j in range(n)
            )
        notes["preconditions"] = {
            "css_conditions": cond,
            "column_commuting_Y": check_column_commuting(Y),
            "bar_commuting": check_bar_commuting(M, Y, Q),
        }
        full = tuple(range(1, n + 1))
        _, lhs, rhs = _decomplexified_sides(
            CSS_SHAPES[css_kind], n, full, full, sign)
    return residual_report(f"css.capelli.{css_kind if n > 1 else 'n1'}",
                           ring.name, {"n": n, "sign": sign}, lhs, rhs, t0,
                           notes=notes, holds=all(notes["preconditions"].values()))


def verify_implications(n):
    """(T/G)CSS conditions imply the main theorem's factorization
    relations for C = MY (n > 1), and the GCSS first relation
    (psi^C_k)^2 = psi^C_k psi^Q_k holds in the exterior layer."""
    t0 = time.monotonic()
    require_size(n, 2)
    results = {}
    ring, gens, M, Y, Q = css_instance("css", n)
    results["css_holds"] = check_css(M, Y, Q)
    C = mo.matmul(M, Y)
    results["css_implies_relations"] = check_factorization_relations(C, Q)
    results["gcss_holds"] = check_gcss(M, Y, Q)
    alg = swapalg.ExteriorAlgebra(n, ring)
    psiC = [swapalg.psi_M(alg, C, k) for k in range(n)]
    psiQ = [swapalg.psi_M(alg, Q, k) for k in range(n)]
    results["gcss_first_relation"] = all(
        (psiC[k] * psiC[k] - psiC[k] * psiQ[k]).is_zero() for k in range(n)
    )
    tring, tgens, tM, tY, tQ = css_instance("tcss", n)
    ok_t, h = check_tcss(tM, tY)
    results["tcss_holds"] = ok_t
    results["tcss_implies_relations"] = check_factorization_relations(
        mo.matmul(tM, tY), tQ
    )
    ok = all(results.values())
    return bool_report(
        "css.implications",
        ring.name,
        {"n": n},
        ok,
        t0,
        detail="" if ok else f"failed: {[k for k, v in results.items() if not v]}",
        notes={**results, "n1_excluded": True},
    )


def verify_capelli_center(n):
    """All u-coefficients C_k of coldet(E + diag(n-1,...,0) + u) are
    central in U(gl_n); u is a central letter of the algebra."""
    t0 = time.monotonic()
    require_size(n)
    spec, ring, E = gln_E_matrix(n, central="u")
    u = spec.generator("u")
    shifted = E + mo.diag(
        ring, [s + u for s in embed(ring, capelli_shifts(n))])
    det = mo.coldet(shifted)
    parts = det.split_by_letter("u")
    central = {e: pbw.is_central(x) for e, x in sorted(parts.items())}
    ok = all(central.values())
    return bool_report(
        "center.capelli",
        ring.name,
        {"n": n},
        ok,
        t0,
        detail="" if ok else f"non-central coefficients at u^{[e for e, v in central.items() if not v]}",
        notes={"central_by_degree": {str(e): v for e, v in central.items()}},
    )


def verify_hc_image(n):
    """Harish-Chandra image of the shifted Capelli determinant:
    hc(coldet(E + diag(n-1,...,0) - (n-1)/2)) =
    prod_i (lam_i + (n+1-2i)/2), exactly as a polynomial in lam."""
    t0 = time.monotonic()
    require_size(n)
    spec, ring, E = gln_E_matrix(n)
    half = GaussianRational(Fraction(n - 1, 2))
    shifted = E + shift_diag(ring, [s - half for s in capelli_shifts(n)])
    image = pbw.hc_projection(mo.coldet(shifted))
    one = weyl.WeylElement.one(image.parent)
    expected = one
    for i in range(1, n + 1):
        expected = expected * (weyl.WeylElement.variable(image.parent, f"lam{i}")
                               + one.scale(Fraction(n + 1 - 2 * i, 2)))
    return residual_report(
        "center.hc", ring.name, {"n": n}, image, expected, t0
    )


# ---------------------------------------------------------------------------
# Cross-engine random oracles
# ---------------------------------------------------------------------------

def _random_coefficient(rng, gaussian=True):
    return GaussianRational(rng.randint(-3, 3),
                            rng.randint(-2, 2) if gaussian else 0)


def _random_weyl(rng, gens):
    """A sum of two random monomials of degree <= 1 in each generator."""
    out = weyl.WeylElement.zero(gens)
    for _ in range(2):
        v = tuple(rng.randint(0, 1) for _ in range(gens.n))
        u = tuple(rng.randint(0, 1) for _ in range(gens.n))
        c = _random_coefficient(rng)
        if c.is_zero():
            c = G_ONE
        out = out + weyl.WeylElement(gens, {gens.key(v, u): c})
    return out


def _random_entry_engines(rng):
    """(ring, random entry) for each engine the coldet oracle covers:
    scalar, Weyl, PBW gl_2 and swap."""
    scalar = weyl.weyl_ring(weyl.GeneratorSet([]))
    gens = weyl.GeneratorSet(["x1", "x2", "x3"])
    g2 = pbw.build_gln(2)
    pring = g2.ring()
    table = swapalg.SwapTable(
        ["p", "q", "r"],
        policies={frozenset({"p", "q"}): "anticommute",
                  frozenset({"q", "r"}): "commute",
                  frozenset({"p", "r"}): "commute"},
    )
    return [
        (scalar, lambda: scalar.one.scale(_random_coefficient(rng))),
        (weyl.weyl_ring(gens), lambda: _random_weyl(rng, gens)),
        (pring, lambda: g2.generator(rng.choice(g2.basis)).scale(
            _random_coefficient(rng, gaussian=False)
        ) + pring.one.scale(_random_coefficient(rng))),
        (table.ring(), lambda: table.letter(rng.choice(table.letters)).scale(
            _random_coefficient(rng))),
    ]


def _oracle_report(name, ring_name, count, trial, t0):
    """Run trial(0), ..., trial(count - 1); the report fails at the
    first trial that returns False."""
    bad = next((k for k in range(count) if not trial(k)), None)
    return bool_report(name, ring_name, {"count": count}, bad is None, t0,
                       detail=f"disagreement at trial {bad}")


def _random_matrix(ring, entry, size):
    return mo.matrix(ring, [[entry() for _ in range(size)] for _ in range(size)])


def verify_oracle_coldet():
    """coldet (Laplace) vs the reference coldet_permutations on random
    matrices over all engines: scalar, Weyl, PBW and swap."""
    t0 = time.monotonic()
    engines = _random_entry_engines(random.Random(2026))

    def trial(k):
        M = _random_matrix(*engines[k % 4], 2 + k % 2)
        return (mo.coldet(M) - mo.coldet_permutations(M)).is_zero()

    return _oracle_report("oracle.coldet", "mixed", 200, trial, t0)


def verify_oracle_topform():
    """Grassmann top-form lemma: prod_k psi^M_k = coldet(M) psi_top for
    random Weyl-entry matrices of size up to 3."""
    t0 = time.monotonic()
    rng = random.Random(2027)
    gens = weyl.GeneratorSet(["x1", "x2"])
    ring = weyl.weyl_ring(gens)

    def trial(k):
        size = 1 + k % 3
        M = _random_matrix(ring, lambda: _random_weyl(rng, gens), size)
        alg = swapalg.ExteriorAlgebra(size, ring)
        prod = alg.one()
        for col in range(size):
            prod = prod * swapalg.psi_M(alg, M, col)
        det = mo.coldet(M)
        want = alg.zero() if det.is_zero() else \
            swapalg.ExteriorElement(alg, {alg.top_mask(): det})
        return (prod - want).is_zero()

    return _oracle_report("oracle.topform", ring.name, 100, trial, t0)


def verify_oracle_decomplexify():
    """Decomplexification is a homomorphism: Id^R = Id, and
    (M N)^R = M^R N^R and (M + N)^R = M^R + N^R on random complex-entry
    Weyl matrices."""
    t0 = time.monotonic()
    rng = random.Random(2028)
    gens = weyl.GeneratorSet(["x1", "y1", "x2", "y2"])
    ring = weyl.weyl_ring(gens)
    R = mo.decomplexify

    def is_zero(P):
        return all(e.is_zero() for row in P.entries for e in row)

    if not is_zero(R(mo.identity(ring, 2)) - mo.identity(ring, 4)):
        return bool_report("oracle.decomplexify", ring.name, {"count": 100},
                           False, t0, detail="Id^R != Id")

    def trial(k):
        M, N = (_random_matrix(ring, lambda: _random_weyl(rng, gens), 1 + k % 2)
                for _ in range(2))
        RM, RN = R(M), R(N)
        return (is_zero(R(mo.matmul(M, N)) - mo.matmul(RM, RN))
                and is_zero(R(M + N) - (RM + RN)))

    return _oracle_report("oracle.decomplexify", ring.name, 100, trial, t0)


# ---------------------------------------------------------------------------
# Sweep table (consumed by the CLI)
# ---------------------------------------------------------------------------

class Sweep(namedtuple("Sweep", "cases lo cap over extended_cap per_sign",
                       defaults=(0, None, False))):
    """The cases one verifier id runs under a CLI config
    {"max_n", "signs", "extended"}.

    n runs over lo..min(max_n + over, cap), with cap replaced by
    extended_cap under --extended (max_n >= 1, so a range with
    over >= cap - 1 does not depend on max_n).  ``cases(n, sign)``
    returns the reports of one n, once per selected correction sign when
    per_sign is set (sign is None otherwise)."""

    __slots__ = ()

    def __call__(self, config):
        cap = (self.extended_cap or self.cap) if config["extended"] else self.cap
        if not self.per_sign:
            signs = (None,)
        elif config["signs"] == "both":
            signs = ("plus", "minus")
        else:
            signs = (config["signs"],)
        return [report
                for n in range(self.lo, min(config["max_n"] + self.over, cap) + 1)
                for sign in signs
                for report in self.cases(n, sign)]


def _rect_cases(kind, n, rs=(1, 2)):
    """Every (I, J) with |I| = |J| = r, for each r in rs."""
    return [verify_rectangular(kind, n, I, J) for r in rs
            for I in mo.multi_indexes(n, r) for J in mo.multi_indexes(n, r)]


def _main_cases(n, sign):
    """The Weyl n = 1 instance at a symbolic d1 and at d1 = 0; the
    doubled gl_2 instance at symbolic (d2, d1)."""
    return [verify_main_theorem(inst, ds, sign)
            for inst in main_theorem_instances(n)
            for ds in ([inst.ds, [inst.ring.zero]] if n == 1 else [inst.ds])]


# The Cayley verifiers build on the instance and report builders above,
# so the module joins the table only once those exist.
from . import cayley  # noqa: E402

# Every verifier id.  The cases look their verifiers up at call time, so a
# patched module function (a tracer, a stub) is the one that runs.
REGISTRY = {
    "capelli.plain": Sweep(
        lambda n, _: [verify_classical_capelli("plain", n)], lo=1, cap=3),
    "capelli.turnbull": Sweep(
        lambda n, _: [verify_classical_capelli("turnbull", n)], lo=1, cap=3),
    "capelli.huks": Sweep(
        lambda n, _: [verify_classical_capelli("huks", n)], lo=2, cap=2),
    "decomplex.square.plain": Sweep(
        lambda n, sign: [verify_decomplexified_capelli("plain", n, sign)],
        lo=1, cap=2, extended_cap=3, per_sign=True),
    "decomplex.square.symmetric": Sweep(
        lambda n, sign: [verify_decomplexified_capelli("symmetric", n, sign)],
        lo=1, cap=2, extended_cap=3, per_sign=True),
    "decomplex.square.antisymmetric": Sweep(
        lambda n, sign: [verify_decomplexified_capelli("antisymmetric", n, sign)],
        lo=2, cap=2, per_sign=True),
    "rect.capelli": Sweep(lambda n, _: _rect_cases("capelli", n), lo=2, cap=3),
    "rect.turnbull": Sweep(lambda n, _: _rect_cases("turnbull", n), lo=2, cap=3),
    "rect.antisym": Sweep(
        lambda n, _: _rect_cases("antisym-conditional", n, rs=(1,)),
        lo=2, cap=2),
    "factorization.weak": Sweep(
        lambda n, _: [verify_thm_theor1(n)], lo=2, cap=3, over=1),
    "factorization.main": Sweep(_main_cases, lo=1, cap=2, per_sign=True),
    "factorization.capelli": Sweep(
        lambda n, sign: [verify_holfact_capelli(n, sign)],
        lo=1, cap=2, per_sign=True),
    "factorization.local": Sweep(
        lambda _, sign: [verify_local_factorization(sign)],
        lo=1, cap=1, per_sign=True),
    "factorization.global-cancellation": Sweep(
        lambda n, _: [verify_holfact_general(n, m) for m in (None, *range(1, n))],
        lo=2, cap=3, over=2),
    "css.capelli": Sweep(
        lambda n, sign: [verify_css_capelli(kind, n, sign)
                         for kind in (("css",) if n == 1 else ("css", "tcss"))],
        lo=1, cap=2, per_sign=True),
    "css.implications": Sweep(
        lambda n, _: [verify_implications(n)], lo=2, cap=3, over=1),
    "center.capelli": Sweep(
        lambda n, _: [verify_capelli_center(n)], lo=2, cap=3, over=1),
    "center.hc": Sweep(lambda n, _: [verify_hc_image(n)], lo=1, cap=3, over=1),
    "oracle.coldet": Sweep(lambda *_: [verify_oracle_coldet()], lo=1, cap=1),
    "oracle.topform": Sweep(lambda *_: [verify_oracle_topform()], lo=1, cap=1),
    "oracle.decomplexify": Sweep(
        lambda *_: [verify_oracle_decomplexify()], lo=1, cap=1),
    "cayley.scalar": Sweep(
        lambda n, _: [cayley.verify_cayley_scalar(n)],
        lo=1, cap=3, over=2, extended_cap=4),
    "cayley.decomplexified": Sweep(
        lambda n, _: [cayley.verify_cayley_decomplexified(n)], lo=1, cap=2),
    "cayley.quaternion": Sweep(
        lambda n, _: [cayley.quaternion_commutation_check(n)] + (
            [cayley.verify_cayley_quaternion(kind, n)
             for kind in ("complexForm", "realForm")] if n == 1 else []),
        lo=1, cap=2),
    "cayley.radial": Sweep(
        lambda n, _: [cayley.radial_identity(n, s) for s in range(1, 5)] + (
            [cayley.radial_gl2_report()] if n == 2 else []),
        lo=1, cap=4, over=3),
}
