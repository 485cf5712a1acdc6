"""Matrices over any ring satisfying the ring contract.

Provides the column determinant (a Laplace recursion that computes each
minor once, with a permutation expansion kept as its reference),
decomplexification, the CorrTriDiag correction blocks and the
multi-index machinery used by the rectangular identities.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm, prod
from operator import add, sub

from .ringapi import im_part, re_part
from .scalars import G_I_QUARTER, G_QUARTER, require_same_parent
from .weyl import GaussIntWeyl, WeylElement


class RingMatrix:
    """Dense row-major matrix over a single ring instance."""

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    def _entrywise(self, other, op):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return RingMatrix(self.ring, [
            [op(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __repr__(self):
        return f"<RingMatrix {self.rows}x{self.cols} over {self.ring.name}>"


def matrix(ring, entries):
    return RingMatrix(ring, entries)


def identity(ring, n):
    return diag(ring, [ring.one] * n)


def diag(ring, values):
    n = len(values)
    return RingMatrix(
        ring,
        [[values[i] if i == j else ring.zero for j in range(n)] for i in range(n)],
    )


def transpose(M):
    return RingMatrix(
        M.ring, [[M.entries[i][j] for i in range(M.rows)] for j in range(M.cols)]
    )


def matmul(A, B):
    """Matrix product; entry products multiply A-entry on the left."""
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    zero = A.ring.zero
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = zero
            for k in range(A.cols):
                acc = acc + A.entries[i][k] * B.entries[k][j]
            row.append(acc)
        out.append(row)
    return RingMatrix(A.ring, out)


def coldet(M):
    """Column determinant: sum over permutations sigma of
    sgn(sigma) * M[sigma(1),1] * M[sigma(2),2] * ... with the products
    taken column by column, left to right (see _laplace).  A Weyl matrix
    expands on Python ints (gauss_int_coldet)."""
    one = M.ring.one
    if not isinstance(one, WeylElement):
        return _laplace(M, one, type(one).mul_into)
    return gauss_int_coldet(M).to_weyl()


def gauss_int_coldet(M, p=None):
    """coldet(M) as a GaussIntWeyl, for a Weyl matrix M, or its action on
    the GaussIntWeyl polynomial p, never expanded: column j is scaled by
    the lcm D_j of its values' denominators into Gaussian integers, and
    the result lies over the product of the D_j and p.den (see _laplace)."""
    scales = [lcm(*(c.d for row in M.entries for c in row[j].terms.values()))
              for j in range(M.cols)]
    scaled = RingMatrix(M.ring, [
        [GaussIntWeyl.from_weyl(e, D) for e, D in zip(row, scales)]
        for row in M.entries])
    gens = M.ring.one.parent
    if p is None:
        p, act = GaussIntWeyl(gens, {0: 1}, {}), GaussIntWeyl.mul_into
    else:
        require_same_parent(gens, p.gens)
        act = GaussIntWeyl.apply_into
    det = _laplace(scaled, p, act)
    return GaussIntWeyl(gens, *det.terms, prod(scales) * p.den)


# perfbench/spans.py traces this name; it is coldet itself.
coldet_laplace = coldet


def coldet_permutations(M):
    """The column determinant by depth-first permutation expansion over
    columns with shared prefix products: the independent reference that
    oracle.coldet and the tests check coldet against."""
    if M.rows != M.cols:
        raise ValueError("coldet requires a square matrix")
    n = M.rows
    ring = M.ring
    if n == 0:
        return ring.one
    entries = M.entries
    total = [ring.zero]

    def walk(col, used, acc, sign):
        if col == n:
            total[0] = total[0] + (acc if sign > 0 else -acc)
            return
        for row in range(n):
            bit = 1 << row
            if used & bit:
                continue
            e = entries[row][col]
            if e.is_zero():
                continue
            # parity flips once per already-used row above this one
            flips = bin(used >> (row + 1)).count("1")
            walk(col + 1, used | bit, acc * e, -sign if flips & 1 else sign)

    walk(0, 0, ring.one, 1)
    return total[0]


def _laplace(M, leaf, act):
    """Laplace recursion along the first column, built bottom-up: the
    minor on no rows is ``leaf``, and an entry e enters its column's
    expansion through ``act(e, minor, out, negate)``, which adds e acting
    on the minor, negated at odd rows, into ``out``, the ``terms`` of a
    new minor ``leaf._new({})``.  Entries and minors are false when zero.
    With ``leaf`` the unit and ``act`` the element class's ``mul_into``
    this is the column determinant; with a ``GaussIntWeyl`` polynomial
    and ``GaussIntWeyl.apply_into`` it is the determinant's action on
    that polynomial, the entry of the first column acting last
    (``gauss_int_coldet(M, p)``).

    The minors of one column are computed from those of the next and
    then replace them, so only two columns of minors are ever held.
    A Weyl entry adds each product term straight into the new minor's
    dict, in place: no per-term dict, no product of the whole entry and
    no copy of the sum sit beside it (this bounds peak memory).  Other
    rings add each entry's product (see ``SparseElement.mul_into``).

    Column scaling (``gauss_int_coldet``): the column determinant is
    linear in each column, since every term takes exactly one entry from
    each column, and a scalar D_j is central, so it moves out of any
    product.  So coldet(M with column j times D_j) =
    D_j coldet(M), and with every column j scaled by the lcm D_j of its
    denominators, coldet(M) is the scaled determinant, computed exactly
    in Z[i], divided by the product of the D_j.  Its action on p is
    linear in p too, so a leaf p = P / p.den adds the factor p.den.
    """
    if M.rows != M.cols:
        raise ValueError("coldet requires a square matrix")
    n = M.rows
    entries = M.entries
    minors = {(): leaf}  # surviving rows -> minor on columns col..n-1
    for col in range(n - 1, -1, -1):
        bigger = {}
        for rows in combinations(range(n), n - col):
            minor = leaf._new({})
            out = minor.terms
            for pos, row in enumerate(rows):
                e = entries[row][col]
                sub = minors[rows[:pos] + rows[pos + 1 :]]
                if e and sub:
                    act(e, sub, out, pos % 2)
            bigger[rows] = minor
        minors = bigger
    return minors[tuple(range(n))]


def decomplexify(M):
    """Real form M^R: each entry m becomes the 2x2 block
    [[Re m, Im m], [-Im m, Re m]]; a ring without a bar raises
    TypeError from ``bar()``."""
    out = [[None] * (2 * M.cols) for _ in range(2 * M.rows)]
    for i in range(M.rows):
        for j in range(M.cols):
            m = M.entries[i][j]
            r = re_part(m)
            s = im_part(m)
            out[2 * i][2 * j] = r
            out[2 * i][2 * j + 1] = s
            out[2 * i + 1][2 * j] = -s
            out[2 * i + 1][2 * j + 1] = r
    return RingMatrix(M.ring, out)


def corr_tridiag(ring, ds, sign="plus"):
    """The 2x2-block-diagonal correction of the main theorem:
    k-th block [[d_k + 1/4, ±i/4], [±i/4, d_k - 1/4]], blocks listed in
    the displayed order d_n, d_(n-1), ..., d_1 (``ds`` is that list of
    central elements of the ring)."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    quarter = ring.one.scale(G_QUARTER)
    ioff = ring.one.scale(G_I_QUARTER if sign == "plus" else -G_I_QUARTER)
    n = len(ds)
    out = [[ring.zero] * (2 * n) for _ in range(2 * n)]
    for k, d in enumerate(ds):
        out[2 * k][2 * k] = d + quarter
        out[2 * k][2 * k + 1] = ioff
        out[2 * k + 1][2 * k] = ioff
        out[2 * k + 1][2 * k + 1] = d - quarter
    return RingMatrix(ring, out)


def submatrix(M, I, J):
    """Rows I, columns J (1-based strictly increasing multi-indexes)."""
    for i in I:
        if not 1 <= i <= M.rows:
            raise IndexError(f"row index {i} out of bounds")
    for j in J:
        if not 1 <= j <= M.cols:
            raise IndexError(f"column index {j} out of bounds")
    return RingMatrix(
        M.ring, [[M.entries[i - 1][j - 1] for j in J] for i in I]
    )


def double_index(I):
    """double(I) = (2i-1, 2i : i in I): selects the complex blocks of M^R."""
    out = []
    for i in I:
        out.extend((2 * i - 1, 2 * i))
    return tuple(out)


def multi_indexes(n, r):
    """All strictly increasing 1-based multi-indexes of length r in 1..n."""
    return [tuple(c) for c in combinations(range(1, n + 1), r)]
