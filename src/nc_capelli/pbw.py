"""Universal-enveloping-algebra engine.

PBW normal form from structure constants, builders for gl_n and the
doubled gl_n (+) gl_n-bar, Harish-Chandra projection and centrality
checking.  PBW straightening is the swap-table normalizer of
:mod:`swapalg` with one rule e_u e_v -> e_v e_u + [e_u, e_v] per descent
u > v (the reduction system of Bergman's diamond lemma), so monomials
are nondecreasing words over the ordered basis and the straightening of
shared words is memoized per algebra.  A spec is validated like every
swap table, by the overlap test on its letter triples; for bracket rules
that test is the Jacobi identity, so a bracket table that breaks it
raises :class:`swapalg.NonConfluentTable` at construction.  A central
parameter (the Capelli ``u``, a shift d_k) is a basis letter with zero
brackets, placed after the gl_n letters, so it ends every word.
"""

from __future__ import annotations

from itertools import groupby

from . import weyl
from .scalars import G_ONE, G_ZERO
from .swapalg import SwapElement, SwapTable


def _powers(word):
    """(letter, exponent) pairs of a nondecreasing word."""
    return ((g, len(tuple(run))) for g, run in groupby(word))


class PbwElement(SwapElement):
    """Sparse sum of PBW monomials (nondecreasing words) over a spec."""

    __slots__ = ()

    def split_by_letter(self, name):
        """{e: the part of self of degree e in the letter ``name``, with
        that letter taken out of its words}.  For a central letter, which
        ends every word it occurs in, the rest of a word stays normal."""
        g = self.table.index[name]
        out = {}
        for word, c in self.terms.items():
            rest = tuple(k for k in word if k != g)
            out.setdefault(len(word) - len(rest), {})[rest] = c
        return {e: self._new(t) for e, t in out.items()}

    def _render_order(self):
        n = len(self.table.letters)

        def degree_and_exponents(word):
            exp = [0] * n
            for g in word:
                exp[g] += 1
            return len(word), exp

        return sorted(self.terms, key=degree_and_exponents, reverse=True)

    def _render_monomial(self, word):
        basis = self.table.letters
        return "*".join(basis[g] if e == 1 else f"{basis[g]}^{e}"
                        for g, e in _powers(word))


class LieAlgebraSpec(SwapTable):
    """Ordered basis plus structure constants [e_u, e_v] for u > v.

    brackets: dict (u, v) -> dict w -> GaussianRational, for u > v in the
    basis order; [e_v, e_u] is the negation, [e_u, e_u] = 0.  They are
    read once into the rules e_u e_v -> e_v e_u + [e_u, e_v].
    bar_pairs: as for :class:`SwapTable`, the bar involution.
    """

    element = PbwElement

    def __init__(self, basis, brackets, bar_pairs=None, gln_meta=None):
        basis = tuple(basis)
        if not all(u > v for u, v in brackets):
            raise ValueError("brackets must be keyed by (u, v) with u > v")
        rules = {
            (basis[u], basis[v]): [(G_ONE, (basis[v], basis[u]))] + [
                (c, (basis[w],)) for w, c in brackets.get((u, v), {}).items()
                if not c.is_zero()
            ]
            for u in range(len(basis)) for v in range(u)
        }
        super().__init__(basis, extra_rules=rules, bar_pairs=bar_pairs)
        self.basis = self.letters
        self.name = f"pbw({len(basis)} gens)"
        self.gln_meta = gln_meta  # {"n", "lowering", "cartan", "raising"}

    generator = SwapTable.letter
    # perfbench/spans.py traces this name; it is normalize itself.
    straighten = SwapTable.normalize


# ---------------------------------------------------------------------------
# gl_n builders
# ---------------------------------------------------------------------------

def _gln_order(n, fmt):
    """Basis order: lowering E_ij (i>j) first, Cartan E_ii, raising last."""
    lowering = [fmt(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i > j]
    cartan = [fmt(i, i) for i in range(1, n + 1)]
    raising = [fmt(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i < j]
    return lowering, cartan, raising


def _gln_brackets(n, index, fmt):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj, keyed for u > v."""
    brackets = {}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for (i, j) in pairs:
        u = index[fmt(i, j)]
        for (k, l) in pairs:
            v = index[fmt(k, l)]
            if u <= v:
                continue
            vec = {}
            if j == k:
                w = index[fmt(i, l)]
                vec[w] = vec.get(w, G_ZERO) + G_ONE
            if l == i:
                w = index[fmt(k, j)]
                vec[w] = vec.get(w, G_ZERO) - G_ONE
            vec = {w: c for w, c in vec.items() if not c.is_zero()}
            if vec:
                brackets[(u, v)] = vec
    return brackets


def build_gln(n, central=()):
    """U(gl_n): n^2 generators E<i><j> in the triangular order, then the
    central letters named in ``central``."""
    fmt = lambda i, j: f"E{i}{j}"
    lowering, cartan, raising = _gln_order(n, fmt)
    basis = lowering + cartan + raising + list(central)
    index = {name: k for k, name in enumerate(basis)}
    meta = {
        "n": n,
        "lowering": frozenset(index[x] for x in lowering),
        "cartan": {index[fmt(i, i)]: i for i in range(1, n + 1)},
        "raising": frozenset(index[x] for x in raising),
    }
    return LieAlgebraSpec(basis, _gln_brackets(n, index, fmt), gln_meta=meta)


def build_doubled_gln(n, central=()):
    """U(gl_n (+) gl_n-bar): generators E<i><j> and Eb<i><j>, then the
    central letters named in ``central``; the two copies commute; bar
    swaps the copies, fixes the central letters and conjugates
    coefficients."""
    fmt = lambda i, j: f"E{i}{j}"
    fmtb = lambda i, j: f"Eb{i}{j}"
    lo, ca, ra = _gln_order(n, fmt)
    lob, cab, rab = _gln_order(n, fmtb)
    basis = lo + ca + ra + lob + cab + rab + list(central)
    index = {name: k for k, name in enumerate(basis)}
    brackets = dict(_gln_brackets(n, index, fmt))
    brackets.update(_gln_brackets(n, index, fmtb))
    bar_pairs = [(fmt(i, j), fmtb(i, j))
                 for i in range(1, n + 1) for j in range(1, n + 1)]
    meta = {"n": n, "doubled": True}
    return LieAlgebraSpec(basis, brackets, bar_pairs=bar_pairs, gln_meta=meta)


def hc_projection(x):
    """Harish-Chandra projection: keep PBW terms with no raising and no
    lowering factors, sending each Cartan power E_ii^m to lam<i>^m, a
    Weyl polynomial over the generators lam1, ..., lamn and then one
    generator per central letter, of the same name.

    For central x this is the eigenvalue on the highest-weight Verma
    vector (the raising part on the right annihilates the vector; terms
    with a lowering factor move off the highest-weight line).  For
    non-central x it is still the triangular projection.
    """
    meta = x.table.gln_meta
    if not meta or "cartan" not in meta:
        raise TypeError("hc_projection needs a gl_n algebra")
    lowering, cartan, raising = meta["lowering"], meta["cartan"], meta["raising"]
    basis, n = x.table.basis, meta["n"]
    central = [g for g in range(len(basis))
               if g not in lowering and g not in raising and g not in cartan]
    gens = weyl.GeneratorSet([f"lam{i}" for i in range(1, n + 1)]
                             + [basis[g] for g in central])
    field = {g: i - 1 for g, i in cartan.items()}
    field.update((g, n + j) for j, g in enumerate(central))
    terms = {}
    for word, c in x.terms.items():
        if any(g in lowering or g in raising for g in word):
            continue
        v = [0] * gens.n
        for g in word:
            v[field[g]] += 1
        terms[gens.key(v, [0] * gens.n)] = c
    return weyl.WeylElement(gens, terms)


def is_central(x):
    """True iff [x, e] = 0 for every basis generator e."""
    for name in x.table.basis:
        g = x.table.generator(name)
        if not (x * g - g * x).is_zero():
            return False
    return True

