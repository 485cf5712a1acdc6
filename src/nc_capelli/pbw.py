"""Universal-enveloping-algebra engine.

PBW normal form from structure constants, builders for gl_n and the
doubled gl_n (+) gl_n-bar, Harish-Chandra projection and centrality
checking.  Monomials are exponent vectors over a fixed ordered basis;
products re-straighten via the structure constants, with the
straightening of shared words memoized per algebra.
"""

from __future__ import annotations

from .ringapi import Ring
from .scalars import Coefficient, SparseElement, accumulate

C_ONE = Coefficient.one()


class LieAlgebraSpec:
    """Ordered basis plus structure constants [e_u, e_v] for u > v.

    brackets: dict (u, v) -> dict w -> Coefficient, for u > v in the
    basis order; [e_v, e_u] is the negation, [e_u, e_u] = 0.
    """

    def __init__(self, basis, brackets, bar_map=None, gln_meta=None, validate=True):
        self.basis = tuple(basis)
        self.index = {name: k for k, name in enumerate(self.basis)}
        self.n = len(self.basis)
        self.brackets = {
            uv: {w: c for w, c in vec.items() if not c.is_zero()}
            for uv, vec in brackets.items()
        }
        for (u, v) in self.brackets:
            if not u > v:
                raise ValueError("brackets must be keyed by (u, v) with u > v")
        self.bar_map = bar_map  # index permutation for the bar involution
        self.gln_meta = gln_meta  # {"n", "lowering", "cartan", "raising"}
        self._memo = {}
        if validate:
            self.check_jacobi()

    def bracket(self, u, v):
        """[e_u, e_v] as a dict index -> Coefficient."""
        if u == v:
            return {}
        if u > v:
            return self.brackets.get((u, v), {})
        return {w: -c for w, c in self.brackets.get((v, u), {}).items()}

    def _bracket_elem(self, x, v):
        """[x, e_v] for x a dict index -> Coefficient (degree-1 element)."""
        out = {}
        for u, cu in x.items():
            accumulate(out, ((w, cu * cw) for w, cw in self.bracket(u, v).items()))
        return out

    def check_jacobi(self):
        """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 over all basis triples."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                bij = self.bracket(i, j)
                for k in range(j + 1, self.n):
                    acc = {}
                    for part in (
                        self._bracket_elem(bij, k),
                        self._bracket_elem(self.bracket(j, k), i),
                        self._bracket_elem(self.bracket(k, i), j),
                    ):
                        accumulate(acc, part.items())
                    if acc:
                        names = (self.basis[i], self.basis[j], self.basis[k])
                        raise ValueError(f"Jacobi identity fails at {names}")
        return True

    # --- straightening ------------------------------------------------

    def straighten(self, word):
        """Rewrite a word (tuple of basis indices) into PBW form;
        returns dict exponent-vector -> Coefficient."""
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        pos = -1
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                pos = k
                break
        if pos < 0:
            exp = [0] * self.n
            for g in word:
                exp[g] += 1
            result = {tuple(exp): C_ONE}
        else:
            u, v = word[pos], word[pos + 1]
            result = dict(self.straighten(word[:pos] + (v, u) + word[pos + 2:]))
            for w, c in self.bracket(u, v).items():
                sub = self.straighten(word[:pos] + (w,) + word[pos + 2:])
                accumulate(result, ((exp, c * c2) for exp, c2 in sub.items()))
        self._memo[word] = result
        return result

    # --- element constructors ----------------------------------------

    def generator(self, name):
        exp = [0] * self.n
        exp[self.index[name]] = 1
        return PbwElement(self, {tuple(exp): C_ONE})

    def zero(self):
        return PbwElement(self, {})

    def one(self):
        return PbwElement(self, {(0,) * self.n: C_ONE})

    def ring(self):
        return Ring(
            f"pbw({len(self.basis)} gens)",
            self.zero(),
            self.one(),
            has_bar=self.bar_map is not None,
        )


class PbwElement(SparseElement):
    """Sparse sum of PBW monomials (exponent vectors) over a spec."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms):
        self.spec = spec
        self.terms = terms

    def _word(self, exp):
        out = []
        for g, e in enumerate(exp):
            out.extend([g] * e)
        return tuple(out)

    def _new(self, terms):
        return PbwElement(self.spec, terms)

    def _one(self):
        return self.spec.one()

    def __mul__(self, other):
        spec = self.spec

        def products():
            for m1, c1 in self.terms.items():
                w1 = self._word(m1)
                for m2, c2 in other.terms.items():
                    c = c1 * c2
                    for exp, f in spec.straighten(w1 + self._word(m2)).items():
                        yield exp, c * f

        return PbwElement(spec, accumulate({}, products()))

    def bar(self):
        if self.spec.bar_map is None:
            raise TypeError("algebra has no bar involution")
        terms = {}
        for m, c in self.terms.items():
            exp = [0] * self.spec.n
            for g, e in enumerate(m):
                exp[self.spec.bar_map[g]] = e
            terms[tuple(exp)] = c.bar()
        return PbwElement(self.spec, terms)

    def __eq__(self, other):
        return (
            isinstance(other, PbwElement)
            and self.spec is other.spec
            and self.terms == other.terms
        )

    def split_by_param(self, name):
        """Split terms by the power of a central parameter."""
        out = {}
        for m, c in self.terms.items():
            for e, part in c.split_by_param(name).items():
                out.setdefault(e, {})[m] = part
        return {e: PbwElement(self.spec, t) for e, t in out.items()}

    def _render_order(self):
        return sorted(self.terms, key=lambda m: (sum(m), m), reverse=True)

    def _render_monomial(self, mono):
        basis = self.spec.basis
        return "*".join(basis[g] if e == 1 else f"{basis[g]}^{e}"
                        for g, e in enumerate(mono) if e)


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
                vec[w] = vec.get(w, Coefficient.zero()) + C_ONE
            if l == i:
                w = index[fmt(k, j)]
                vec[w] = vec.get(w, Coefficient.zero()) - C_ONE
            vec = {w: c for w, c in vec.items() if not c.is_zero()}
            if vec:
                brackets[(u, v)] = vec
    return brackets


def build_gln(n):
    """U(gl_n): n^2 generators E<i><j> in the triangular order."""
    fmt = lambda i, j: f"E{i}{j}"
    lowering, cartan, raising = _gln_order(n, fmt)
    basis = lowering + cartan + raising
    index = {name: k for k, name in enumerate(basis)}
    meta = {
        "n": n,
        "lowering": frozenset(index[x] for x in lowering),
        "cartan": {index[fmt(i, i)]: i for i in range(1, n + 1)},
        "raising": frozenset(index[x] for x in raising),
    }
    return LieAlgebraSpec(basis, _gln_brackets(n, index, fmt), gln_meta=meta)


def build_doubled_gln(n):
    """U(gl_n (+) gl_n-bar): generators E<i><j> and Eb<i><j>; the two
    copies commute; bar swaps the copies and conjugates coefficients."""
    fmt = lambda i, j: f"E{i}{j}"
    fmtb = lambda i, j: f"Eb{i}{j}"
    lo, ca, ra = _gln_order(n, fmt)
    lob, cab, rab = _gln_order(n, fmtb)
    basis = lo + ca + ra + lob + cab + rab
    index = {name: k for k, name in enumerate(basis)}
    brackets = dict(_gln_brackets(n, index, fmt))
    brackets.update(_gln_brackets(n, index, fmtb))
    bar_map = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            u, v = index[fmt(i, j)], index[fmtb(i, j)]
            bar_map[u] = v
            bar_map[v] = u
    meta = {"n": n, "doubled": True}
    return LieAlgebraSpec(basis, brackets, bar_map=bar_map, gln_meta=meta)


def hc_projection(x):
    """Harish-Chandra projection: keep PBW terms with no raising and no
    lowering factors, sending each Cartan power E_ii^m to lam<i>^m.

    For central x this is the eigenvalue on the highest-weight Verma
    vector (the raising part on the right annihilates the vector; terms
    with a lowering factor move off the highest-weight line).  For
    non-central x it is still the triangular projection.
    """
    meta = x.spec.gln_meta
    if not meta or "cartan" not in meta:
        raise TypeError("hc_projection needs a gl_n algebra")
    lowering, cartan, raising = meta["lowering"], meta["cartan"], meta["raising"]
    out = Coefficient.zero()
    for m, c in x.terms.items():
        term = c
        keep = True
        for g, e in enumerate(m):
            if not e:
                continue
            if g in lowering or g in raising:
                keep = False
                break
            term = term * Coefficient.param(f"lam{cartan[g]}", e)
        if keep:
            out = out + term
    return out


def is_central(x):
    """True iff [x, e] = 0 for every basis generator e."""
    for name in x.spec.basis:
        g = x.spec.generator(name)
        if not (x * g - g * x).is_zero():
            return False
    return True


def load_structure_constants(text):
    """Parse a simple text table into a LieAlgebraSpec.

    Format: one "basis: name name ..." line, then lines
    "bracket: u v w coeff" declaring a summand coeff * e_w of [e_u, e_v]
    (accumulating over repeated (u, v, w)); coeff is a rational "p/q".
    Pairs may be given in either order; antisymmetry is enforced.
    """
    basis = None
    raw = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        fields = rest.split()
        if key.strip() == "basis":
            basis = fields
        elif key.strip() == "bracket":
            u, v, w, coeff = fields
            raw.setdefault((u, v), {}).setdefault(w, []).append(coeff)
        else:
            raise ValueError(f"unknown line {line!r}")
    if basis is None:
        raise ValueError("missing basis line")
    index = {name: k for k, name in enumerate(basis)}
    brackets = {}
    for (u, v), vec in raw.items():
        iu, iv = index[u], index[v]
        if iu == iv:
            raise ValueError(f"bracket [e,e] declared for {u}")
        flip = iu < iv
        key = (iv, iu) if flip else (iu, iv)
        target = brackets.setdefault(key, {})
        for w, coeffs in vec.items():
            total = Coefficient.zero()
            for c in coeffs:
                total = total + Coefficient.from_rational(c)
            if flip:
                total = -total
            iw = index[w]
            target[iw] = target.get(iw, Coefficient.zero()) + total
    return LieAlgebraSpec(basis, brackets)
