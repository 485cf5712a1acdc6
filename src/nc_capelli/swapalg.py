"""Free algebra over a finite letter set with per-pair swap policies.

The word rewriter serves the bar-graded local factorization checks (the
psi/phi propositions) and the abstract column-commuting factorization
theorem, and it is the PBW engine: ``pbw.LieAlgebraSpec`` is a table
whose rules come from Lie brackets.  The exterior (Grassmann) algebra
over a host ring, at the end of the module, is a separate bitmask
engine that rewrites no words.

Canonical form: each word is rewritten by rules on adjacent letter pairs
until none applies, with the accumulated coefficients folded in; the
rewriting of shared words is memoized per table.  Pair policies give the
lexicographically least word reachable by allowed swaps (with signs),
and tables may carry extra two-letter rewrite rules (an empty one kills
the word).  A Newman-style local confluence self-test runs at table
construction on all letter triples, PBW specs included; for their
bracket rules it is the Jacobi identity (Bergman's diamond lemma).  A
central parameter is a letter that commutes with every letter: its
overlaps resolve trivially, bar fixes it and the bigrading does not
count it.
"""

from __future__ import annotations

from .ringapi import Ring, im_part, re_part
from .scalars import (
    G_HALF,
    G_I_QUARTER,
    G_INV_2I,
    G_ONE,
    G_QUARTER,
    GaussianRational,
    SparseElement,
    accumulate,
)


class NonConfluentTable(Exception):
    """The rewrite rules fail the local-confluence self-test."""


class SwapElement(SparseElement):
    """Sparse sum of canonical words with GaussianRational values."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms

    def _new(self, terms):
        return type(self)(self.table, terms)

    def _one(self):
        return self.table.one()

    def __mul__(self, other):
        normalize = self.table.normalize

        def products():
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    c = c1 * c2
                    for w, f in normalize(w1 + w2).items():
                        yield w, c * f

        return self._new(accumulate({}, products()))

    def bar(self):
        table = self.table
        if not table.bar_map:
            raise TypeError("algebra has no bar involution")

        def images():
            for w, c in self.terms.items():
                cb = c.bar()
                imaged = tuple(table.bar_map.get(k, k) for k in w)
                for v, f in table.normalize(imaged).items():
                    yield v, cb * f

        return self._new(accumulate({}, images()))

    def __eq__(self, other):
        return (
            isinstance(other, SwapElement)
            and self.table is other.table
            and self.terms == other.terms
        )

    def _render_order(self):
        return sorted(self.terms, key=lambda w: (len(w), w))

    def _render_monomial(self, word):
        return self.table.render_word(word) if word else ""


class SwapTable:
    """Letters, pair policies, optional extra rules.

    policies: dict frozenset({name_a, name_b}) -> "commute" | "anticommute"
              (absent pair = no relation)
    extra_rules: dict (name_a, name_b) -> list of (GaussianRational,
              word of names); replaces the derived rule for that ordered
              pair (an empty list makes the word a*b zero)
    bar_pairs: list of (unbarred, barred) names defining the bar
              involution and the bigrading; a letter in no pair is fixed
              by bar and has bidegree (0, 0)
    """

    element = SwapElement

    def __init__(self, letters, policies=None, extra_rules=None,
                 bar_pairs=None):
        self.letters = tuple(letters)
        self.index = {name: k for k, name in enumerate(self.letters)}
        self.name = f"swap({','.join(self.letters)})"
        policies = policies or {}
        extra_rules = extra_rules or {}

        rules = {}
        for j in range(len(self.letters)):
            for i in range(j + 1, len(self.letters)):
                # letter i after letter j in a word, with i > j in order
                pol = policies.get(frozenset({self.letters[i], self.letters[j]}))
                if pol == "commute":
                    rules[(i, j)] = ((G_ONE, (j, i)),)
                elif pol == "anticommute":
                    rules[(i, j)] = ((-G_ONE, (j, i)),)
                elif pol is not None:
                    raise ValueError(f"unknown policy {pol!r}")
        for (a, b), rhs in extra_rules.items():
            rules[(self.index[a], self.index[b])] = tuple(
                (c, tuple(self.index[x] for x in word)) for c, word in rhs
            )
        self.rules = rules

        self.bar_map = {}
        self.plain = self.barred = frozenset()
        if bar_pairs:
            for plain, bar in bar_pairs:
                self.bar_map[self.index[plain]] = self.index[bar]
                self.bar_map[self.index[bar]] = self.index[plain]
            self.plain = frozenset(self.index[p] for p, _ in bar_pairs)
            self.barred = frozenset(self.index[b] for _, b in bar_pairs)

        self._memo = {}
        self.check_confluence()

    # --- rewriting ----------------------------------------------------

    def normalize(self, word):
        """Fully rewrite a word (tuple of letter indices); returns a dict
        canonical word -> GaussianRational."""
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        try:
            result = self._normalize(word)
        except RecursionError:
            raise NonConfluentTable(
                f"rewriting of {self.render_word(word)} does not terminate"
            ) from None
        self._memo[word] = result
        return result

    def _normalize(self, word):
        for pos in range(len(word) - 1):
            if (word[pos], word[pos + 1]) in self.rules:
                return self._reduce_once(word, pos)
        return {word: G_ONE}

    def check_confluence(self):
        """Newman local-confluence test: each overlap a*b*c of a rule on
        (a, b) and one on (b, c) reduces to one normal form either way;
        overlaps are taken in lexicographic order of their letters."""
        follow = {}
        for b, c in sorted(self.rules):
            follow.setdefault(b, []).append(c)
        for a, b in sorted(self.rules):
            for c in follow.get(b, ()):
                word = (a, b, c)
                if self._reduce_once(word, 0) != self._reduce_once(word, 1):
                    raise NonConfluentTable(
                        f"critical pair at {self.render_word(word)}")

    def _reduce_once(self, word, pos):
        """Apply the rule at ``pos`` once, then normalize each result."""
        out = {}
        for coeff, repl in self.rules[(word[pos], word[pos + 1])]:
            sub = self.normalize(word[:pos] + repl + word[pos + 2:])
            if coeff == G_ONE:
                # share the memoized coefficients: a product by the unit
                # would store a fresh copy of each in every memo entry
                accumulate(out, sub.items())
            else:
                accumulate(out, ((w, coeff * c) for w, c in sub.items()))
        return out

    def render_word(self, word):
        return "*".join(self.letters[k] for k in word) if word else "1"

    # --- element constructors ----------------------------------------

    def letter(self, name):
        return self.element(self, {(self.index[name],): G_ONE})

    def zero(self):
        return self.element(self, {})

    def one(self):
        return self.element(self, {(): G_ONE})

    def ring(self):
        return Ring(self.name, self.zero(), self.one())


def _bidegree(table, word):
    """(unbarred, barred) letters of a word; a central letter is neither."""
    return (sum(1 for k in word if k in table.plain),
            sum(1 for k in word if k in table.barred))


def bigrade_project(x, hol_degree, antihol_degree):
    """Component whose words have exactly hol_degree unbarred and
    antihol_degree barred letters."""
    want = (hol_degree, antihol_degree)
    return x._new({w: c for w, c in x.terms.items()
                   if _bidegree(x.table, w) == want})


def bigrades(x):
    """Set of (hol, antihol) bidegrees present in x."""
    return {_bidegree(x.table, w) for w in x.terms}


# ---------------------------------------------------------------------------
# The local factorization engine of the main theorem's proof.
# ---------------------------------------------------------------------------

def psi_phi_table(extra_rules=None, central=()):
    """Letters psi < phi < psi_bar < phi_bar, then the central letters
    named in ``central``, which commute with every letter; barred
    letters anticommute with unbarred ones; no relation inside each
    group unless extra rules are imposed."""
    letters = ("psi", "phi", "psi_bar", "phi_bar", *central)
    policies = {
        frozenset({u, b}): "anticommute"
        for u in ("psi", "phi")
        for b in ("psi_bar", "phi_bar")
    }
    policies.update((frozenset({p, x}), "commute")
                    for p in central for x in letters if x != p)
    return SwapTable(
        letters,
        policies=policies,
        extra_rules=extra_rules,
        bar_pairs=[("psi", "psi_bar"), ("phi", "phi_bar")],
    )


def _holfact_sides(table, a, b, c, d, k):
    """Build E = (-2i)(Re psi + a/2 phi + b/2 phi_bar)
                 (Im psi + c/(2i) phi + d/(2i) phi_bar)
              - (psi + k phi)(psi_bar + k phi_bar)
    and the closed forms of its pure components, for central elements
    a, b, c, d, k of the table (real: bar fixes them)."""
    psi = table.letter("psi")
    phi = table.letter("phi")
    psib = table.letter("psi_bar")
    phib = table.letter("phi_bar")
    left = (
        re_part(psi) + phi * a.scale(G_HALF) + phib * b.scale(G_HALF)
    ) * (
        im_part(psi) + phi * c.scale(G_INV_2I) + phib * d.scale(G_INV_2I)
    )
    left = left.scale(GaussianRational(0, -2))
    right = (psi + phi * k) * (psib + phib * k)
    pure_hol = ((psi + phi * a) * (psi + phi * c)).scale(-G_HALF)
    pure_antihol = ((psib + phib * b) * (-psib + phib * d)).scale(-G_HALF)
    return left - right, pure_hol, pure_antihol


def check_holfactpsi(variant="hol"):
    """Verify the local factorization proposition (and its mod-antihol
    variant) symbolically in the parameters a, b, c, d, k, central
    letters of the table.

    Checks: (1) the pure holomorphic and antiholomorphic components of
    LHS - RHS match their closed forms identically; (2) the mixed (1,1)
    component vanishes under both sufficient condition sets; (3) the
    degenerate all-zero-parameter instance vanishes in mixed degree.
    The sides of a condition set are built at its elements: the letters
    are central, so that is the substitution, and it keeps bidegrees.
    Returns a result dict with an overall "ok" flag.
    """
    if variant not in ("hol", "antihol"):
        raise ValueError("variant must be 'hol' or 'antihol'")
    table = psi_phi_table(central="abcdk")
    a, b, c, d, k = (table.letter(p) for p in "abcdk")
    e, pure_hol, pure_antihol = _holfact_sides(table, a, b, c, d, k)
    two_k = k.scale(2)

    hol_matches = (bigrade_project(e, 2, 0) - pure_hol).is_zero()
    antihol_matches = (bigrade_project(e, 0, 2) - pure_antihol).is_zero()

    cond_sides = [_holfact_sides(table, *cs) for cs in (
        (k, b, k, b - two_k, k),       # a = c = k, d = b - 2k
        (a, k, two_k - a, -k, k),      # b = k, c = 2k - a, d = -k
    )]
    mixed_zero = [bigrade_project(cs[0], 1, 1).is_zero() for cs in cond_sides]
    zero = table.zero()
    degenerate = _holfact_sides(table, zero, zero, zero, zero, zero)[0]
    degenerate_zero = bigrade_project(degenerate, 1, 1).is_zero()

    # For the stated variant, the component assumed zero by the
    # proposition's last hypothesis is the opposite-parity pure product.
    assumed = 2 if variant == "hol" else 1
    assumed_zero = [cs[assumed].render() for cs in cond_sides]

    ok = hol_matches and antihol_matches and all(mixed_zero) and degenerate_zero
    return {
        "ok": ok,
        "variant": variant,
        "hol_component_matches": hol_matches,
        "antihol_component_matches": antihol_matches,
        "mixed_zero_per_condition_set": mixed_zero,
        "degenerate_zero": degenerate_zero,
        "assumed_zero_products": assumed_zero,
    }


def coronfact_table():
    """psi/phi table with the central letter k and the extra relations
    psi^2 = psi*phi, phi*psi = -psi*phi, phi^2 = 0 and their barred
    mirrors."""
    extra = {
        ("psi", "psi"): [(G_ONE, ("psi", "phi"))],
        ("phi", "psi"): [(-G_ONE, ("psi", "phi"))],
        ("phi", "phi"): [],
        ("psi_bar", "psi_bar"): [(G_ONE, ("psi_bar", "phi_bar"))],
        ("phi_bar", "psi_bar"): [(-G_ONE, ("psi_bar", "phi_bar"))],
        ("phi_bar", "phi_bar"): [],
    }
    return psi_phi_table(extra_rules=extra, central="k")


def check_coronfact(sign="plus"):
    """Verify the corollary's displayed factorization (plus variant) and
    its conjugated (minus) variant.

    Both variants share the right-hand side
    (1/(-2i))(psi + k phi)(psi_bar + k phi_bar); the defect must have
    zero mixed component and be concentrated in a single pure bidegree,
    which is recorded.  The tempting closed form (phi + k psi)^2 for the
    defect does not match; the actual defect is computed and rendered
    instead of being assumed.
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    table = coronfact_table()
    psi = table.letter("psi")
    phi = table.letter("phi")
    psib = table.letter("psi_bar")
    phib = table.letter("phi_bar")
    k = table.letter("k")
    quarter = table.one().scale(G_QUARTER)
    ioff = G_I_QUARTER if sign == "plus" else -G_I_QUARTER

    lhs = (
        re_part(psi) + re_part(phi) * (k + quarter) + im_part(phi).scale(ioff)
    ) * (
        im_part(psi) + re_part(phi).scale(ioff) + im_part(phi) * (k - quarter)
    )
    # 1/(-2i) = i/2
    rhs_main = ((psi + phi * k) * (psib + phib * k)).scale(-G_INV_2I)
    defect = lhs - rhs_main

    mixed_zero = bigrade_project(defect, 1, 1).is_zero()
    grades = bigrades(defect)
    pure_single = len(grades) <= 1 and all(h == 0 or ah == 0 for h, ah in grades)

    printed = (phi + psi * k) ** 2  # candidate closed form (reported only)
    cube_zero = (psi * psi * psi).is_zero()

    ok = mixed_zero and pure_single and cube_zero
    return {
        "ok": ok,
        "sign": sign,
        "mixed_zero": mixed_zero,
        "defect_bigrades": sorted(grades),
        "defect": defect.render(),
        "printed_formula_matches": (defect - printed).is_zero(),
        "psi_cubed_zero": cube_zero,
    }


# ---------------------------------------------------------------------------
# Exterior (Grassmann) algebra over a host ring.
# ---------------------------------------------------------------------------

def _wedge_sign(a, b):
    """Sign of concatenating ascending mask a before ascending mask b."""
    inv = 0
    while b:
        low = b & -b
        inv += bin(a >> low.bit_length()).count("1")
        b ^= low
    return -1 if inv & 1 else 1


class ExteriorAlgebra:
    """Grassmann generators psi_0..psi_(m-1) over a host ring whose
    elements commute with the psi's; coefficients sit on the LEFT of the
    masks and host products follow left-to-right factor order."""

    def __init__(self, m, host):
        self.m = m
        self.host = host

    def zero(self):
        return ExteriorElement(self, {})

    def one(self):
        return ExteriorElement(self, {0: self.host.one})

    def psi(self, i):
        if not 0 <= i < self.m:
            raise IndexError(f"psi index {i} out of range")
        return ExteriorElement(self, {1 << i: self.host.one})

    def from_host(self, h):
        if h.is_zero():
            return self.zero()
        return ExteriorElement(self, {0: h})

    def top_mask(self):
        return (1 << self.m) - 1


class ExteriorElement(SparseElement):
    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def _new(self, terms):
        return ExteriorElement(self.alg, terms)

    def _one(self):
        return self.alg.one()

    def scale(self, c):
        terms = {}
        for mask, h in self.terms.items():
            p = h.scale(c)
            if not p.is_zero():
                terms[mask] = p
        return ExteriorElement(self.alg, terms)

    def __mul__(self, other):
        def products():
            for m1, h1 in self.terms.items():
                for m2, h2 in other.terms.items():
                    if not m1 & m2:
                        h = h1 * h2
                        yield m1 | m2, (h if _wedge_sign(m1, m2) > 0 else -h)

        return ExteriorElement(self.alg, accumulate({}, products()))

    def __eq__(self, other):
        return (
            isinstance(other, ExteriorElement)
            and self.alg is other.alg
            and self.terms == other.terms
        )

    def _render_order(self):
        return sorted(self.terms, key=lambda mask: (bin(mask).count("1"), mask))

    def _render_monomial(self, mask):
        return "*".join(f"psi{i}" for i in range(self.alg.m) if mask >> i & 1)

    def __repr__(self):
        bits = {m: h for m, h in self.terms.items()}
        return f"<ExteriorElement {bits!r}>"


def psi_M(alg, M, k):
    """psi^M_k = sum_i psi_i * M[i, k] (k is a 0-based column index)."""
    if M.rows != alg.m:
        raise ValueError("matrix rows must match the number of psi generators")
    out = alg.zero()
    for i in range(M.rows):
        e = M.entries[i][k]
        if not e.is_zero():
            out = out + ExteriorElement(alg, {1 << i: e})
    return out
