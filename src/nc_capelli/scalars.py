"""Exact scalar arithmetic: rationals, Gaussian rationals and sparse
polynomials in named central parameters, and the sparse-sum core
(:class:`SparseElement`, :func:`accumulate`) that the polynomials and
every algebra engine build on.

Everything here is an immutable value with exact arithmetic; the ground
field is the rationals extended by a formal ``i`` with ``i**2 == -1``.
The "bar" involution conjugates ``i`` and fixes every parameter (the
parameters model real central scalars).
"""

from __future__ import annotations

import re
from fractions import Fraction

try:  # gmpy2's mpq is substantially faster; Fraction is the fallback.
    from gmpy2 import mpq as RAT
except ImportError:  # pragma: no cover
    RAT = Fraction

RAT_ZERO = RAT(0)
RAT_ONE = RAT(1)

# Parameter names are drawn from a fixed universe: a handful of plain
# letters plus the indexed families d1, d2, ... and lam1, lam2, ...
_PARAM_RE = re.compile(r"^(?:[subckhat]|d\d*|lam\d+|b\d*|w\w*|c\d+)$")


def _check_param(name):
    if not _PARAM_RE.match(name):
        raise ValueError(f"parameter {name!r} not in the declared universe")
    return name


def rat(value, den=None):
    """Coerce to the exact rational type (int, Fraction, or 'p/q' text)."""
    if den is not None:
        return RAT(value, den)
    if isinstance(value, str):
        if "/" in value:
            p, q = value.split("/")
            return RAT(int(p), int(q))
        return RAT(int(value))
    return RAT(value)


class GaussianRational:
    """An element a + b*i of Q[i], with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=RAT_ZERO, im=RAT_ZERO):
        self.re = RAT(re)
        self.im = RAT(im)

    @staticmethod
    def _make(re, im):
        """Internal constructor bypassing coercion (re, im already RAT)."""
        g = GaussianRational.__new__(GaussianRational)
        g.re = re
        g.im = im
        return g

    def __add__(self, other):
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b:
            return GaussianRational._make(a * c, a * d)
        if not d:
            return GaussianRational._make(a * c, b * c)
        return GaussianRational._make(a * c - b * d, a * d + b * c)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        return (
            isinstance(other, GaussianRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def render(self):
        """Text form: "p/q", "b*i", or "a+b*i" / "a-b*i"."""
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        itxt = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{itxt}"


G_ZERO = GaussianRational()
G_ONE = GaussianRational(RAT_ONE)
G_I = GaussianRational(RAT_ZERO, RAT_ONE)


def accumulate(out, items):
    """Add (key, value) pairs into the dict ``out``, never storing a zero
    value and dropping a key whose sum becomes zero; returns ``out``."""
    for key, value in items:
        cur = out.get(key)
        if cur is None:
            if not value.is_zero():
                out[key] = value
        else:
            s = cur + value
            if s.is_zero():
                del out[key]
            else:
                out[key] = s
    return out


class SparseElement:
    """Shared arithmetic of the sparse sums: a dict ``terms`` from a
    hashable monomial to a nonzero value, with one ``+``, ``-``, unary
    ``-``, ``scale``, ``**``, ``is_zero``, ``render`` and ``__repr__``.

    ``Coefficient`` (values ``GaussianRational``) and the engine classes
    ``WeylElement``, ``SwapElement`` (with its PBW subclass
    ``PbwElement``) and ``ExteriorElement`` (values ``Coefficient``)
    build on it.  A subclass
    must supply:

    - ``_new(terms)``: a sibling over the same generators, basis, table
      or algebra, holding ``terms`` (which it takes ownership of);
    - ``_one()``: the unit of its algebra;
    - ``__mul__`` (accumulating through :func:`accumulate`) and, where
      the algebra has a conjugation, ``bar``;
    - ``__eq__`` (and ``__hash__`` where elements are hashed);
    - ``_render_order()``: the monomials of ``terms`` in display order;
    - ``_render_monomial(mono)``: the text of one monomial, ``""`` for
      the unit monomial.
    """

    __slots__ = ()

    # ``+`` and ``-`` keep the loop inline: they are the most-called
    # element operations, and one more call per use shows in the runs.
    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            cur = terms.get(mono)
            if cur is None:
                terms[mono] = c
            else:
                s = cur + c
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
        return self._new(terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            cur = terms.get(mono)
            if cur is None:
                terms[mono] = -c
            else:
                s = cur - c
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
        return self._new(terms)

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if not isinstance(c, Coefficient):
            c = Coefficient.from_rational(c)
        terms = {}
        for mono, cur in self.terms.items():
            p = cur * c
            if not p.is_zero():
                terms[mono] = p
        return self._new(terms)

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        result = self._one()
        for _ in range(n):
            result = result * self
        return result

    def is_zero(self):
        return not self.terms

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in self._render_order():
            mtxt = self._render_monomial(mono)
            ctxt = self.terms[mono].render()
            if not mtxt:
                parts.append(ctxt)
            elif ctxt == "1":
                parts.append(mtxt)
            elif ctxt == "-1":
                parts.append("-" + mtxt)
            elif ("+" in ctxt[1:]) or ("-" in ctxt[1:]) or " " in ctxt:
                parts.append(f"({ctxt})*{mtxt}")
            else:
                parts.append(f"{ctxt}*{mtxt}")
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += " - " + part[1:]
            else:
                text += " + " + part
        return text

    def __repr__(self):
        return f"<{type(self).__name__} {self.render()}>"


def _mono_key(mono):
    """Graded-lex sort key for a parameter monomial."""
    return (sum(e for _, e in mono), mono)


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class Coefficient(SparseElement):
    """Sparse polynomial over Q[i] in central real parameters.

    terms: dict mapping monomial -> GaussianRational, where a monomial is
    a sorted tuple of (parameter name, positive exponent) pairs.  The
    empty tuple is the constant monomial.  No zero values are stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return Coefficient({})

    @staticmethod
    def one():
        return Coefficient({(): G_ONE})

    _one = one

    @staticmethod
    def from_rational(value, den=None):
        r = rat(value, den)
        if r == 0:
            return Coefficient({})
        return Coefficient({(): GaussianRational(r)})

    @staticmethod
    def from_gaussian(g):
        if g.is_zero():
            return Coefficient({})
        return Coefficient({(): g})

    @staticmethod
    def i():
        return Coefficient({(): G_I})

    @staticmethod
    def param(name, exp=1):
        _check_param(name)
        if exp == 0:
            return Coefficient.one()
        return Coefficient({((name, exp),): G_ONE})

    # --- ring operations ---------------------------------------------

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Coefficient({})
        if len(self.terms) == 1 and len(other.terms) == 1:
            # dominant case in determinant expansion: Q[i] is a domain,
            # so the single product term cannot vanish
            ((m1, g1),) = self.terms.items()
            ((m2, g2),) = other.terms.items()
            return Coefficient({_mono_mul(m1, m2): g1 * g2})
        return Coefficient(accumulate({}, (
            (_mono_mul(m1, m2), g1 * g2)
            for m1, g1 in self.terms.items()
            for m2, g2 in other.terms.items()
        )))

    def scale(self, c):
        """A Coefficient is its own coefficient ring: scaling multiplies."""
        if not isinstance(c, Coefficient):
            c = Coefficient.from_rational(c)
        return self * c

    def bar(self):
        """Conjugate i -> -i; parameters are real and stay fixed."""
        return Coefficient({m: g.conjugate() for m, g in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Coefficient) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # --- queries ------------------------------------------------------

    def constant_value(self):
        """The GaussianRational value, if the coefficient is constant."""
        if not self.terms:
            return G_ZERO
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        raise ValueError(f"not a constant: {self.render()}")

    def rational_value(self):
        g = self.constant_value()
        if g.im != 0:
            raise ValueError(f"not rational: {self.render()}")
        return g.re

    def split_by_param(self, name):
        """Split into {exponent of name: cofactor Coefficient}."""
        out = {}
        for mono, g in self.terms.items():
            e = 0
            rest = []
            for pname, pe in mono:
                if pname == name:
                    e = pe
                else:
                    rest.append((pname, pe))
            out.setdefault(e, {})[tuple(rest)] = g
        return {e: Coefficient(t) for e, t in out.items()}

    def substitute(self, bindings):
        """Substitute parameters by Coefficient values, exactly.

        bindings maps parameter name -> Coefficient (or int/rational).
        """
        clean = {}
        for name, value in bindings.items():
            _check_param(name)
            if not isinstance(value, Coefficient):
                value = Coefficient.from_rational(value)
            clean[name] = value
        result = Coefficient({})
        for mono, g in self.terms.items():
            term = Coefficient.from_gaussian(g)
            for name, e in mono:
                if name in clean:
                    term = term * clean[name] ** e
                else:
                    term = term * Coefficient.param(name, e)
            result = result + term
        return result

    # --- rendering ----------------------------------------------------

    def _render_order(self):
        return sorted(self.terms, key=_mono_key)

    def _render_monomial(self, mono):
        return "*".join(name if e == 1 else f"{name}^{e}" for name, e in mono)


# A type is not a descriptor, so ``self._new(terms)`` in the shared ``+``
# and ``-`` is the constructor call itself, with no extra frame.
Coefficient._new = Coefficient

C_ZERO = Coefficient.zero()
C_ONE = Coefficient.one()
C_I = Coefficient.i()
C_HALF = Coefficient.from_rational(1, 2)
C_QUARTER = Coefficient.from_rational(1, 4)
# 1/(2i) = -i/2, used throughout the real/imaginary part decompositions.
C_INV_2I = Coefficient.from_gaussian(GaussianRational(RAT_ZERO, RAT(-1, 2)))
C_I_QUARTER = Coefficient.from_gaussian(GaussianRational(RAT_ZERO, RAT(1, 4)))
