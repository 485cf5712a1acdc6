"""Exact scalar arithmetic: Gaussian rationals, sparse polynomials in
named central parameters, and the sparse-sum core (:class:`SparseElement`,
:func:`accumulate`) that the polynomials and every algebra engine build on.

Everything here is an immutable value with exact arithmetic; the ground
field is the rationals extended by a formal ``i`` with ``i**2 == -1``.
A Gaussian rational is three Python ints in lowest terms, so its
arithmetic is integer arithmetic with one ``gcd`` per result at most;
``fractions.Fraction`` appears only at the edges (input, ``re``/``im``,
rendering).  The "bar" involution conjugates ``i`` and fixes every
parameter (the parameters model real central scalars).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

# Parameter names are drawn from a fixed universe: a handful of plain
# letters plus the indexed families d1, d2, ... and lam1, lam2, ...
_PARAM_RE = re.compile(r"^(?:[subckhat]|d\d*|lam\d+|b\d*|w\w*|c\d+)$")


def _check_param(name):
    if not _PARAM_RE.match(name):
        raise ValueError(f"parameter {name!r} not in the declared universe")
    return name


def rat(value, den=None):
    """Coerce to an exact rational (int, Fraction, or 'p/q' text)."""
    return Fraction(value) if den is None else Fraction(value, den)


class GaussianRational:
    """An element (p + q*i)/d of Q[i], held as three Python ints.

    The form is canonical: ``d > 0`` and ``gcd(p, q, d) == 1``, so ``==``
    and ``hash`` compare the fields.  ``GaussianRational(re, im)`` takes
    an int, a ``Fraction`` or ``'p/q'`` text for each part; ``re`` and
    ``im`` read the parts back as ``Fraction``s.  Zero is false, and
    ``*`` also takes an int factor.
    It also reads as the constant Coefficient it equals (``terms``,
    ``bar``, ``render``), so a parameter-free value can be stored bare.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # both parts are in lowest terms, so over their lcm the triple is
        self.d = d = lcm(re.denominator, im.denominator)
        self.p = re.numerator * (d // re.denominator)
        self.q = im.numerator * (d // im.denominator)

    @property
    def re(self):
        return Fraction(self.p, self.d)

    @property
    def im(self):
        return Fraction(self.q, self.d)

    # For a Coefficient operand, NotImplemented runs its reflected op.
    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.p + other.p, self.q + other.q, d)
        return _make(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.p - other.p, self.q - other.q, d)
        return _make(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __neg__(self):
        return _fields(-self.p, -self.q, self.d)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            if type(other) is int:  # an integer factor, such as a Leibniz one
                return _make(self.p * other, self.q * other, self.d)
            return NotImplemented
        a, b = self.p, self.q
        c, e = other.p, other.q
        d = self.d * other.d
        if not b:
            return _make(a * c, a * e, d)
        if not e:
            return _make(a * c, b * c, d)
        return _make(a * c - b * e, a * e + b * c, d)

    def inverse(self):
        p, q, d = self.p, self.q, self.d
        n = p * p + q * q
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _make(d * p, -d * q, n)

    def conjugate(self):
        return _fields(self.p, -self.q, self.d)

    bar = conjugate

    @property
    def terms(self):
        """The one-term ``Coefficient`` view: ``{(): self}``, empty for 0."""
        return {(): self} if self.p or self.q else {}

    def is_zero(self):
        return not self.p and not self.q

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def render(self):
        """Text form: "p/q", "b*i", or "a+b*i" / "a-b*i"."""
        re, im = self.re, self.im
        if not im:
            return str(re)
        itxt = "i" if abs(im) == 1 else f"{abs(im)}*i"
        if not re:
            return itxt if im > 0 else "-" + itxt
        return f"{re}{'+' if im > 0 else '-'}{itxt}"


def _fields(p, q, d):
    """A GaussianRational from canonical fields (``_make`` inlines it)."""
    g = _new_gauss(GaussianRational)
    g.p = p
    g.q = q
    g.d = d
    return g


def _make(p, q, d):
    """(p + q*i)/d, for ints with d > 0, in lowest terms."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    g = _new_gauss(GaussianRational)
    g.p = p
    g.q = q
    g.d = d
    return g


_new_gauss = object.__new__

G_ZERO = GaussianRational()
G_ONE = GaussianRational(1)
G_I = GaussianRational(0, 1)


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
    ``-``, ``scale``, ``**``, ``is_zero`` (and truth: zero is false),
    ``render`` and ``__repr__``.

    ``Coefficient`` (values ``GaussianRational``), the engine classes
    ``WeylElement`` (bare ``GaussianRational`` values where no parameter
    occurs, ``Coefficient`` ones where one does), ``SwapElement`` with its
    PBW subclass ``PbwElement`` (values ``Coefficient``), and
    ``ExteriorElement`` (values elements of its host ring) build on it.
    ``scale`` keeps a bare value bare.  A subclass must supply:

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
        c = _scalar(c)
        terms = {}
        for mono, cur in self.terms.items():
            p = cur * c
            if not p.is_zero():
                terms[mono] = p
        return self._new(terms)

    def mul_into(self, other, out, negate=False):
        """Add self*other, negated if ``negate``, into the dict ``out``;
        returns out (the step of ``matrixops._laplace``)."""
        return accumulate(
            out, ((-self if negate else self) * other).terms.items())

    def __pow__(self, n):
        """Square and multiply, high bit first: about 2 log2(n) products,
        each odd step by self, so a word power at the exponent limit does
        not rewrite ever longer words n times."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        if n == 0:
            return self._one()
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

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


def _scalar(c):
    """A scale factor as a bare GaussianRational unless it holds a
    parameter; c is a Coefficient, a GaussianRational or a rational."""
    if isinstance(c, Coefficient):
        t = c.terms
        return t.get((), G_ZERO) if t.keys() <= {()} else c
    return c if isinstance(c, GaussianRational) else GaussianRational(c)


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
        return Coefficient({(): _fields(r.numerator, 0, r.denominator)})

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

    # ``other`` may be a GaussianRational, read through its ``terms`` view,
    # or an int factor (such as a Leibniz one).
    def __mul__(self, other):
        if type(other) is int:
            return Coefficient({m: g * other for m, g in self.terms.items()}
                               if other else {})
        st, ot = self.terms, other.terms
        if not st or not ot:
            return Coefficient({})
        if len(st) == 1 and len(ot) == 1:
            # dominant case in determinant expansion: Q[i] is a domain,
            # so the single product term cannot vanish
            ((m1, g1),) = st.items()
            ((m2, g2),) = ot.items()
            return Coefficient({_mono_mul(m1, m2): g1 * g2})
        return Coefficient(accumulate({}, (
            (_mono_mul(m1, m2), g1 * g2)
            for m1, g1 in st.items()
            for m2, g2 in ot.items()
        )))

    __rmul__ = __mul__
    __radd__ = SparseElement.__add__

    def __rsub__(self, other):
        return -self + other

    def scale(self, c):
        """A Coefficient is its own coefficient ring: scaling multiplies."""
        return self * _scalar(c)

    def bar(self):
        """Conjugate i -> -i; parameters are real and stay fixed."""
        return Coefficient({m: g.conjugate() for m, g in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, (Coefficient, GaussianRational))
                and self.terms == other.terms)

    def __hash__(self):
        t = self.terms
        if t.keys() <= {()}:  # a constant hashes as the bare value it equals
            return hash(t.get((), G_ZERO))
        return hash(frozenset(t.items()))

    # --- queries ------------------------------------------------------

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
            term = Coefficient({(): g})
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
C_INV_2I = Coefficient({(): GaussianRational(0, Fraction(-1, 2))})
C_I_QUARTER = Coefficient({(): GaussianRational(0, Fraction(1, 4))})
