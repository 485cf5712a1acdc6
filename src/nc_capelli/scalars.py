"""Exact scalar arithmetic: Gaussian rationals, and the sparse-sum core
(:class:`SparseElement`, :func:`accumulate`) that every algebra engine
builds on.

Everything here is an immutable value with exact arithmetic; the ground
field is the rationals extended by a formal ``i`` with ``i**2 == -1``.
A Gaussian rational is three Python ints in lowest terms, so its
arithmetic is integer arithmetic with one ``gcd`` per result at most;
``fractions.Fraction`` appears only at the edges (input, ``re``/``im``,
rendering).  The "bar" involution conjugates ``i``.  It is the one
value type: a central parameter (a shift d_k, the Capelli ``u``, the
Cayley exponent ``s``) is a generator or letter of its host, which
commutes with everything and which bar fixes (see ``weyl``, ``pbw`` and
``swapalg``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """An element (p + q*i)/d of Q[i], held as three Python ints.

    The form is canonical: ``d > 0`` and ``gcd(p, q, d) == 1``, so ``==``
    and ``hash`` compare the fields.  ``GaussianRational(re, im)`` takes
    an int, a ``Fraction`` or ``'p/q'`` text for each part; ``re`` and
    ``im`` read the parts back as ``Fraction``s.  Zero is false, and
    ``*`` also takes an int factor, on either side.
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

    __rmul__ = __mul__

    def inverse(self):
        p, q, d = self.p, self.q, self.d
        n = p * p + q * q
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _make(d * p, -d * q, n)

    def conjugate(self):
        return _fields(self.p, -self.q, self.d)

    bar = conjugate

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
G_HALF = GaussianRational(Fraction(1, 2))
G_QUARTER = GaussianRational(Fraction(1, 4))
# 1/(2i) = -i/2, used throughout the real/imaginary part decompositions.
G_INV_2I = GaussianRational(0, Fraction(-1, 2))
G_I_QUARTER = GaussianRational(0, Fraction(1, 4))


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

    ``WeylElement``, ``SwapElement`` with its PBW subclass
    ``PbwElement`` (values ``GaussianRational``), and
    ``ExteriorElement`` (values elements of its host ring) build on it.
    ``scale`` takes a ``GaussianRational`` or a rational, and ``+`` and
    ``-`` return NotImplemented for an operand without ``terms`` (so
    ``x + 1`` raises TypeError).  A subclass must supply:

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
        try:
            items = other.terms.items()
        except AttributeError:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in items:
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
        try:
            items = other.terms.items()
        except AttributeError:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in items:
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
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
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




class Coefficient:
    """Not a value type: every value of every engine is a
    GaussianRational, and a central parameter is a generator or letter of
    its host.  The benchmark's workloads still build Capelli shifts with
    ``Coefficient.zero()`` and ``Coefficient.one()``, and its tracer
    names this class, so the two constructors stay and return the bare
    values."""

    @staticmethod
    def zero():
        return G_ZERO

    @staticmethod
    def one():
        return G_ONE
