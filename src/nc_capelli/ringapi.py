"""The ring contract shared by all algebra engines.

Every engine (scalars, weyl, pbw, swapalg) exposes elements that are
immutable values supporting ``+``, ``-``, unary ``-``, ``*``,
``is_zero()`` and ``scale(Coefficient)``; engines with a conjugation
additionally expose ``bar()``.  A :class:`Ring` instance bundles the
distinguished elements and conversions that generic code (matrices,
verifiers) needs, so matrix algorithms stay agnostic of the host.

The four engine element classes (``WeylElement``, ``PbwElement``,
``SwapElement``, ``ExteriorElement``) are sparse sums: a dict ``terms``
from a hashable monomial to a nonzero coefficient.  They share
:class:`SparseElement`, which supplies ``+``, ``-``, unary ``-``,
``scale``, ``**``, ``is_zero``, ``render`` and ``__repr__``.  A subclass
must supply:

- ``_new(terms)``: a sibling over the same generators, basis, table or
  algebra, holding ``terms`` (which it takes ownership of);
- ``_one()``: the unit of its algebra;
- ``__mul__`` (accumulating through :func:`accumulate`) and, where the
  engine has a conjugation, ``bar``;
- ``__eq__`` (and ``__hash__`` where elements are hashed);
- ``_render_order()``: the monomials of ``terms`` in display order;
- ``_render_monomial(mono)``: the text of one monomial, ``""`` for the
  unit monomial.

Coefficients need ``+``, ``-``, unary ``-``, ``*``, ``is_zero()`` and
``render()``; ``Coefficient`` itself stays outside the base.

Equality of elements is decided *only* through canonical normal forms:
``equal(x, y)`` is ``(x - y).is_zero()``.  There is no randomized
equality anywhere; every residual check is a proof-grade check.
"""

from __future__ import annotations

from .scalars import C_HALF, C_INV_2I, Coefficient


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
    """Shared arithmetic of the sparse-sum element classes (see the
    module docstring for what a subclass supplies)."""

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


class Ring:
    """Bundle of ring capabilities used by generic matrix/verifier code."""

    def __init__(self, name, zero, one, from_coefficient=None, has_bar=False):
        self.name = name
        self.zero = zero
        self.one = one
        self._from_coefficient = from_coefficient
        self.has_bar = has_bar

    def from_coefficient(self, c):
        """Embed a scalar Coefficient as a ring element."""
        if not isinstance(c, Coefficient):
            c = Coefficient.from_rational(c)
        if self._from_coefficient is not None:
            return self._from_coefficient(c)
        return self.one.scale(c)

    def bar(self, x):
        if not self.has_bar:
            raise TypeError(f"ring {self.name} has no bar involution")
        return x.bar()

    def __repr__(self):
        return f"<Ring {self.name}>"


def equal(x, y):
    """True iff the canonical form of x - y is zero."""
    return (x - y).is_zero()


def commutator(x, y):
    """[x, y] = xy - yx."""
    return x * y - y * x


def re_part(x):
    """Re x = (x + bar x)/2."""
    return (x + x.bar()).scale(C_HALF)


def im_part(x):
    """Im x = (x - bar x)/(2i)."""
    return (x - x.bar()).scale(C_INV_2I)


# The Coefficient type itself satisfies the element contract once given
# a scale method; it is its own coefficient ring.
def _coefficient_scale(self, c):
    return self * c


Coefficient.scale = _coefficient_scale

COEFFICIENT_RING = Ring(
    "coefficient",
    Coefficient.zero(),
    Coefficient.one(),
    from_coefficient=lambda c: c,
    has_bar=True,
)
