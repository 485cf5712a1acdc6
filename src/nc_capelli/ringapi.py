"""The ring contract shared by all algebra engines.

Every engine (scalars, weyl, pbw, swapalg) exposes elements that are
immutable values supporting ``+``, ``-``, unary ``-``, ``*``,
``is_zero()`` and ``scale(c)`` (c a ``Coefficient``, ``GaussianRational``
or rational); engines with a conjugation additionally expose ``bar()``.
Weyl terms hold ``GaussianRational`` values (a parameter is a Weyl
generator), PBW and swap terms ``Coefficient``s.  A :class:`Ring`
bundles the distinguished elements that generic code (matrices,
verifiers) needs, so matrix algorithms stay agnostic of the host.

The element classes, ``Coefficient`` included, are sparse sums built on
``scalars.SparseElement``; its docstring lists what a subclass supplies.

Equality of elements is decided *only* through canonical normal forms:
``x == y`` exactly when ``(x - y).is_zero()``.  There is no randomized
equality anywhere; every residual check is a proof-grade check.
"""

from __future__ import annotations

from .scalars import C_HALF, C_INV_2I, Coefficient


class Ring:
    """Bundle of ring capabilities used by generic matrix/verifier code."""

    def __init__(self, name, zero, one):
        self.name = name
        self.zero = zero
        self.one = one

    def from_coefficient(self, c):
        """Embed a scalar Coefficient (or rational) as a ring element."""
        return self.one.scale(c)

    def __repr__(self):
        return f"<Ring {self.name}>"


def commutator(x, y):
    """[x, y] = xy - yx."""
    return x * y - y * x


def re_part(x):
    """Re x = (x + bar x)/2."""
    return (x + x.bar()).scale(C_HALF)


def im_part(x):
    """Im x = (x - bar x)/(2i)."""
    return (x - x.bar()).scale(C_INV_2I)


COEFFICIENT_RING = Ring("coefficient", Coefficient.zero(), Coefficient.one())
