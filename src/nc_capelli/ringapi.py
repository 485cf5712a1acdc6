"""The ring contract shared by all algebra engines.

Every engine (weyl, pbw, swapalg) exposes elements that are immutable
values supporting ``+``, ``-``, unary ``-``, ``*``, ``is_zero()`` and
``scale(c)`` (c a ``GaussianRational`` or rational); engines with a
conjugation additionally expose ``bar()``.  Every value is a
``GaussianRational``: a central parameter is a generator (Weyl) or a
letter (PBW, swap) of the host, so a scalar c embeds as
``ring.one.scale(c)``.  A :class:`Ring` bundles the distinguished
elements that generic code (matrices, verifiers) needs, so matrix
algorithms stay agnostic of the host.

The element classes are sparse sums built on ``scalars.SparseElement``;
its docstring lists what a subclass supplies.  Each element holds its
algebra as ``parent`` (a generator set, swap table or exterior
algebra); the operands of ``+``, ``-``, ``*`` and ``apply`` share a
parent, or the operation raises ``ValueError``.

Equality of elements is decided *only* through canonical normal forms:
for x and y of one parent, ``x == y`` exactly when ``(x - y).is_zero()``.
There is no randomized equality anywhere; every residual check is a
proof-grade check.
"""

from __future__ import annotations

from .scalars import G_HALF, G_INV_2I


class Ring:
    """Bundle of ring capabilities used by generic matrix/verifier code."""

    def __init__(self, name, zero, one):
        self.name = name
        self.zero = zero
        self.one = one

    def __repr__(self):
        return f"<Ring {self.name}>"


def commutator(x, y):
    """[x, y] = xy - yx."""
    return x * y - y * x


def re_part(x):
    """Re x = (x + bar x)/2."""
    return (x + x.bar()).scale(G_HALF)


def im_part(x):
    """Im x = (x - bar x)/(2i)."""
    return (x - x.bar()).scale(G_INV_2I)
