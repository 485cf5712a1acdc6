"""Weyl algebra of polynomial-coefficient differential operators.

Generators come in pairs {x_g, d_g} over a fixed ordered list of real
variable names; elements are kept in Wick (normal) order: variables to
the left of derivatives, with [d_g, x_g] = 1.  Commutative polynomials
are the derivative-free subset.  Complex variables z = x + i*y and
d_z = (d_x - i*d_y)/2 are *derived* linear combinations, never
primitive generators — all bar-commutation relations between
holomorphic and antiholomorphic elements then hold automatically.

A monomial x^v d^u is one Python int, its key, made of fixed-width
fields of B = FIELD_BITS bits (packed exponent vectors, as in
Monagan–Pearce): over n generators the exponent of x_g sits in field g
and that of d_g in field g + n, so the x fields come first, from the
low bits.  Two monomials whose derivatives meet none of the other's
variables multiply by adding their keys; each Leibniz step at generator
g (one at a time) subtracts (1 << B*g) + (1 << B*(g+n)).  The top bit of
every field is a guard: an exponent above EXP_LIMIT = 2**(B-1) - 1
raises OverflowError, from a key, a product, ``apply`` or ``**``, and
never wraps into the next field.  A product tests the guard once per
left key k1, against the bitwise OR of the right keys: two fields of at
most EXP_LIMIT add without a carry, and the OR bounds each field of
every right key, so no guard bit in k1 + OR proves that no pair
overflows.  The OR can pass every key (2**(B-2) | 2**(B-2) - 1 is
EXP_LIMIT), so when a guard bit is set the pairs are tested one by one.
A Leibniz step lowers two fields of a sum that passed, so it never
overflows.  The guard bits also test divisibility: every exponent of
key a is at most that of key b exactly when
((b | guard) - a) & guard == guard, since no field then borrows.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm, perm
from operator import or_

from .ringapi import Ring
from .scalars import (G_HALF, G_I, G_ONE, SparseElement, _make,
                      require_same_parent)

# Chosen by measurement: the rect n = 3 column determinants ran as fast
# with 16-bit fields as with 8-bit ones, so the wider field is kept
# (exponents up to 32767 rather than 127).
FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
EXP_LIMIT = (1 << (FIELD_BITS - 1)) - 1


class NotDivisible(Exception):
    """Raised when exact_divide finds a non-exact division."""


def _overflow():
    raise OverflowError(f"Weyl exponent above {EXP_LIMIT}")


def _fields(u):
    """[(shift, value)] of the nonzero fields of a packed int u."""
    out = []
    while u:
        shift = (u & -u).bit_length() - 1
        shift -= shift % FIELD_BITS
        e = (u >> shift) & FIELD_MASK
        out.append((shift, e))
        u ^= e << shift
    return out


class GeneratorSet:
    """Ordered, immutable set of variable names; it owns the layout of
    the packed monomial keys (see the module docstring)."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.names = names
        self.index = {name: k for k, name in enumerate(names)}
        self.n = n = len(names)
        self.dshift = FIELD_BITS * n  # the d fields start at this bit
        self.guard = sum(1 << (FIELD_BITS * f + FIELD_BITS - 1)
                         for f in range(2 * n))

    def key(self, v, u):
        """The key of x^v d^u, for exponent sequences v and u of length n."""
        if len(v) != self.n or len(u) != self.n:
            raise ValueError(f"expected {self.n} exponents per part")
        k = 0
        for f, e in enumerate((*v, *u)):
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e > EXP_LIMIT:
                _overflow()
            k |= e << (FIELD_BITS * f)
        return k

    def exponents(self, key):
        """(v, u): the x and d exponent tuples of a key."""
        # a list, as tuple() of a generator parks resized tuples on a free list
        fields = [(key >> s) & FIELD_MASK
                  for s in range(0, 2 * self.dshift, FIELD_BITS)]
        return tuple(fields[:self.n]), tuple(fields[self.n:])

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"GeneratorSet({list(self.names)})"


class WeylElement(SparseElement):
    """Sparse normal-ordered sum: dict packed key -> nonzero
    GaussianRational value.  A central parameter is one more generator of
    the same name: no derivative of it ever occurs, so it commutes with
    everything, and ``bar``, which acts on values, fixes it.  The parent
    is the ``GeneratorSet``."""

    __slots__ = ()

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(gens):
        return WeylElement(gens, {})

    @staticmethod
    def one(gens):
        return WeylElement(gens, {0: G_ONE})

    @staticmethod
    def variable(gens, name):
        return WeylElement(
            gens, {1 << (FIELD_BITS * gens.index[name]): G_ONE})

    @staticmethod
    def derivative(gens, name):
        return WeylElement(
            gens, {1 << (gens.dshift + FIELD_BITS * gens.index[name]): G_ONE})

    def _one(self):
        return WeylElement.one(self.parent)

    # --- ring ops -----------------------------------------------------

    def bar(self):
        """Conjugation: generators are real, so bar acts on coefficients."""
        return WeylElement(
            self.parent, {m: c.bar() for m, c in self.terms.items()}
        )

    def __hash__(self):
        return hash((self.parent, frozenset(self.terms.keys())))

    def __mul__(self, other):
        """Normal-ordered product (see _mul_kernel)."""
        if not isinstance(other, WeylElement):
            return NotImplemented
        gens = self.parent
        require_same_parent(gens, other.parent)
        return WeylElement(gens, _mul_kernel(gens, self.terms, other.terms, {}))

    def __pow__(self, n):
        """Raises OverflowError before it multiplies when the power of a
        monomial of self would have an exponent above EXP_LIMIT."""
        top = max((e for k in self.terms for _, e in _fields(k)), default=0)
        if top * n > EXP_LIMIT:
            _overflow()
        return SparseElement.__pow__(self, n)

    # --- polynomial-specific operations ------------------------------

    def is_polynomial(self):
        limit = 1 << self.parent.dshift
        return all(k < limit for k in self.terms)

    def apply(self, p):
        """Act as a differential operator on the polynomial p."""
        gens = self.parent
        require_same_parent(gens, p.parent)
        return WeylElement(gens, _apply(gens, self.terms, p.terms, {}))

    # --- rendering ----------------------------------------------------

    def _render_order(self):
        exponents = self.parent.exponents

        def order(mono):
            v, u = exponents(mono)
            return sum(v) + sum(u), v, u

        return sorted(self.terms, key=order, reverse=True)

    def _render_monomial(self, mono):
        v, u = self.parent.exponents(mono)
        names = self.parent.names
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, v) if e]
        factors += [f"d{name}" if e == 1 else f"d{name}^{e}"
                    for name, e in zip(names, u) if e]
        return "*".join(factors)


def _mul_kernel(gens, left, right, out, negate=False):
    """Add the normal-ordered product of two {key: value} dicts into the
    dict ``out``, negated if ``negate``; returns out.

    Values need only ``+``, unary ``-``, ``*`` (with each other and with
    an int on either side) and truth (zero is false): the
    ``GaussianRational`` values of a ``WeylElement``, or the plain ints
    of ``GaussIntWeyl``.  They lie in a domain, so a product of two is
    never zero and only sums are pruned.  The Leibniz rule is written
    once, as a two-branch step for a left term whose derivative part is
    empty or one first-order d_g:
    x^v d_g x^w = x^(v+w) d_g + w_g x^(v+w-e_g).  A left term x^v d^u of
    higher order keeps one d_g of its highest field for that step and
    first applies the others to the right dict, one field at a time, in
    one binomial pass each (``_d_power``):
    x^v d^u R = x^v d_g (d^(u-e_g) R).

    Per left term the loop does only what its pairs need.  ``bound``,
    the bitwise OR of the running right keys (``top`` of the right dict,
    taken once per call, and retaken after each peel), bounds each field
    of every right key, so:
    - a field whose x_g occurs in no right term (its field of ``bound``
      is 0) stays in the left key, where its d_g are a plain key add;
    - the guard is tested once, on k1 + bound, and pair by pair only
      when that test fires (see the module docstring);
    - with no d_g left, or one whose x_g occurs in no right term, the
      pairs are a plain shift-and-accumulate loop, a loop of its own so
      that these pairs (half of a Gaussian-integer coldet's) skip the
      mask test;
    - otherwise one mask test per pair finds the right terms that carry
      x_g, the only ones with a Leibniz step.
    An empty left dict returns at once.  Callers: ``WeylElement.__mul__``,
    ``_apply``, ``exact_divide`` and ``GaussIntWeyl.mul_into``.
    """
    if not left:
        return out
    dshift, guard = gens.dshift, gens.guard
    get = out.get
    top = reduce(or_, right, 0)
    for k1, c1 in left.items():
        if negate:
            c1 = -c1
        u = k1 >> dshift
        terms, bound = right, top
        xshift = -1
        while u:
            xshift = (u & -u).bit_length() - 1
            xshift -= xshift % FIELD_BITS
            a = (u >> xshift) & FIELD_MASK
            u -= a << xshift
            if not u:
                a -= 1
            if a and (bound >> xshift) & FIELD_MASK:
                terms = _d_power(gens, terms, a, xshift)
                bound = reduce(or_, terms, 0)
                k1 -= a << (xshift + dshift)
        if (k1 + bound) & guard and any((k1 + k2) & guard for k2 in terms):
            _overflow()
        if xshift < 0 or not (bound >> xshift) & FIELD_MASK:
            for k2, c2 in terms.items():
                key = k1 + k2
                c = c1 * c2
                cur = get(key)
                if cur is None:
                    out[key] = c
                else:
                    s = cur + c
                    if s:
                        out[key] = s
                    else:
                        del out[key]
            continue
        hit = FIELD_MASK << xshift
        step = (1 << xshift) | (1 << (xshift + dshift))
        for k2, c2 in terms.items():
            key = k1 + k2
            c = c1 * c2
            cur = get(key)
            if cur is None:
                out[key] = c
            else:
                s = cur + c
                if s:
                    out[key] = s
                else:
                    del out[key]
            if k2 & hit:
                b = (k2 >> xshift) & FIELD_MASK
                key -= step
                if b != 1:
                    c = c * b
                cur = get(key)
                if cur is None:
                    out[key] = c
                else:
                    s = cur + c
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return out


def _apply(gens, op, p, out, negate=False):
    """Add the operator dict ``op`` acting on the polynomial dict ``p``,
    negated if ``negate``, into the dict ``out``; returns out.  Values as
    for _mul_kernel.  p is differentiated once per derivative part d^u of
    op (a term of p with fewer x_g than d^u has d_g is skipped before any
    value multiplies), and the x^v values of that part times the
    derivative go through _mul_kernel, with no derivative on the left.
    A target with a derivative raises ValueError.  Callers:
    ``WeylElement.apply`` and ``GaussIntWeyl.apply_into`` (through which
    ``matrixops.gauss_int_coldet(M, p)`` acts with a determinant)."""
    dshift, guard = gens.dshift, gens.guard
    limit = 1 << dshift
    if any(k >= limit for k in p):
        raise ValueError("apply target must be a polynomial")
    groups = {}
    for k, c in op.items():
        u = k >> dshift
        groups.setdefault(u, {})[k ^ (u << dshift)] = c
    for u, coeffs in groups.items():
        dsup = _fields(u)
        derivative = {}
        for kp, cp in p.items():
            # divisibility test of the module docstring
            if ((kp | guard) - u) & guard != guard:
                continue
            factor = 1
            for shift, a in dsup:
                factor *= perm((kp >> shift) & FIELD_MASK, a)
            derivative[kp - u] = cp if factor == 1 else cp * factor
        if derivative:
            _mul_kernel(gens, coeffs, derivative, out, negate)
    return out


def _d_power(gens, terms, a, xshift):
    """d_g^a times the {key: value} dict ``terms`` in one pass, x_g being
    the field at bit ``xshift``:
    d_g^a x_g^b = sum_j C(a, j) b!/(b-j)! x_g^(b-j) d_g^(a-j).
    Term j lies j Leibniz steps below the key of term 0, the only key
    that can overflow."""
    dshift, guard = gens.dshift, gens.guard
    step = (1 << xshift) | (1 << (xshift + dshift))
    out = {}
    get = out.get
    for k, c in terms.items():
        key = k + (a << (xshift + dshift))
        if key & guard:
            _overflow()
        b = (k >> xshift) & FIELD_MASK
        factor = 1  # C(a, j) b!/(b-j)!
        for j in range(min(a, b) + 1):
            v = c if factor == 1 else c * factor
            cur = get(key)
            if cur is None:
                out[key] = v
            else:
                s = cur + v
                if s:
                    out[key] = s
                else:
                    del out[key]
            factor = factor * (a - j) * (b - j) // (j + 1)
            key -= step
    return out


def _table(kernel):
    """The ``GaussIntWeyl`` method over ``kernel`` (_mul_kernel for
    ``mul_into``, _apply for ``apply_into``), one plain function, so that
    a call makes one Python frame before the kernel."""

    def into(self, right, out, negate=False):
        """Add the numerator of self*right (``mul_into``) or of self
        acting on the polynomial right (``apply_into``), negated if
        ``negate``, into the dict pair ``out``: re*re - im*im and
        re*im + im*re.  Only an empty part of ``right`` is skipped, so
        _apply checks every term of its target (_mul_kernel returns at
        once on an empty left part); returns out."""
        gens = self.gens
        re, im = self.terms
        rre, rim = right.terms
        out_re, out_im = out
        if rre:
            kernel(gens, re, rre, out_re, negate)
            kernel(gens, im, rre, out_im, negate)
        if rim:
            kernel(gens, re, rim, out_im, negate)
            kernel(gens, im, rim, out_re, not negate)
        return out

    return into


class GaussIntWeyl:
    """The Weyl element (re + i*im) / den: Gaussian-integer numerators,
    the {key: int} dicts of the pair ``terms``, over one int ``den``, as
    in FLINT's ``fmpq_poly``.  ``matrixops.gauss_int_coldet`` expands or
    acts with every Weyl determinant in this form, the Cayley sweeps carry
    det(X)^s and apply det(d) in it, and every Weyl Capelli verdict and
    note is decided by ``==`` in it, on ints; ``to_weyl`` builds Gaussian
    rationals.  ``mul_into`` and ``apply_into`` serve ``matrixops._laplace``.
    """

    __slots__ = ("gens", "terms", "den")

    def __init__(self, gens, re, im, den=1):
        self.gens = gens
        self.terms = (re, im)
        self.den = den

    @staticmethod
    def from_weyl(w, scale=None):
        """w over the int denominator ``scale``, a multiple of every
        denominator of w's values; by default their lcm."""
        scale = scale or lcm(*(c.d for c in w.terms.values()))
        re, im = {}, {}
        for k, c in w.terms.items():
            m = scale // c.d
            if c.p:
                re[k] = c.p * m
            if c.q:
                im[k] = c.q * m
        return GaussIntWeyl(w.parent, re, im, scale)

    def to_weyl(self):
        """The WeylElement that self stands for."""
        re, im = self.terms
        den = self.den
        terms = {k: _make(p, im.get(k, 0), den) for k, p in re.items()}
        terms.update((k, _make(0, q, den)) for k, q in im.items()
                     if k not in re)
        return WeylElement(self.gens, terms)

    def __bool__(self):
        re, im = self.terms
        return bool(re or im)

    def __len__(self):
        """The number of terms of ``to_weyl()``."""
        re, im = self.terms
        return len(re) + sum(k not in re for k in im)

    def __eq__(self, other):
        """Decided on ints: each part of one side is scaled by the other
        side's denominator over their gcd."""
        if not isinstance(other, GaussIntWeyl):
            return NotImplemented
        den, oden = self.den, other.den
        g = gcd(den, oden)
        return self.gens == other.gens and all(
            _times(a, oden // g) == _times(b, den // g)
            for a, b in zip(self.terms, other.terms))

    def __sub__(self, other):
        """The WeylElement self - other (it renders a nonzero residual)."""
        if not isinstance(other, GaussIntWeyl):
            return NotImplemented
        return self.to_weyl() - other.to_weyl()

    def __mul__(self, other):
        if not isinstance(other, GaussIntWeyl):
            return NotImplemented
        require_same_parent(self.gens, other.gens)
        return GaussIntWeyl(self.gens, *self.mul_into(other, ({}, {})),
                            self.den * other.den)

    def apply(self, p):
        """Act as a differential operator on the polynomial p."""
        require_same_parent(self.gens, p.gens)
        return GaussIntWeyl(self.gens, *self.apply_into(p, ({}, {})),
                            self.den * p.den)

    def _new(self, re):
        """A sibling over 1 with real part ``re`` and no imaginary part."""
        return GaussIntWeyl(self.gens, re, {})

    mul_into = _table(_mul_kernel)
    apply_into = _table(_apply)


def _times(part, m):
    """The {key: int} dict ``part`` times the int m, itself if m is 1."""
    return part if m == 1 else {k: v * m for k, v in part.items()}


def complex_pair(gens, base):
    """Return (z, dz) for the complex pair built on x<base>, y<base>:
    z = x + i*y, dz = (dx - i*dy)/2."""
    x = WeylElement.variable(gens, f"x{base}")
    y = WeylElement.variable(gens, f"y{base}")
    dx = WeylElement.derivative(gens, f"x{base}")
    dy = WeylElement.derivative(gens, f"y{base}")
    z = x + y.scale(G_I)
    dz = (dx - dy.scale(G_I)).scale(G_HALF)
    return z, dz


def wick(p, momentum_map, target):
    """Wick (normal-ordering) map.

    p is a commutative polynomial over a doubled generator set in which
    some generators are "momentum" symbols; momentum_map sends each
    momentum name to the target variable it differentiates.  Each
    monomial prod z^k * prod p^m maps to prod z^k * prod d^m with all
    variables to the left.
    """
    if not p.is_polynomial():
        raise ValueError("wick input must be a commutative polynomial")
    out = WeylElement.zero(target)
    for key, c in p.terms.items():
        v = p.parent.exponents(key)[0]
        var = [0] * target.n
        der = [0] * target.n
        for name, e in zip(p.parent.names, v):
            if not e:
                continue
            if name in momentum_map:
                der[target.index[momentum_map[name]]] += e
            else:
                var[target.index[name]] += e
        out = out + WeylElement(target, {target.key(var, der): c})
    return out


def exact_divide(p, q):
    """Exact polynomial division p / q; raises NotDivisible otherwise,
    and ValueError for p and q over two generator sets.

    A parameter of q is a generator like any other, so the leading value
    of q is a nonzero Gaussian rational.  The leading term is the one with
    the largest key: integer order on keys is lex order on exponents, and
    it respects products, which add keys (the guard bits keep a field
    from carrying).  Each quotient term times q is subtracted in place
    from the remainder dict, whose largest key falls at every step, so no
    key repeats.
    """
    if not (p.is_polynomial() and q.is_polynomial()):
        raise ValueError("exact_divide works on polynomials")
    require_same_parent(p.parent, q.parent)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    gens, guard = p.parent, p.parent.guard
    lq = max(q.terms)
    inv = q.terms[lq].inverse()
    quotient = {}
    rem = dict(p.terms)
    while rem:
        lr = max(rem)
        if ((lr | guard) - lq) & guard != guard:
            raise NotDivisible(f"leading term {gens.exponents(lr)} "
                               f"not divisible by {gens.exponents(lq)}")
        t = {lr - lq: rem[lr] * inv}
        quotient.update(t)
        _mul_kernel(gens, t, q.terms, rem, negate=True)
        if lr in rem:  # else the loop would never end
            raise ArithmeticError("leading term did not cancel")
    return WeylElement(gens, quotient)


def weyl_ring(gens):
    return Ring(
        f"weyl({','.join(gens.names)})",
        WeylElement.zero(gens),
        WeylElement.one(gens),
    )
