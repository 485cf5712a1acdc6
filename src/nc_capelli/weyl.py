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
never wraps into the next field.  The guard bits also test
divisibility: every exponent of key a is at most that of key b exactly
when ((b | guard) - a) & guard == guard, since no field then borrows.
"""

from __future__ import annotations

from math import perm

from .ringapi import Ring
from .scalars import G_HALF, G_I, G_ONE, SparseElement, _make

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
        fields = tuple((key >> s) & FIELD_MASK
                       for s in range(0, 2 * self.dshift, FIELD_BITS))
        return fields[:self.n], fields[self.n:]

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
    everything, and ``bar``, which acts on values, fixes it."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms=None):
        self.gens = gens
        self.terms = terms if terms is not None else {}

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

    def _new(self, terms):
        return WeylElement(self.gens, terms)

    def _one(self):
        return WeylElement.one(self.gens)

    # --- ring ops -----------------------------------------------------

    def _require_same(self, other):
        if self.gens is not other.gens and self.gens != other.gens:
            raise ValueError("elements from different generator sets")

    def bar(self):
        """Conjugation: generators are real, so bar acts on coefficients."""
        return WeylElement(
            self.gens, {m: c.bar() for m, c in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.keys())))

    def __mul__(self, other):
        """Normal-ordered product (see _mul_kernel)."""
        self._require_same(other)
        return WeylElement(
            self.gens, _mul_kernel(self.gens, self.terms, other.terms, {}))

    def __pow__(self, n):
        """Raises OverflowError before it multiplies when the power of a
        monomial of self would have an exponent above EXP_LIMIT."""
        top = max((e for k in self.terms for _, e in _fields(k)), default=0)
        if top * n > EXP_LIMIT:
            _overflow()
        return SparseElement.__pow__(self, n)

    # --- polynomial-specific operations ------------------------------

    def is_polynomial(self):
        limit = 1 << self.gens.dshift
        return all(k < limit for k in self.terms)

    def apply(self, p):
        """Act as a differential operator on the polynomial p."""
        return WeylElement(self.gens, self.apply_into(p, {}))

    def apply_into(self, p, out, negate=False):
        """Add each term of self acting on the polynomial p, negated if
        ``negate``, straight into the dict ``out``; returns out.  p is
        differentiated once per derivative part d^u of self (a term of p
        with fewer x_g than d^u has d_g is skipped before any value
        multiplies), and the x^v values of that part times the derivative
        go through _mul_kernel, with no derivative on the left."""
        self._require_same(p)
        if not p.is_polynomial():
            raise ValueError("apply target must be a polynomial")
        gens = self.gens
        dshift, guard = gens.dshift, gens.guard
        groups = {}
        for k, c in self.terms.items():
            u = k >> dshift
            groups.setdefault(u, {})[k ^ (u << dshift)] = c
        for u, coeffs in groups.items():
            dsup = _fields(u)
            derivative = {}
            for kp, cp in p.terms.items():
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

    # --- rendering ----------------------------------------------------

    def _render_order(self):
        exponents = self.gens.exponents

        def order(mono):
            v, u = exponents(mono)
            return sum(v) + sum(u), v, u

        return sorted(self.terms, key=order, reverse=True)

    def _render_monomial(self, mono):
        v, u = self.gens.exponents(mono)
        names = self.gens.names
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
    never zero and only sums are pruned.  The Leibniz rule is written once, as a two-branch step for
    a left term whose derivative part is empty or one first-order d_g:
    x^v d_g x^w = x^(v+w) d_g + w_g x^(v+w-e_g).  A left term x^v d^u of
    higher order keeps one d_g of its highest field for that step and
    first applies the others to the right dict, one d_g at a time, in a
    loop (x^v d^u R = x^v d_g (d^(u-e_g) R)), each a call of
    this kernel with the first-order key d_g and the int value 1 into a
    fresh dict, so the kernel never nests deeper than one call.  A
    field whose x_g occurs in no term of the running dict stays in the
    left key: there the d_g are a plain key add.  Callers:
    ``WeylElement.__mul__`` and ``apply_into``, ``exact_divide`` and
    ``GaussIntWeyl.mul_into``.
    """
    dshift, guard = gens.dshift, gens.guard
    get = out.get
    for k1, c1 in left.items():
        if negate:
            c1 = -c1
        u = k1 >> dshift
        terms = right
        xshift = -1
        while u:
            xshift = (u & -u).bit_length() - 1
            xshift -= xshift % FIELD_BITS
            step = (1 << xshift) | (1 << (xshift + dshift))
            a = (u >> xshift) & FIELD_MASK
            u -= a << xshift
            if not u:
                a -= 1
            if a and any((k >> xshift) & FIELD_MASK for k in terms):
                unit = {1 << (xshift + dshift): 1}
                for _ in range(a):
                    terms = _mul_kernel(gens, unit, terms, {})
                k1 -= a << (xshift + dshift)
        for k2, c2 in terms.items():
            key = k1 + k2
            if key & guard:
                _overflow()
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
            if xshift < 0:
                continue
            b = (k2 >> xshift) & FIELD_MASK
            if b:
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


class GaussIntWeyl:
    """A Weyl element scaled into Z[i]: its real and imaginary parts as
    two {key: int} dicts, the pair ``terms``.

    ``matrixops.coldet`` expands every Weyl matrix in this form
    (``matrixops.gauss_int_coldet``), so the kernel adds and multiplies
    Python ints and builds one GaussianRational per result term at the
    end (``to_weyl``).  It has what ``matrixops._laplace`` asks of an
    entry and a minor: truth, ``_new`` and ``mul_into``.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens, re, im):
        self.gens = gens
        self.terms = (re, im)

    @staticmethod
    def from_weyl(w, scale):
        """w times the int ``scale``, a multiple of every denominator
        of w's values."""
        re, im = {}, {}
        for k, c in w.terms.items():
            m = scale // c.d
            if c.p:
                re[k] = c.p * m
            if c.q:
                im[k] = c.q * m
        return GaussIntWeyl(w.gens, re, im)

    def to_weyl(self, den):
        """The WeylElement self / den."""
        re, im = self.terms
        terms = {k: _make(p, im.get(k, 0), den) for k, p in re.items()}
        terms.update((k, _make(0, q, den)) for k, q in im.items()
                     if k not in re)
        return WeylElement(self.gens, terms)

    def __bool__(self):
        re, im = self.terms
        return bool(re or im)

    def _new(self, re):
        """A sibling with real part ``re`` and no imaginary part."""
        return GaussIntWeyl(self.gens, re, {})

    def mul_into(self, other, out, negate=False):
        """Add self*other, negated if ``negate``, into the pair of dicts
        ``out``: re*re - im*im into the real part, re*im + im*re into
        the imaginary part, skipping an empty part; returns out."""
        gens = self.gens
        re, im = self.terms
        ore, oim = other.terms
        out_re, out_im = out
        if re:
            if ore:
                _mul_kernel(gens, re, ore, out_re, negate)
            if oim:
                _mul_kernel(gens, re, oim, out_im, negate)
        if im:
            if oim:
                _mul_kernel(gens, im, oim, out_re, not negate)
            if ore:
                _mul_kernel(gens, im, ore, out_im, negate)
        return out


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
        v = p.gens.exponents(key)[0]
        var = [0] * target.n
        der = [0] * target.n
        for name, e in zip(p.gens.names, v):
            if not e:
                continue
            if name in momentum_map:
                der[target.index[momentum_map[name]]] += e
            else:
                var[target.index[name]] += e
        out = out + WeylElement(target, {target.key(var, der): c})
    return out


def exact_divide(p, q):
    """Exact polynomial division p / q; raises NotDivisible otherwise.

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
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    gens, guard = p.gens, p.gens.guard
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
