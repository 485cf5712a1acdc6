"""Weyl algebra of polynomial-coefficient differential operators.

Generators come in pairs {x_g, d_g} over a fixed ordered list of real
variable names; elements are kept in Wick (normal) order: variables to
the left of derivatives, with [d_g, x_g] = 1.  Commutative polynomials
are the derivative-free subset.  Complex variables z = x + i*y and
d_z = (d_x - i*d_y)/2 are *derived* linear combinations, never
primitive generators — all bar-commutation relations between
holomorphic and antiholomorphic elements then hold automatically.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb, perm

from .ringapi import Ring
from .scalars import (
    C_HALF,
    C_I,
    G_ONE,
    GaussianRational,
    SparseElement,
    accumulate,
)


class NotDivisible(Exception):
    """Raised when exact_divide finds a non-exact division."""


class GeneratorSet:
    """Ordered, immutable set of variable names."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.names = names
        self.index = {name: k for k, name in enumerate(names)}
        self.n = len(names)
        self._zero_exp = (0,) * self.n

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"GeneratorSet({list(self.names)})"


_int_gauss = cache(GaussianRational)


class WeylElement(SparseElement):
    """Sparse normal-ordered sum: dict (varExp, derExp) -> value, a bare
    GaussianRational where no parameter occurs and a Coefficient where
    one does (a constant Coefficient left by a cancelled parameter equals
    and hashes as its bare value, so ``==`` never depends on the form)."""

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
        return WeylElement(gens, {(gens._zero_exp, gens._zero_exp): G_ONE})

    @staticmethod
    def variable(gens, name):
        v = list(gens._zero_exp)
        v[gens.index[name]] = 1
        return WeylElement(gens, {(tuple(v), gens._zero_exp): G_ONE})

    @staticmethod
    def derivative(gens, name):
        d = list(gens._zero_exp)
        d[gens.index[name]] = 1
        return WeylElement(gens, {(gens._zero_exp, tuple(d)): G_ONE})

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
            self.gens, _mul_kernel(self.gens, self.terms, other.terms))

    # --- polynomial-specific operations ------------------------------

    def is_polynomial(self):
        zero = self.gens._zero_exp
        return all(u == zero for _, u in self.terms)

    def apply(self, p):
        """Act as a differential operator on the polynomial p."""
        self._require_same(p)
        if not p.is_polynomial():
            raise ValueError("apply target must be a polynomial")
        zero = self.gens._zero_exp
        pitems = [(vp, cp) for (vp, _), cp in p.terms.items()]

        def products(vop, uop, cop):
            for vp, cp in pitems:
                # d^a x^b = a! C(b, a) x^(b-a) on polynomials
                factor = 1
                for a, b in zip(uop, vp):
                    if a:
                        factor *= perm(b, a)
                        if not factor:
                            break
                if not factor:
                    continue
                mono = (tuple(a + b - k for a, b, k in zip(vop, vp, uop)), zero)
                cc = cop * cp
                yield mono, (cc if factor == 1 else cc * _int_gauss(factor))

        out = {}
        for (vop, uop), cop in self.terms.items():
            accumulate(out, products(vop, uop, cop))
        return WeylElement(self.gens, out)

    # --- rendering ----------------------------------------------------

    def _render_order(self):
        return sorted(
            self.terms, key=lambda m: (sum(m[0]) + sum(m[1]), m[0], m[1]),
            reverse=True,
        )

    def _render_monomial(self, mono):
        v, u = mono
        names = self.gens.names
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, v) if e]
        factors += [f"d{name}" if e == 1 else f"d{name}^{e}"
                    for name, e in zip(names, u) if e]
        return "*".join(factors)


def _reorder(gens, u, v):
    """Expand d^u * x^v into normal order.

    Yields (k_vector, integer factor) pairs such that
    d^u x^v = sum_k factor * x^(v-k) d^(u-k), per-generator Leibniz:
    d^a x^b = sum_k k! C(a,k) C(b,k) x^(b-k) d^(a-k).
    """
    choices = [
        [(g, k, comb(u[g], k) * perm(v[g], k))
         for k in range(min(u[g], v[g]) + 1)]
        for g in range(gens.n)
        if u[g] and v[g]
    ]
    for picks in product(*choices):
        kv = list(gens._zero_exp)
        factor = 1
        for g, k, f in picks:
            kv[g] = k
            factor *= f
        yield tuple(kv), factor


def _mul_kernel(gens, left, right):
    """Normal-ordered product of two {(varExp, derExp): value} dicts.

    Values need only ``+``, ``*`` and ``is_zero()``.  Left terms whose
    derivative part is empty or a single first-order d_g take a direct
    two-branch Leibniz step; everything else goes through the general
    _reorder expansion.
    """
    ritems = list(right.items())

    def products(v1, u1, c1):
        vsup = [(g, e) for g, e in enumerate(v1) if e]
        dsup = [(g, e) for g, e in enumerate(u1) if e]
        if not dsup or (len(dsup) == 1 and dsup[0][1] == 1):
            dg = dsup[0][0] if dsup else -1
            for (v2, u2), c2 in ritems:
                c = c1 * c2
                if vsup:
                    lv = list(v2)
                    for g, e in vsup:
                        lv[g] += e
                    vsum = tuple(lv)
                else:
                    vsum = v2
                if dg < 0:
                    yield (vsum, u2), c
                    continue
                lu = list(u2)
                lu[dg] += 1
                yield (vsum, tuple(lu)), c
                b = v2[dg]
                if b:
                    lv = list(v2)
                    lv[dg] -= 1
                    for g, e in vsup:
                        lv[g] += e
                    yield (tuple(lv), u2), c * _int_gauss(b)
            return
        for (v2, u2), c2 in ritems:
            c = c1 * c2
            for kv, factor in _reorder(gens, u1, v2):
                mono = (
                    tuple(a + b - k for a, b, k in zip(v1, v2, kv)),
                    tuple(a + b - k for a, b, k in zip(u1, u2, kv)),
                )
                yield mono, (c if factor == 1 else c * _int_gauss(factor))

    out = {}
    for (v1, u1), c1 in left.items():
        accumulate(out, products(v1, u1, c1))
    return out


def complex_pair(gens, base):
    """Return (z, dz) for the complex pair built on x<base>, y<base>:
    z = x + i*y, dz = (dx - i*dy)/2."""
    x = WeylElement.variable(gens, f"x{base}")
    y = WeylElement.variable(gens, f"y{base}")
    dx = WeylElement.derivative(gens, f"x{base}")
    dy = WeylElement.derivative(gens, f"y{base}")
    z = x + y.scale(C_I)
    dz = (dx - dy.scale(C_I)).scale(C_HALF)
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
    for (v, _), c in p.terms.items():
        var = [0] * target.n
        der = [0] * target.n
        for name, e in zip(p.gens.names, v):
            if not e:
                continue
            if name in momentum_map:
                der[target.index[momentum_map[name]]] += e
            else:
                var[target.index[name]] += e
        out = out + WeylElement(target, {(tuple(var), tuple(der)): c})
    return out


def _lead(p):
    return max(p.terms, key=lambda m: (sum(m[0]), m[0]))


def exact_divide(p, q):
    """Exact polynomial division p / q; raises NotDivisible otherwise.

    Coefficient division requires the leading coefficient of q to be a
    Gaussian-rational constant (true for every divisor the suite uses:
    determinant powers and Vandermonde factors); ValueError otherwise.
    """
    if not (p.is_polynomial() and q.is_polynomial()):
        raise ValueError("exact_divide works on polynomials")
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    gens = p.gens
    lq = _lead(q)
    cq = q.terms[lq]
    if not cq.terms.keys() <= {()}:
        raise ValueError(f"not a constant: {cq.render()}")
    inv = cq.terms[()].inverse()
    quotient = WeylElement.zero(gens)
    rem = p
    while not rem.is_zero():
        lr = _lead(rem)
        diff = tuple(a - b for a, b in zip(lr[0], lq[0]))
        if any(d < 0 for d in diff):
            raise NotDivisible(f"leading term {lr} not divisible by {lq}")
        c = rem.terms[lr] * inv
        t = WeylElement(gens, {(diff, gens._zero_exp): c})
        quotient = quotient + t
        rem = rem - t * q
    return quotient


def weyl_ring(gens):
    return Ring(
        f"weyl({','.join(gens.names)})",
        WeylElement.zero(gens),
        WeylElement.one(gens),
    )
