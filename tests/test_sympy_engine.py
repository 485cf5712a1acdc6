"""sympy as an independent engine for the commutative layer of the Weyl
algebra: column determinants of matrices whose entries commute (x only,
or derivatives only) against ``sympy.Matrix.det``, exact division
against ``sympy.div``, and the Capelli identity as an operator action
computed with ``sympy.diff``; and the Harish-Chandra image of the
shifted Capelli determinant against a product expanded by sympy.  Each
check has a negative control: a perturbed side must disagree."""

import random
from fractions import Fraction

import pytest

from nc_capelli import identities as idn
from nc_capelli import matrixops as mo
from nc_capelli import pbw, weyl
from nc_capelli.scalars import G_ZERO, GaussianRational
from nc_capelli.weyl import GeneratorSet, NotDivisible, WeylElement

sympy = pytest.importorskip("sympy")

GENS = GeneratorSet(["x", "y", "z"])
X = sympy.symbols("x y z")
D = sympy.symbols("dx dy dz")


def _random_terms(rng, degree, count):
    """[(exponents, value)]: count monomials of total degree <= degree
    with small nonzero Gaussian-integer values."""
    out = []
    for _ in range(count):
        exps = [0] * GENS.n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(GENS.n)] += 1
        out.append((tuple(exps),
                    (rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-1, 1))))
    return out


def _weyl(terms, derivative=False):
    zero = (0,) * GENS.n
    out = WeylElement.zero(GENS)
    for exps, (re, im) in terms:
        key = GENS.key(zero, exps) if derivative else GENS.key(exps, zero)
        out = out + WeylElement(GENS, {key: GaussianRational(re, im)})
    return out


def _sympy(terms, symbols):
    return sum((sympy.Integer(re) + sympy.I * im)
               * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
               for exps, (re, im) in terms)


def _value(c):
    return sympy.Rational(c.p, c.d) + sympy.I * sympy.Rational(c.q, c.d)


def _to_sympy(w, symbols):
    """A Weyl element whose monomials all lie in one part (x or d)."""
    out = sympy.Integer(0)
    for key, c in w.terms.items():
        v, u = GENS.exponents(key)
        exps = u if any(u) else v
        out += _value(c) * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
    return out


@pytest.mark.parametrize("derivative", [False, True], ids=["x", "d"])
@pytest.mark.parametrize("seed", range(4))
def test_coldet_matches_sympy_det(seed, derivative):
    """Entries in the x alone (or the d alone) commute, so the column
    determinant is the determinant."""
    rng = random.Random(seed)
    n = 2 + seed % 2
    symbols = D if derivative else X
    cells = [[_random_terms(rng, 2, rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
    ring = weyl.weyl_ring(GENS)
    ours = mo.coldet(mo.matrix(ring, [[_weyl(t, derivative) for t in row]
                                      for row in cells]))
    assert ours.is_polynomial() != derivative
    theirs = sympy.Matrix([[_sympy(t, symbols) for t in row] for row in cells])
    assert sympy.expand(_to_sympy(ours, symbols) - theirs.det()) == 0
    # negative control: one entry of the sympy side perturbed
    theirs[n - 1, 0] += symbols[0]
    assert sympy.expand(_to_sympy(ours, symbols) - theirs.det()) != 0


@pytest.mark.parametrize("seed", range(6))
def test_exact_divide_matches_sympy_div(seed):
    rng = random.Random(seed)
    p = _random_terms(rng, 2, 3)
    q = _random_terms(rng, 2, 2) + [((1, 1, 1), (1, 0))]  # not a constant
    P, Q = _sympy(p, X), _sympy(q, X)
    quotient, rest = sympy.div(sympy.expand(P * Q), Q, *X)
    assert sympy.expand(rest) == 0
    ours = weyl.exact_divide(_weyl(p) * _weyl(q), _weyl(q))
    assert sympy.expand(_to_sympy(ours, X) - quotient) == 0
    # negative control: a perturbed quotient disagrees
    assert sympy.expand(_to_sympy(ours, X) + X[1] - quotient) != 0
    # a dividend that sympy leaves a remainder on is not divisible
    r = [((0, 0, 0), (1, 0))]
    _, rest = sympy.div(sympy.expand(P * Q + _sympy(r, X)), Q, *X)
    assert sympy.expand(rest) != 0
    with pytest.raises(NotDivisible):
        weyl.exact_divide(_weyl(p) * _weyl(q) + _weyl(r), _weyl(q))


def _diff(f, symbols, exps):
    """d^exps f, by sympy.diff."""
    for s, e in zip(symbols, exps):
        f = sympy.diff(f, s, e)
    return f


def _act(w, symbols, f):
    """The Weyl operator w acting on the sympy polynomial f: each term
    c x^v d^u takes f to c x^v (d^u f)."""
    out = sympy.Integer(0)
    for key, c in w.terms.items():
        v, u = w.parent.exponents(key)
        out += (_value(c) * sympy.Mul(*(s ** e for s, e in zip(symbols, v)))
                * _diff(f, symbols, u))
    return sympy.expand(out)


def _det_of_derivatives(n, symbols, f):
    """det(D) f for the n x n matrix D of the derivatives d/dz_ij, all
    in sympy: the derivatives commute, so det(D) is the polynomial
    det(Z) with each z_ij read as d/dz_ij."""
    det = sympy.Poly(sympy.Matrix(n, n, symbols).det(), *symbols)
    return sum(coeff * _diff(f, symbols, exps) for exps, coeff in det.terms())


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_capelli_action_matches_sympy(seed, n):
    """capelli.plain by operator action: coldet(Z D^t + diag(n-1, ..., 0))
    (a parameter-free Weyl matrix, so coldet runs on Gaussian integers),
    applied by sympy.diff to a random polynomial f, equals
    det(Z) det(D) f computed wholly in sympy.  Negative control at n = 2:
    without the shifts the actions differ."""
    rng = random.Random(seed)
    ring, gens, Z, D = idn.classical_weyl(n, "plain")
    symbols = sympy.symbols(gens.names)
    # z_11 ... z_nn makes det(D) f nonzero; the rest is random
    f = sympy.Mul(*symbols[::n + 1]) * (1 + symbols[rng.randrange(n * n)])
    for _ in range(4):
        f += rng.randint(-3, 3) * sympy.Mul(
            *(rng.choice(symbols) for _ in range(rng.randint(0, 3))))
    ZDt = mo.matmul(Z, mo.transpose(D))
    lhs = mo.coldet(ZDt + idn.shift_diag(ring, idn.capelli_shifts(n)))
    rhs = sympy.expand(sympy.Matrix(n, n, symbols).det()
                       * _det_of_derivatives(n, symbols, f))
    assert rhs != 0
    assert _act(lhs, symbols, f) == rhs
    if n == 2:
        assert _act(mo.coldet(ZDt), symbols, f) != rhs


def _hc_image(n, half):
    """hc(coldet(E + diag(n-1, ..., 0) - half)) over U(gl_n), built as
    ``verify_hc_image`` builds it, rendered and parsed by sympy."""
    _, ring, E = idn.gln_E_matrix(n)
    shifts = [s - half for s in idn.capelli_shifts(n)]
    image = pbw.hc_projection(mo.coldet(E + idn.shift_diag(ring, shifts)))
    return sympy.sympify(image.render().replace("^", "**"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hc_image_matches_sympy(n):
    """center.hc: the image is prod_i (lam_i + (n+1-2i)/2), expanded by
    sympy.  Negative control for n >= 2: without the -(n-1)/2 shift the
    two disagree."""
    lam = sympy.symbols(f"lam1:{n + 1}")
    expected = sympy.expand(sympy.Mul(*(
        lam[i - 1] + sympy.Rational(n + 1 - 2 * i, 2) for i in range(1, n + 1))))
    half = GaussianRational(Fraction(n - 1, 2))
    assert sympy.expand(_hc_image(n, half) - expected) == 0
    if n >= 2:
        assert sympy.expand(_hc_image(n, G_ZERO) - expected) != 0


def _act_coldet(rows, symbols, f):
    """coldet of the matrix ``rows`` acting on f, with no product of two
    entries: the Laplace recursion along the first column,
    coldet(M) f = sum_i (-1)^i M_i1 (coldet(M without row i, column 1) f),
    each entry acting by _act."""
    if not rows:
        return f
    return sympy.expand(sum(
        (-1) ** i * _act(row[0], symbols, _act_coldet(
            [r[1:] for k, r in enumerate(rows) if k != i], symbols, f))
        for i, row in enumerate(rows)))


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("kind", ["plain", "symmetric"])
def test_decomplexified_action_on_undefined_function(kind, sign):
    """decomplex.square at n = 1, acting on an undefined f(x11, y11):
    coldet(Z^R (D^t)^R + CorrTriDiag) f equals det(Z^R) (coldet((D^t)^R) f),
    both column determinants acting entry by entry through _act_coldet.
    The derivatives of f are independent over the polynomials, so equal
    actions mean equal operators, and no entry needs a Leibniz step, so
    neither side rests on the package's determinant, product or apply.
    Negative control: the shift 1 in place of 0 changes the action."""
    ring, gens, Z, D = idn.complex_weyl(1, kind)
    symbols = sympy.symbols(gens.names)
    f = sympy.Function("f")(*symbols)
    Dt = mo.transpose(D)
    rhs = _act_coldet(mo.decomplexify(Z).entries, symbols, _act_coldet(
        mo.decomplexify(Dt).entries, symbols, f))
    assert rhs != 0

    def lhs(shift):
        M = idn.corrected_matrix(mo.matmul(Z, Dt), mo.identity(ring, 1),
                                 idn.embed(ring, [shift]), sign)
        return _act_coldet(M.entries, symbols, f)

    assert sympy.expand(lhs(G_ZERO) - rhs) == 0
    assert sympy.expand(lhs(GaussianRational(1)) - rhs) != 0


@pytest.mark.parametrize("kind, shape", [("plain", "plain"),
                                         ("turnbull", "symmetric")],
                         ids=["plain", "turnbull"])
def test_classical_action_on_undefined_function(kind, shape):
    """capelli.<kind> at n = 2, acting on an undefined f of every
    variable: coldet(Z D^t + diag(1, 0)) f equals det(Z) (det(D^t) f),
    each column determinant acting entry by entry through _act_coldet,
    so neither side rests on the package's determinant or apply (an
    entry of Z D^t is a sum of z d, which needs no Leibniz step).
    Negative control: without the shifts the actions differ."""
    ring, gens, Z, D = idn.classical_weyl(2, shape)
    symbols = sympy.symbols(gens.names)
    f = sympy.Function("f")(*symbols)
    Dt = mo.transpose(D)
    rhs = _act_coldet(Z.entries, symbols, _act_coldet(Dt.entries, symbols, f))
    assert rhs != 0
    ZDt = mo.matmul(Z, Dt)
    lhs = _act_coldet(
        (ZDt + idn.shift_diag(ring, idn.capelli_shifts(2))).entries, symbols, f)
    assert sympy.expand(lhs - rhs) == 0
    assert sympy.expand(_act_coldet(ZDt.entries, symbols, f) - rhs) != 0
