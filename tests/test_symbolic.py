"""Exact identities of the segment polynomials and the flat-ended blend.

The coefficient functions run on sympy symbols; nsimplify turns their
floating constants into rationals, so every identity below is checked as an
identity of rational functions, not at sample points.
"""

import pytest

from quadspline.patch import _blend
from quadspline.splines import _COEFF_ALL, D3C1P2S4, D5C2P2S4

sympy = pytest.importorskip("sympy")

BOTH = [D3C1P2S4, D5C2P2S4]
dm, d0, dp, dq = sympy.symbols("dm d0 dp dq", positive=True)
x, t = sympy.symbols("x t")


def rational(expr):
    return sympy.nsimplify(expr, rational=True)


def is_zero(expr):
    return sympy.cancel(sympy.together(expr)) == 0


def basis(fam, d):
    """The four nonzero basis polynomials (offsets -1..2) in x on the
    segment [0, d[1]] of the interval triple d."""
    return [sum(rational(c) * x ** j for j, c in enumerate(coeffs))
            for coeffs in _COEFF_ALL[fam.name](*d)]


@pytest.mark.parametrize("fam", BOTH, ids=lambda f: f.name)
def test_partition_of_unity(fam):
    assert is_zero(sum(basis(fam, (dm, d0, dp))) - 1)


@pytest.mark.parametrize("fam", BOTH, ids=lambda f: f.name)
def test_delta_property_at_both_ends(fam):
    psi = basis(fam, (dm, d0, dp))
    for at, want in ((0, (0, 1, 0, 0)), (d0, (0, 0, 1, 0))):
        assert all(is_zero(p.subs(x, at) - w) for p, w in zip(psi, want))


@pytest.mark.parametrize("fam", BOTH, ids=lambda f: f.name)
def test_quadratics_reproduced_from_the_knots(fam):
    psi = basis(fam, (dm, d0, dp))
    knots = (-dm, 0, d0, d0 + dp)
    for f in (lambda s: 1, lambda s: s, lambda s: s * s):
        assert is_zero(sum(p * f(k) for p, k in zip(psi, knots)) - f(x))


@pytest.mark.parametrize("fam", BOTH, ids=lambda f: f.name)
def test_continuity_across_a_knot(fam):
    """Segments [t0, t1] and [t1, t2] of knots t_-1..t_3 spaced dm, d0, dp,
    dq: every basis function's derivatives through the family continuity
    agree at t1, and those of t_-1 and t_3 vanish there."""
    left = basis(fam, (dm, d0, dp))     # knots t_-1..t_2, x from t0
    right = basis(fam, (d0, dp, dq))    # knots t_0..t_3, x from t1
    for r in range(fam.continuity + 1):
        a = [sympy.diff(p, x, r).subs(x, d0) for p in left] + [0]
        b = [0] + [sympy.diff(p, x, r).subs(x, 0) for p in right]
        assert all(is_zero(u - v) for u, v in zip(a, b))


@pytest.mark.parametrize("k", [1, 2])
def test_blend_is_flat_ended(k):
    b = rational(_blend(k, t))
    assert sympy.degree(b, t) == 2 * k + 1
    assert b.subs(t, 0) == 0 and b.subs(t, 1) == 1
    for r in range(1, k + 1):
        for end in (0, 1):
            assert sympy.diff(b, t, r).subs(t, end) == 0
    # monotone in between: the slope is a positive multiple of t^k (1-t)^k
    slope = sympy.cancel(sympy.diff(b, t) / (t ** k * (1 - t) ** k))
    assert slope.is_number and slope > 0
