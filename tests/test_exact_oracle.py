"""Gamma's polynomials against exact arithmetic on the assembled closed loop.

``stability`` builds Num and Den as one product with a fixed basis.
With dyadic coefficients and gains every float here is an exact rational,
so sympy can check both against the state-space realization of
``_oracle_model``: Den * gamma^m = det(sI - A_cl) and
Num * phi^n = C adj(sI - A_cl) H.  The adjugate side is a polynomial of
degree below dim(A_cl), so it is compared at dim integer points, each
as det(sI - A_cl) times one exact linear solve.
"""

import itertools

import numpy as np
import pytest

from lcc import FeedbackGains, LinearCoeffs, TransferSpec
from lcc import stability

sympy = pytest.importorskip("sympy")

COEFFS = LinearCoeffs(alpha1=0.75, alpha2=1.5, alpha3=0.5)


def _dyadic_gains(m, n):
    ids = list(range(-m, 0)) + list(range(1, n + 1))
    return FeedbackGains.from_pairs({i: (0.25 * i - 0.5, 0.125 * i + 0.75) for i in ids})


def _polyval_exact(coefs, point):
    return sum(sympy.Rational(c) * point**i for i, c in enumerate(coefs))


@pytest.mark.parametrize("m, n", list(itertools.product(range(3), repeat=2)))
def test_polynomials_match_exact_state_space(m, n):
    spec = TransferSpec(m=m, n=n, coeffs=COEFFS, gains=_dyadic_gains(m, n))
    row = np.concatenate([[1.0], *stability._gain_arrays(spec)])
    num, den = stability._polynomials(spec, row[None])
    model, A_cl, C = stability._oracle_model(spec)

    def exact(a):
        return sympy.Matrix(a).applyfunc(sympy.Rational)

    s = sympy.Symbol("s")
    A, H, Cx = exact(A_cl), exact(model.H), exact(C[None, :])
    charpoly = A.charpoly(s).as_expr()
    gamma = s**2 + sympy.Rational(COEFFS.alpha2) * s + sympy.Rational(COEFFS.alpha1)
    assert sympy.expand(_polyval_exact(den[0], s) * gamma**m - charpoly) == 0

    for point in range(model.dim):
        lhs = point * sympy.eye(model.dim) - A
        adjugate = (Cx * lhs.LUsolve(H))[0] * lhs.det()
        phi = sympy.Rational(COEFFS.alpha1) + sympy.Rational(COEFFS.alpha3) * point
        assert _polyval_exact(num[0], point) * phi**n == adjugate
