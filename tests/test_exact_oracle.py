"""Gamma's polynomials and the AU class against exact arithmetic.

``stability`` builds Num and Den as one product with a fixed basis.
With dyadic coefficients and gains every float here is an exact rational,
so sympy can check both against the state-space realization of
``oracles.oracle_model``: Den * gamma^m = det(sI - A_cl) and
Num * phi^n = C adj(sI - A_cl) H.  The adjugate side is a polynomial of
degree below dim(A_cl), so it is compared at dim integer points, each
as det(sI - A_cl) times one exact linear solve.

The AU class, from the Routh array of the double Den(s + EIG_TOL), is
checked against ``oracles.au_exact``, the same array in ``mpmath``.
"""

import itertools

import numpy as np
import pytest

from lcc import FeedbackGains, FrequencyGrid, LinearCoeffs, TransferSpec
from lcc import stability
from lcc.stability import CLASS_ASYMP_UNSTABLE, EIG_TOL
from oracles import REACH_COEFFS, au_exact, oracle_model

sympy = pytest.importorskip("sympy")
REACH = stability._MAX_REACH

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
    model, A_cl, C = oracle_model(spec)

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


def _au_class(spec):
    """Whether ``_evaluate`` classes the chain AU, as a scan cell."""
    short, cut, row = stability._shorten(spec)
    classes, _, problems = stability._evaluate(short, row[None], FrequencyGrid(), cut)
    assert problems == {}, spec
    return bool(classes[0] == CLASS_ASYMP_UNSTABLE)


def test_au_class_matches_exact_routh_on_random_chains(default_coeffs):
    """Random gains on HDVs up to the reach on either side of the CAV, for each of the
    three drivers; a chain whose 60- and 200-digit answers disagree is skipped."""
    rng = np.random.default_rng(42)
    drivers = [c or default_coeffs for c in REACH_COEFFS.values()]
    flags = []
    for _ in range(150):
        m, n = (int(v) for v in rng.integers(0, REACH + 1, size=2))
        ids = [i for i in [*range(-m, 0), *range(1, n + 1)] if rng.random() < 0.5]
        scale = rng.choice([0.05, 0.3, 1.0, 3.0])
        pairs = {i: tuple(rng.uniform(-scale, scale, 2)) for i in ids}
        coeffs = drivers[rng.integers(len(drivers))]
        spec = TransferSpec(m, n, coeffs, FeedbackGains.from_pairs(pairs))
        exact = au_exact(spec)
        if exact is None:
            continue
        flags.append(exact)
        assert _au_class(spec) == exact, spec
    assert len(flags) >= 145
    assert 40 < sum(flags) < len(flags) - 40


def test_au_class_matches_exact_routh_where_eigvals_misplaces_the_pole():
    """Slow, lightly damped drivers (alpha1 = 0.01, zeta = 0.05), m = n = 10 and gains on
    some of the first four followers, scaled to 1/4, 1/2 and 9/10 of where ``_evaluate``
    first calls the chain AU.  Den is then close to gamma^11, whose repeated roots
    ``eigvals(A_cl)`` spreads by ~3e-3, so the double-precision pole oracle calls these
    stable chains AU; the Routh array of Den(s + EIG_TOL) agrees with the exact one."""
    rng = np.random.default_rng(36)
    slow, misplaced, checked = REACH_COEFFS["slow"], 0, 0
    while checked < 24:
        ids = [i for i in range(1, 5) if rng.random() < 0.5] or [1]
        direction = {i: rng.uniform(-1.0, 1.0, 2) for i in ids}

        def spec_at(scale):
            pairs = {i: tuple(scale * g) for i, g in direction.items()}
            return TransferSpec(REACH, REACH, slow, FeedbackGains.from_pairs(pairs))

        if not _au_class(spec_at(1.0)):
            continue
        lo, hi = 0.0, 1.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _au_class(spec_at(mid)) else (mid, hi)
        for fraction in (0.25, 0.5, 0.9):
            spec = spec_at(fraction * hi)
            exact = au_exact(spec)
            if exact is None:
                continue
            checked += 1
            assert _au_class(spec) == exact, spec
            poles = np.linalg.eigvals(oracle_model(spec)[1])
            misplaced += bool(poles.real.max() > EIG_TOL) != exact
    assert misplaced >= checked // 2
