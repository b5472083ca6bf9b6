"""Controllability, observability, Gramian, and energy metrics."""

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from lcc import (
    LinearCoeffs,
    NumericalError,
    SystemVariant,
    TopologyError,
    analysis,
    build_output_matrix,
    build_system,
    condition_check,
    energy_scaling_study,
    gramian,
    pbh_controllability,
    pbh_observability,
)

V = SystemVariant


def test_condition_examples(default_coeffs):
    val = condition_check(default_coeffs)
    assert val == pytest.approx(0.4025, abs=1e-3)
    a1, a2, a3 = default_coeffs.alpha1, default_coeffs.alpha2, default_coeffs.alpha3
    assert val == a1 - a2 * a3 + a3**2
    assert condition_check(LinearCoeffs(alpha1=1.0, alpha2=2.0, alpha3=1.0)) == 0.0


def test_pbh_examples(default_coeffs):
    fd = build_system(V.FD_LCC, 0, 2, default_coeffs)
    rep = pbh_controllability(fd.A, fd.B, coeffs=default_coeffs)
    assert rep.controllable and rep.controllable_dim == 6
    assert rep.condition_value == pytest.approx(0.4025, abs=1e-3)

    gen = build_system(V.GENERAL_LCC, 1, 1, default_coeffs)
    rep = pbh_controllability(gen.A, gen.B)
    assert not rep.controllable and rep.controllable_dim == 4

    ccc = build_system(V.CCC, 2, 0, default_coeffs)
    rep = pbh_controllability(ccc.A, ccc.B)
    assert rep.controllable_dim == 2


@pytest.mark.parametrize("variant, m, n", [(V.CF_LCC, 0, 3), (V.GENERAL_LCC, 2, 2)])
def test_pbh_at_rank_zero_and_full_rank(default_coeffs, variant, m, n):
    """The complement of the staircase basis at its two ends: with B = 0
    every eigenvalue of A is an uncontrollable mode; with B = I none is."""
    mod = build_system(variant, m, n, default_coeffs)
    zero = pbh_controllability(mod.A, np.zeros_like(mod.B))
    assert not zero.controllable and zero.controllable_dim == 0
    want = sorted(np.linalg.eigvals(mod.A), key=lambda z: (z.real, z.imag))
    assert np.allclose(zero.uncontrollable_mode_eigenvalues, want, atol=1e-6)

    full = pbh_controllability(mod.A, np.eye(mod.dim))
    assert full.controllable and full.controllable_dim == mod.dim
    assert full.uncontrollable_mode_eigenvalues == []


def test_observability_with_no_measurement(default_coeffs):
    mod = build_system(V.GENERAL_LCC, 2, 2, default_coeffs)
    rep = pbh_observability(mod.A, np.zeros((1, mod.dim)), model=mod)
    assert not rep.observable and rep.observable_dim == 0
    assert rep.unobservable_vehicle_ids == sorted(mod.index_map)


def test_uncontrollable_modes_match_upstream_block(default_coeffs):
    """For the general chain, the PBH failures are exactly the eigenvalues
    of the upstream (vehicles ahead) block."""
    for m in range(1, 5):
        for n in range(1, 5):
            mod = build_system(V.GENERAL_LCC, m, n, default_coeffs)
            rep = pbh_controllability(mod.A, mod.B)
            assert rep.controllable_dim == 2 * n + 2
            upstream = np.linalg.eigvals(mod.A[: 2 * m, : 2 * m])
            for lam in rep.uncontrollable_mode_eigenvalues:
                assert np.min(np.abs(upstream - lam)) < 2e-3
            for lam in upstream:
                assert (
                    np.min(np.abs(np.array(rep.uncontrollable_mode_eigenvalues) - lam))
                    < 2e-3
                )


def test_fd_cf_fully_controllable_sweep(default_coeffs):
    for n in range(1, 5):
        for variant in (V.FD_LCC, V.CF_LCC):
            mod = build_system(variant, 0, n, default_coeffs)
            rep = pbh_controllability(mod.A, mod.B)
            assert rep.controllable and rep.controllable_dim == mod.dim


def test_feedback_invariance(default_coeffs):
    """Controllable dimension survives arbitrary state feedback."""
    mod = build_system(V.FD_LCC, 0, 3, default_coeffs)
    base = pbh_controllability(mod.A, mod.B).controllable_dim
    rng = np.random.default_rng(7)
    for _ in range(50):
        K = rng.uniform(-2, 2, size=(1, mod.dim))
        rep = pbh_controllability(mod.A - mod.B @ K, mod.B)
        assert rep.controllable_dim == base


def test_observability_examples(default_coeffs):
    fd3 = build_system(V.FD_LCC, 0, 3, default_coeffs)
    rep = pbh_observability(fd3.A, build_output_matrix(fd3, 2), model=fd3)
    assert not rep.observable
    assert 3 in rep.unobservable_vehicle_ids
    assert 1 not in rep.unobservable_vehicle_ids
    assert 2 not in rep.unobservable_vehicle_ids
    assert rep.observable_dim == 5  # two vehicles plus the CAV velocity

    rep = pbh_observability(fd3.A, build_output_matrix(fd3, 3), model=fd3)
    assert rep.observable_dim == 7  # everything but the CAV position
    assert rep.unobservable_vehicle_ids == [0]

    gen = build_system(V.GENERAL_LCC, 2, 2, default_coeffs)
    rep = pbh_observability(gen.A, build_output_matrix(gen, 2), model=gen)
    assert rep.observable and rep.observable_dim == gen.dim

    cf2 = build_system(V.CF_LCC, 0, 2, default_coeffs)
    rep = pbh_observability(cf2.A, build_output_matrix(cf2, 2), model=cf2)
    assert rep.observable and rep.observable_dim == 6

    ccc = build_system(V.CCC, 3, 0, default_coeffs)
    rep = pbh_observability(ccc.A, build_output_matrix(ccc, 0), model=ccc)
    assert rep.observable


def test_observability_is_dual(default_coeffs):
    for variant, m, n, k in [(V.FD_LCC, 0, 3, 1), (V.CF_LCC, 0, 2, 2), (V.GENERAL_LCC, 2, 3, 2)]:
        mod = build_system(variant, m, n, default_coeffs)
        C = build_output_matrix(mod, k)
        obs = pbh_observability(mod.A, C)
        dual = pbh_controllability(mod.A.T, C.T)
        assert obs.observable == dual.controllable
        assert obs.observable_dim == dual.controllable_dim


def test_output_matrix_rows(default_coeffs):
    fd = build_system(V.FD_LCC, 0, 2, default_coeffs)
    C = build_output_matrix(fd, 1)
    assert C.shape == (1, 6)
    assert np.flatnonzero(C).tolist() == [3]

    gen = build_system(V.GENERAL_LCC, 1, 1, default_coeffs)
    C = build_output_matrix(gen, 1)
    assert C.shape == (3, 6)
    assert [int(np.flatnonzero(row)[0]) for row in C] == [2, 3, 5]

    with pytest.raises(TopologyError):
        build_output_matrix(fd, 3)
    with pytest.raises(TopologyError):
        build_output_matrix(fd, 0)
    ccc = build_system(V.CCC, 2, 0, default_coeffs)
    assert build_output_matrix(ccc, 0).shape == (2, 6)
    with pytest.raises(TopologyError):
        build_output_matrix(ccc, 1)


def test_summarize_blanks_trace_inv_below_the_singular_rtol():
    """trace(W^-1) is kept while lambda_min / lambda_max stays at or above
    ``GRAMIAN_SINGULAR_RTOL`` = 1e-12, and blanked below it."""
    lam_min, trace_inv = analysis._summarize(np.diag([1.0, 1.2e-12]))
    assert lam_min == 1.2e-12
    assert trace_inv == 1.0 + 1.0 / 1.2e-12
    assert analysis._summarize(np.diag([1.0, 0.9e-12])) == (0.9e-12, None)


def test_gramian_scalar_integrator():
    W = gramian(np.zeros((1, 1)), np.ones((1, 1)), 10.0).W
    assert W[0, 0] == pytest.approx(10.0, rel=1e-9)


def test_gramian_zero_horizon_limit(default_coeffs):
    mod = build_system(V.FD_LCC, 0, 1, default_coeffs)
    g = gramian(mod.A, mod.B, 1e-6)
    assert np.linalg.norm(g.W) < 2e-6


def test_gramian_matches_direct_quadrature(default_coeffs):
    """RK4 on the Gramian ODE against composite-Simpson quadrature of the
    defining integral; two independent routes must coincide."""
    mod = build_system(V.FD_LCC, 0, 1, default_coeffs)
    t_end = 10.0
    g = gramian(mod.A, mod.B, t_end)
    panels = 10_000
    tau = np.linspace(0.0, t_end, 2 * panels + 1)
    h = t_end / (2 * panels)
    weights = np.ones(len(tau))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integrand = np.array(
        [expm(mod.A * ti) @ mod.B @ mod.B.T @ expm(mod.A.T * ti) for ti in tau]
    )
    W_direct = (h / 3.0) * np.tensordot(weights, integrand, axes=1)
    rel = np.linalg.norm(g.W - W_direct) / np.linalg.norm(W_direct)
    assert rel < 1e-6


def _reference_gramian(A, B, t, dt=0.01):
    """Fixed-step RK4 from W = 0 on every call, with ``gramian``'s step
    expression and no resume.  Returns (W, lambda_min, trace_inv)."""
    BBt = B @ B.T
    n_steps = max(1, round(t / dt))
    h = t / n_steps

    def f(W):
        return A @ W + W @ A.T + BBt

    W = np.zeros_like(A)
    for _ in range(n_steps):
        k1 = f(W)
        k2 = f(W + 0.5 * h * k1)
        k3 = f(W + 0.5 * h * k2)
        k4 = f(W + h * k3)
        W = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    W = 0.5 * (W + W.T)
    lam = np.linalg.eigvalsh(W)
    if lam[-1] <= 0 or lam[0] < analysis.GRAMIAN_SINGULAR_RTOL * lam[-1]:
        trace_inv = None
    else:
        trace_inv = float(np.sum(1.0 / lam))
    return W, float(lam[0]), trace_inv


def _assert_bitwise(g, ref):
    W, lam_min, trace_inv = ref
    assert np.array_equal(g.W, W)
    assert g.lambda_min == lam_min
    assert g.trace_inv == trace_inv


@pytest.mark.parametrize("n", [1, 4, 8])
def test_gramian_matches_reference_bitwise_in_any_horizon_order(default_coeffs, n):
    mod = build_system(V.FD_LCC, 0, n, default_coeffs)
    ref = {t: _reference_gramian(mod.A, mod.B, t) for t in (10.0, 20.0, 30.0)}
    for order in ([10.0, 20.0, 30.0], [30.0, 20.0, 10.0], [20.0, 20.0, 30.0, 30.0]):
        for t in order:
            g = gramian(mod.A, mod.B, t)
            _assert_bitwise(g, ref[t])
            g.W[:] = np.nan  # a caller's write must not reach the next call


def test_gramian_restarts_on_another_step_or_input(default_coeffs):
    mod = build_system(V.FD_LCC, 0, 2, default_coeffs)
    B2 = 2.0 * mod.B
    gramian(mod.A, mod.B, 10.0)
    # round(10.005 / 0.01) steps of a step other than 0.01
    _assert_bitwise(gramian(mod.A, mod.B, 10.005), _reference_gramian(mod.A, mod.B, 10.005))
    gramian(mod.A, mod.B, 10.0)
    _assert_bitwise(gramian(mod.A, B2, 20.0), _reference_gramian(mod.A, B2, 20.0))


def test_gramian_resumes_the_last_path(monkeypatch):
    """A longer horizon continues from the stored end state: planting a
    marked state on the path shows up in the next result."""
    A, B = np.zeros((1, 1)), np.ones((1, 1))
    gramian(A, B, 10.0)
    key, done, W = analysis._rk4_path
    monkeypatch.setattr(analysis, "_rk4_path", (key, done, W + 100.0))
    assert gramian(A, B, 20.0).W[0, 0] == pytest.approx(120.0, rel=1e-9)
    assert gramian(A, B, 10.0).W[0, 0] == pytest.approx(10.0, rel=1e-9)


def test_gramian_failed_resume_leaves_the_stored_path():
    """A longer horizon that resumes from the stored path and overflows
    raises, and the stored end state is still the one a later call
    continues from: the overflowing steps ran on a copy of it."""
    A, B = np.full((1, 1), 40.0), np.ones((1, 1))
    gramian(A, B, 1.0)
    path = analysis._rk4_path
    assert path[0][0] == 10.0 / 1000  # the step of t = 10, which resumes this path
    with pytest.raises(NumericalError):
        gramian(A, B, 10.0)  # W grows as e^(80t) / 80: past the float range by t = 8.9
    assert analysis._rk4_path is path
    _assert_bitwise(gramian(A, B, 2.0), _reference_gramian(A, B, 2.0))


def test_gramian_psd_and_loewner(default_coeffs):
    for n in (1, 2, 3):
        mod = build_system(V.FD_LCC, 0, n, default_coeffs)
        prev = None
        for t in (2.0, 5.0, 12.0):
            g = gramian(mod.A, mod.B, t)
            assert np.allclose(g.W, g.W.T, atol=1e-10)
            assert np.linalg.eigvalsh(g.W).min() >= -1e-10
            if prev is not None:
                assert np.linalg.eigvalsh(g.W - prev).min() >= -1e-8
            prev = g.W


def test_fd_chain_is_leading_block_of_longer_chain(default_coeffs):
    """A vehicle of a free-driving chain reads only the vehicles ahead of
    it, so the chain of n followers is exactly the leading block of a
    longer one: ``energy_scaling_study`` integrates only its longest."""
    big = build_system(V.FD_LCC, 0, 50, default_coeffs)
    for n in range(50):
        small = build_system(V.FD_LCC, 0, n, default_coeffs)
        d = small.dim
        assert np.array_equal(small.A, big.A[:d, :d])
        assert np.array_equal(small.B, big.B[:d])
        assert not big.A[:d, d:].any()
        assert small.index_map == {v: big.index_map[v] for v in range(n + 1)}


def test_gramian_leading_block_matches_shorter_chain(default_coeffs):
    """Each shorter chain's Gramian is the leading block of the n = 8 one.
    The RK4 recursion of the block is the chain's own recursion plus
    exact-zero terms, so only the BLAS kernel's summation order can part
    them, by far less than the bound."""
    horizons = (10.005, 10.0, 20.0, 30.0)  # two step sizes, ascending within each
    big = build_system(V.FD_LCC, 0, 8, default_coeffs)
    big_W = {t: gramian(big.A, big.B, t).W for t in horizons}
    for n in range(8):
        mod = build_system(V.FD_LCC, 0, n, default_coeffs)
        d = mod.dim
        for t in horizons:
            W = gramian(mod.A, mod.B, t).W
            assert np.abs(big_W[t][:d, :d] - W).max() <= 1e-15 * np.abs(W).max()


def test_energy_scaling_rows(default_coeffs):
    rows = energy_scaling_study(default_coeffs, [2, 1], [5.0, 10.0])
    assert [(r[0], r[1]) for r in rows] == [(1, 5.0), (1, 10.0), (2, 5.0), (2, 10.0)]
    # horizons keep t_list's order within each n
    swapped = energy_scaling_study(default_coeffs, [2, 1], [10.0, 5.0])
    assert [(r[0], r[1]) for r in swapped] == [(1, 10.0), (1, 5.0), (2, 10.0), (2, 5.0)]
    assert swapped == [rows[1], rows[0], rows[3], rows[2]]
    lam_n1_t5 = rows[0][2]
    lam_n2_t5 = rows[2][2]
    assert lam_n2_t5 < lam_n1_t5
    # unsorted and repeated n, a repeated horizon and two RK4 step sizes
    # (10.005 s takes 1000 steps of 10.005 ms): n ascending, each n once,
    # t_list's order kept, and each row the chain's own Gramian
    ts = [10.005, 5.0, 10.0, 5.0]
    rows = energy_scaling_study(default_coeffs, [3, 0, 1, 3], ts)
    assert [(r[0], r[1]) for r in rows] == [(n, t) for n in (0, 1, 3) for t in ts]
    for n, t, lam_min, trace_inv in rows:
        mod = build_system(V.FD_LCC, 0, n, default_coeffs)
        g = gramian(mod.A, mod.B, t)
        assert lam_min == pytest.approx(g.lambda_min, rel=1e-9)
        assert (trace_inv is None) == (g.trace_inv is None)
        if trace_inv is not None:
            assert trace_inv == pytest.approx(g.trace_inv, rel=1e-9)
    assert rows[1] == rows[3] and rows[1][2] < rows[2][2] < rows[0][2]


def test_double_integrator_controllable():
    rep = pbh_controllability(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    assert rep.controllable and rep.controllable_dim == 2
    assert rep.uncontrollable_mode_eigenvalues == []


def _layout(variant, size):
    """(m, n) of a paper-scale case; ccc counts the HDVs ahead, general has m = 2."""
    return {V.GENERAL_LCC: (2, size), V.CCC: (size, 0)}.get(variant, (0, size))


@pytest.mark.parametrize("size", [10, 20, 50])
@pytest.mark.parametrize("variant", [V.FD_LCC, V.CF_LCC, V.GENERAL_LCC, V.CCC])
def test_paper_scale_dimensions(default_coeffs, variant, size):
    """Controllable and observable dimensions follow the paper's formulas
    far beyond the sizes a Kalman-matrix rank can resolve."""
    m, n = _layout(variant, size)
    mod = build_system(variant, m, n, default_coeffs)
    ctrb = pbh_controllability(mod.A, mod.B)
    assert ctrb.controllable_dim == (2 if variant is V.CCC else 2 * n + 2)
    assert len(ctrb.uncontrollable_mode_eigenvalues) == mod.dim - ctrb.controllable_dim
    C = build_output_matrix(mod, 0 if variant is V.CCC else n)
    obs = pbh_observability(mod.A, C, model=mod)
    want = {
        V.FD_LCC: 2 * n + 1,
        V.CF_LCC: 2 * n + 2,
        V.GENERAL_LCC: 2 * m + 2 * n + 2,
        V.CCC: 2 * m + 2,
    }[variant]
    assert obs.observable_dim == want


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_condition_zero_loses_follower_modes(n):
    """alpha1 - alpha2*alpha3 + alpha3^2 = 0 leaves only n + 2 states controllable."""
    c = LinearCoeffs(alpha1=1.0, alpha2=2.0, alpha3=1.0)
    mod = build_system(V.FD_LCC, 0, n, c)
    rep = pbh_controllability(mod.A, mod.B, coeffs=c)
    assert rep.condition_value == 0.0
    assert not rep.controllable and rep.controllable_dim == n + 2


@pytest.mark.parametrize(
    "variant, expected", [(V.CF_LCC, set()), (V.FD_LCC, {0})], ids=["cf", "fd"]
)
def test_unobservable_vehicles_at_paper_scale(default_coeffs, variant, expected):
    mod = build_system(variant, 0, 50, default_coeffs)
    rep = pbh_observability(mod.A, build_output_matrix(mod, 30), model=mod)
    assert set(rep.unobservable_vehicle_ids) == expected | set(range(31, 51))


def test_general_uncontrollable_modes_at_paper_scale(default_coeffs):
    """The m = 2 upstream HDVs contribute two copies of the roots of
    s^2 + alpha2*s + alpha1, each pair a 2x2 Jordan block."""
    c = default_coeffs
    mod = build_system(V.GENERAL_LCC, 2, 50, c)
    modes = pbh_controllability(mod.A, mod.B).uncontrollable_mode_eigenvalues
    roots = np.roots([1.0, c.alpha2, c.alpha1])
    assert len(modes) == 4
    assert all(np.min(np.abs(roots - z)) < 1e-6 for z in modes)


@pytest.mark.parametrize(
    "variant, m, n",
    [(V.FD_LCC, 0, 8), (V.CF_LCC, 0, 8), (V.GENERAL_LCC, 2, 6), (V.CCC, 6, 0)],
    ids=["fd8", "cf8", "general2-6", "ccc6"],
)
def test_dimension_matches_high_precision_kalman_rank(default_coeffs, variant, m, n):
    """Independent oracle: the rank of [B, AB, ..., A^(d-1)B] at 80 digits,
    where double precision can no longer separate its singular values."""
    mod = build_system(variant, m, n, default_coeffs)
    d = mod.dim
    with mpmath.workdps(80):
        A = mpmath.matrix(mod.A.tolist())
        col = mpmath.matrix(mod.B.tolist())
        K = mpmath.matrix(d, d)
        for j in range(d):
            for i in range(d):
                K[i, j] = col[i]
            col = A * col
        sv = mpmath.svd_r(K, compute_uv=False)
        rank = sum(1 for i in range(d) if sv[i] > mpmath.mpf("1e-40") * max(sv))
    assert pbh_controllability(mod.A, mod.B).controllable_dim == rank


def test_non_finite_system_raises():
    A = np.array([[0.0, np.nan], [0.0, 0.0]])
    with pytest.raises(NumericalError):
        pbh_controllability(A, np.array([[0.0], [1.0]]))
    with pytest.raises(NumericalError):
        pbh_observability(np.zeros((2, 2)), np.array([[np.inf, 0.0]]))


# The middle field of each id is the step, GRAMIAN_DT.
@pytest.mark.parametrize(
    "t, bad",
    [pytest.param(math.inf, "t=inf", id="inf-0.01-t=inf"),
     pytest.param(math.nan, "t=nan", id="nan-0.01-t=nan"),
     pytest.param(-1.0, "t=-1", id="-1.0-0.01-t=-1")],
)
def test_gramian_rejects_bad_horizon(t, bad):
    with pytest.raises(ValueError, match=bad):
        gramian(np.zeros((1, 1)), np.ones((1, 1)), t)


def test_gramian_rejects_non_finite_step_count():
    assert analysis.GRAMIAN_DT == 0.01
    with pytest.raises(ValueError, match=r"steps of 0.01 s, got t=1e\+300"):
        gramian(np.zeros((1, 1)), np.ones((1, 1)), 1e300)


def test_energy_scaling_rejects_empty_horizons(default_coeffs):
    with pytest.raises(ValueError, match="t_list"):
        energy_scaling_study(default_coeffs, [1], [])


def test_energy_scaling_rejects_negative_n(default_coeffs):
    with pytest.raises(TopologyError, match="n must be an integer >= 0, got -1"):
        energy_scaling_study(default_coeffs, [2, -1], [5.0])
