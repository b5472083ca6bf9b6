"""Hot numeric kernels: plain numpy / Python, one implementation each.

Two inner loops dominate the package's runtime: the forward-Euler
stepping of the nonlinear vehicle chain and the evaluation of the
head-to-tail gain magnitude over dense frequency grids (thousands of
cells in a region scan).  ``gamma_mag_sq_scalar`` evaluates one
frequency per gain set, ``gamma_mag_sq_grid`` a whole grid vectorised
with numpy, and ``simulate_loop`` steps the chain.  Both magnitude
kernels broadcast: given gain arrays with a trailing cell axis they
evaluate many gain sets in one call (see their docstrings).

``simulate_loop`` steps on Python floats in lists, since indexing numpy
arrays element by element boxes an ``np.float64`` per access, and keeps
a history window of only ``max(delay_steps) + 1`` rows.  It does not
vectorise over vehicles: a chain has about a dozen, and ``np.cos`` is
not guaranteed to round as ``math.cos`` does, so traces would no longer
be reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, as recorded in benchmark reports."""
    return "numpy"


# ---------------------------------------------------------------------------
# head-to-tail gain magnitude
# ---------------------------------------------------------------------------

def gamma_mag_sq_scalar(w, a1, a2, a3, mu_p, k_p, mu_f, k_f):
    """|Gamma(j w)|^2 of the chain transfer function.

    mu_p/k_p are ordered by distance ahead (index d-1 is vehicle -d),
    mu_f/k_f by distance behind (index j-1 is vehicle j).  With a float
    ``w`` and 1-D gains this is one gain set at one frequency; with
    ``w`` of shape ``(cells,)`` and gains of shape ``(m|n, cells)`` it is
    one frequency per gain set, returning shape ``(cells,)``.
    """
    s = 1j * w
    phi = a1 + a3 * s
    gam = a1 + a2 * s + s * s
    r = phi / gam
    inv_r = gam / phi
    num = phi
    den = gam
    rp = 1.0 + 0.0j
    for d in range(mu_p.shape[0]):
        h = mu_p[d] * (inv_r - 1.0) + k_p[d] * s
        num = num + h * rp
        rp = rp * inv_r
    rf = r
    for j in range(mu_f.shape[0]):
        h = mu_f[j] * (inv_r - 1.0) + k_f[j] * s
        den = den - h * rf
        rf = rf * r
    g = num / den
    for _ in range(mu_p.shape[0] + mu_f.shape[0]):
        g = g * r
    return g.real * g.real + g.imag * g.imag


def gamma_mag_sq_grid(omegas, a1, a2, a3, mu_p, k_p, mu_f, k_f):
    """``gamma_mag_sq_scalar`` over an array of frequencies, vectorised.

    With 1-D gains the result has the shape of ``omegas``.  Gains of
    shape ``(m|n, cells, 1)`` evaluate every gain set on the whole grid,
    returning ``(cells, omegas.size)``; with m = n = 0 there are no gains
    to broadcast against and the result keeps the shape of ``omegas``.
    """
    s = 1j * omegas
    phi = a1 + a3 * s
    gam = a1 + a2 * s + s * s
    r = phi / gam
    inv_r = gam / phi
    num = phi.copy()
    den = gam.copy()
    rp = np.ones_like(s)
    for d in range(mu_p.shape[0]):
        num = num + (mu_p[d] * (inv_r - 1.0) + k_p[d] * s) * rp
        rp = rp * inv_r
    rf = r.copy()
    for j in range(mu_f.shape[0]):
        den = den - (mu_f[j] * (inv_r - 1.0) + k_f[j] * s) * rf
        rf = rf * r
    g = (num / den) * r ** (mu_p.shape[0] + mu_f.shape[0])
    return g.real**2 + g.imag**2


# ---------------------------------------------------------------------------
# nonlinear chain simulation
# ---------------------------------------------------------------------------

def _desired_velocity(s, vmax, sst, sgo):
    if s <= sst:
        return 0.0
    if s >= sgo:
        return vmax
    return 0.5 * vmax * (1.0 - math.cos(math.pi * (s - sst) / (sgo - sst)))


def simulate_loop(
    n_steps,
    dt,
    pos,
    vel,
    acc,
    has_head,
    head_vel,
    cav,
    alpha,
    beta,
    vmax,
    sst,
    sgo,
    delay_steps,
    s_star,
    v_star,
    mode_baseline,
    ovm_baseline,
    a1,
    a2,
    a3,
    gain_mu,
    gain_k,
    brake_col,
    brake_k0,
    brake_k1,
    brake_acc,
    a_min,
    a_max,
    override_flag,
):
    """Forward-Euler integration of the mixed chain.

    Column 0 is the front-most vehicle (prescribed head, or the CAV in a
    free-driving chain).  Row 0 of pos/vel holds the initial state; the
    function fills pos/vel/acc in place and sets ``override_flag[k]`` at
    every step where the CAV's emergency brake fires.  Returns
    (status, step, column): status 0 on success, 1 on collision at the
    reported step between column-1 and column, with pos/vel filled
    through that step and acc through the one before.

    Each step runs on Python floats held in lists, with ``math.cos`` in
    the OVM, so every operation rounds as it would on numpy scalars.
    Only the last ``max(delay_steps) + 1`` position and velocity rows
    are kept as lists, for the delayed HDV reads; each finished row is
    written to pos/vel/acc with one row assignment.  Vehicles are not
    vectorised with numpy: ``np.cos`` may differ from ``math.cos`` in
    the last bit.
    """
    n_veh = pos.shape[1]
    head_v = head_vel.tolist()
    alpha, beta, vmax, sst, sgo, s_star, gain_mu, gain_k = (
        x.tolist() for x in (alpha, beta, vmax, sst, sgo, s_star, gain_mu, gain_k)
    )
    delay_steps = delay_steps.tolist()

    # HDV constants, in column order: column, delay, equilibrium spacing,
    # alpha, beta, v_max, s_st, s_go.
    hdvs = tuple(
        (j, delay_steps[j], s_star[j], alpha[j], beta[j], vmax[j], sst[j], sgo[j])
        for j in range(1 if has_head else 0, n_veh)
        if j != cav
    )
    # CAV feedback terms on the other vehicles, in column order: column,
    # mu (zero for column 0, which has no spacing), k, equilibrium spacing.
    feedback = tuple(
        (j2, gain_mu[j2] if j2 > 0 else 0.0, gain_k[j2], s_star[j2])
        for j2 in range(n_veh)
        if j2 != cav and ((j2 > 0 and gain_mu[j2] != 0.0) or gain_k[j2] != 0.0)
    )
    own_k = gain_k[cav]
    own_mu = gain_mu[cav] if cav > 0 else 0.0

    window = max(delay_steps) + 1
    history = [None] * window
    p = pos[0].tolist()
    v = vel[0].tolist()
    if has_head:
        vel[0, 0] = v[0] = head_v[0]
    head_a = 0.0
    for k in range(n_steps + 1):
        history[k % window] = p, v
        a_row = [0.0] * n_veh
        braking = brake_k0 <= k < brake_k1
        if has_head:
            if k < n_steps:
                head_a = (head_v[k + 1] - head_v[k]) / dt
            a_row[0] = head_a

        # CAV
        u = 0.0
        if mode_baseline:
            # HDV-like linear law toward the predecessor
            sc = p[cav - 1] - p[cav]
            u += a1 * (sc - s_star[cav]) - a2 * (v[cav] - v_star)
            u += a3 * (v[cav - 1] - v_star)
        else:
            if own_k != 0.0:
                u += own_k * (v[cav] - v_star)
            if own_mu != 0.0:
                u += own_mu * (p[cav - 1] - p[cav] - s_star[cav])
        for j2, mu2, k2, ss2 in feedback:
            if mu2 != 0.0:
                u += mu2 * (p[j2 - 1] - p[j2] - ss2)
            if k2 != 0.0:
                u += k2 * (v[j2] - v_star)
        if cav > 0:
            if ovm_baseline:
                sc = p[cav - 1] - p[cav]
                sd = v[cav - 1] - v[cav]
                u += alpha[cav] * (_desired_velocity(sc, vmax[cav], sst[cav], sgo[cav]) - v[cav])
                u += beta[cav] * sd
            s0 = p[cav - 1] - p[cav]
            if s0 > 0.0 and (v[cav] ** 2 - v[cav - 1] ** 2) / (2.0 * s0) >= -a_min:
                u = a_min
                override_flag[k] = 1
        if braking and cav == brake_col:
            u = brake_acc
        a_row[cav] = a_min if u < a_min else (a_max if u > a_max else u)

        # HDVs: nonlinear OVM on the state delay_steps ago
        for j, d, ss, al, be, vm, s_st, s_go in hdvs:
            kd = k - d
            if kd < 0:
                sj = ss
                sd = 0.0
                vj = v_star
            else:
                pd, vd = history[kd % window]
                sj = pd[j - 1] - pd[j]
                sd = vd[j - 1] - vd[j]
                vj = vd[j]
            a = al * (_desired_velocity(sj, vm, s_st, s_go) - vj) + be * sd
            if braking and j == brake_col:
                a = brake_acc
            a_row[j] = a_min if a < a_min else (a_max if a > a_max else a)
        acc[k] = a_row
        if k == n_steps:
            break

        # state update
        p = [pj + dt * vj for pj, vj in zip(p, v)]
        v = [w if (w := vj + dt * aj) > 0.0 else 0.0 for vj, aj in zip(v, a_row)]
        if has_head:
            v[0] = head_v[k + 1]
        pos[k + 1] = p
        vel[k + 1] = v
        for j in range(1, n_veh):
            if p[j - 1] - p[j] <= 0.0:
                return 1, k + 1, j
    return 0, 0, 0
