"""Hot numeric kernels: plain numpy / Python, one implementation each.

Two inner loops dominate the package's runtime: the forward-Euler
stepping of the nonlinear vehicle chain and the evaluation of the
head-to-tail gain magnitude over dense frequency grids (thousands of
cells in a region scan).  ``gamma_mag_sq_scalar`` evaluates one
frequency, ``gamma_mag_sq_grid`` a whole grid vectorised with numpy,
and ``simulate_loop`` steps the chain.
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
    """|Gamma(j w)|^2 of the chain transfer function for one gain set.

    mu_p/k_p are ordered by distance ahead (index d-1 is vehicle -d),
    mu_f/k_f by distance behind (index j-1 is vehicle j).
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
    """``gamma_mag_sq_scalar`` over an array of frequencies, vectorised."""
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
    free-driving chain); fills pos/vel/acc in place.  Returns
    (status, step, column): status 0 on success, 1 on collision at the
    reported step between column-1 and column.
    """
    n_veh = pos.shape[1]
    for k in range(n_steps + 1):
        if has_head:
            vel[k, 0] = head_vel[k]
        # accelerations at step k
        for j in range(n_veh):
            if has_head and j == 0:
                if k < n_steps:
                    acc[k, 0] = (head_vel[k + 1] - head_vel[k]) / dt
                else:
                    acc[k, 0] = acc[k - 1, 0]
                continue
            if j == cav:
                u = 0.0
                if mode_baseline:
                    # HDV-like linear law toward the predecessor
                    sc = pos[k, j - 1] - pos[k, j]
                    u += a1 * (sc - s_star[j]) - a2 * (vel[k, j] - v_star)
                    u += a3 * (vel[k, j - 1] - v_star)
                else:
                    if gain_k[j] != 0.0:
                        u += gain_k[j] * (vel[k, j] - v_star)
                    if j > 0 and gain_mu[j] != 0.0:
                        u += gain_mu[j] * (pos[k, j - 1] - pos[k, j] - s_star[j])
                for j2 in range(n_veh):
                    if j2 == cav:
                        continue
                    if j2 > 0 and gain_mu[j2] != 0.0:
                        u += gain_mu[j2] * (pos[k, j2 - 1] - pos[k, j2] - s_star[j2])
                    if gain_k[j2] != 0.0:
                        u += gain_k[j2] * (vel[k, j2] - v_star)
                if ovm_baseline and j > 0:
                    sc = pos[k, j - 1] - pos[k, j]
                    sd = vel[k, j - 1] - vel[k, j]
                    u += alpha[j] * (_desired_velocity(sc, vmax[j], sst[j], sgo[j]) - vel[k, j])
                    u += beta[j] * sd
                if j > 0:
                    s0 = pos[k, j - 1] - pos[k, j]
                    if s0 > 0.0 and (vel[k, j] ** 2 - vel[k, j - 1] ** 2) / (2.0 * s0) >= -a_min:
                        u = a_min
                        override_flag[k] = 1
                a = u
            else:
                kd = k - delay_steps[j]
                if kd < 0:
                    sj = s_star[j]
                    sd = 0.0
                    vj = v_star
                else:
                    sj = pos[kd, j - 1] - pos[kd, j]
                    sd = vel[kd, j - 1] - vel[kd, j]
                    vj = vel[kd, j]
                a = alpha[j] * (_desired_velocity(sj, vmax[j], sst[j], sgo[j]) - vj) + beta[j] * sd
            if j == brake_col and brake_k0 <= k < brake_k1:
                a = brake_acc
            if a < a_min:
                a = a_min
            elif a > a_max:
                a = a_max
            acc[k, j] = a
        if k == n_steps:
            break
        # state update
        for j in range(n_veh):
            pos[k + 1, j] = pos[k, j] + dt * vel[k, j]
            if has_head and j == 0:
                vel[k + 1, 0] = head_vel[k + 1]
            else:
                v_new = vel[k, j] + dt * acc[k, j]
                vel[k + 1, j] = v_new if v_new > 0.0 else 0.0
        for j in range(1, n_veh):
            if pos[k + 1, j - 1] - pos[k + 1, j] <= 0.0:
                return 1, k + 1, j
    return 0, 0, 0
