"""Hot numeric kernels: plain numpy / Python, one implementation each.

Two inner loops dominate the package's runtime: the forward-Euler
stepping of the nonlinear vehicle chain and the evaluation of the
head-to-tail gain magnitude, over frequency grids for plots and at the
candidate peaks of every cell of a region scan.  ``gamma`` is the one
product form of the head-to-tail transfer function in the package:
``stability.transfer_value`` calls it on a complex scalar,
``gamma_mag_sq_grid`` on a frequency grid, and ``gamma_mag_sq_scalar``
at each gain set's own frequencies.  Both magnitude entry points
broadcast: given gain arrays with a trailing cell axis they evaluate
many gain sets in one call (see their docstrings).  ``simulate_loop``
steps the chain, with the OVM ramp taken from ``vehicles.ovm_ramp``.

``simulate_loop`` takes the chain as ``sim.simulate`` lays it out: the
CAV's law as one list of linear feedback terms, its own errors first,
the HDVs as one tuple of constants each.  It steps on Python floats in
lists, since indexing numpy arrays element by element boxes an
``np.float64`` per access, and keeps a history window of only
``max(delay) + 1`` rows.  It does not
vectorise over vehicles: a chain has about a dozen, and ``np.cos`` is
not guaranteed to round as ``math.cos`` does, so traces would no longer
be reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .vehicles import ovm_ramp


def backend_name() -> str:
    """Name of the kernel implementation, as recorded in benchmark reports."""
    return "numpy"


# ---------------------------------------------------------------------------
# head-to-tail gain magnitude
# ---------------------------------------------------------------------------

def gamma(s, a1, a2, a3, mu_p, k_p, mu_f, k_f):
    """Gamma(s) = G(s) (phi/gamma)^(m+n) at a complex scalar or array ``s``.

    mu_p/k_p are ordered by distance ahead (index d-1 is vehicle -d),
    mu_f/k_f by distance behind (index j-1 is vehicle j).  On a Python
    complex ``s`` a pole raises ZeroDivisionError.
    """
    phi = a1 + a3 * s
    gam = a1 + a2 * s + s * s
    r = phi / gam
    inv_r = gam / phi
    num, den = phi, gam
    rp = 1.0
    for d in range(len(mu_p)):
        num = num + (mu_p[d] * (inv_r - 1.0) + k_p[d] * s) * rp
        rp = rp * inv_r
    rf = r
    for j in range(len(mu_f)):
        den = den - (mu_f[j] * (inv_r - 1.0) + k_f[j] * s) * rf
        rf = rf * r
    return (num / den) * r ** (len(mu_p) + len(mu_f))


def gamma_mag_sq_scalar(w, a1, a2, a3, mu_p, k_p, mu_f, k_f):
    """``gamma_mag_sq_grid`` at frequencies of their own per gain set.

    With a float ``w`` and 1-D gains this is one gain set at one
    frequency; with ``w`` of shape ``(points, cells)`` and gains of shape
    ``(m|n, cells)`` it evaluates each gain set at its own column of
    frequencies, returning the shape of ``w``.
    """
    return gamma_mag_sq_grid(np.asarray(w, dtype=float), a1, a2, a3, mu_p, k_p, mu_f, k_f)


def gamma_mag_sq_grid(omegas, a1, a2, a3, mu_p, k_p, mu_f, k_f):
    """|Gamma(j w)|^2 of the chain transfer function, vectorised.

    With 1-D gains the result has the shape of ``omegas``.  Gains of
    shape ``(m|n, cells, 1)`` evaluate every gain set on the whole grid,
    returning ``(cells, omegas.size)``; with m = n = 0 there are no gains
    to broadcast against and the result keeps the shape of ``omegas``.
    """
    g = gamma(1j * omegas, a1, a2, a3, mu_p, k_p, mu_f, k_f)
    return g.real**2 + g.imag**2


# ---------------------------------------------------------------------------
# nonlinear chain simulation
# ---------------------------------------------------------------------------

def simulate_loop(
    n_steps,
    dt,
    pos,
    vel,
    acc,
    head_vel,
    cav,
    feedback,
    hdvs,
    v_star,
    brake,
    a_min,
    a_max,
    override_flag,
):
    """Forward-Euler integration of the mixed chain.

    Column 0 is the front-most vehicle: the head, whose velocity at every
    step is ``head_vel`` (a list of n_steps + 1 floats), or the CAV in a
    free-driving chain (``head_vel`` None).  Row 0 of pos/vel holds the
    initial state; the function fills pos/vel/acc in place and sets
    ``override_flag[k]`` at every step where the CAV's emergency brake
    fires.  Returns (status, step, column): status 0 on success, 1 on
    collision at the reported step between column-1 and column, with
    pos/vel filled through that step and acc through the one before.

    The CAV in column ``cav`` applies u = sum mu (s - s*) + k (v - v*)
    over the terms ``(column, mu, k, s*)`` of ``feedback``, in order from
    u = 0.0, a zero gain adding nothing; its own errors are a term like
    any other.  ``hdvs`` holds one ``(column, delay steps, s*, alpha,
    beta, v_max, s_st, s_go)`` per HDV, which follows the OVM on the
    state that many steps ago.  ``brake = (column, k0, k1, decel)``
    forces that HDV column's acceleration to ``decel`` for steps
    k0 <= k < k1.

    Each step runs on Python floats held in lists, with ``math.cos`` in
    the OVM, so every operation rounds as it would on numpy scalars.
    Only the last ``max(delay) + 1`` position and velocity rows are kept
    as lists, for the delayed HDV reads; each finished row is written to
    pos/vel/acc with one row assignment.  Vehicles are not vectorised
    with numpy: ``np.cos`` may differ from ``math.cos`` in the last bit.
    """
    n_veh = pos.shape[1]
    has_head = head_vel is not None
    brake_col, brake_k0, brake_k1, brake_acc = brake

    window = max((h[1] for h in hdvs), default=0) + 1
    history = [None] * window
    p = pos[0].tolist()
    v = vel[0].tolist()
    if has_head:
        vel[0, 0] = v[0] = head_vel[0]
    head_a = 0.0
    for k in range(n_steps + 1):
        history[k % window] = p, v
        a_row = [0.0] * n_veh
        braking = brake_k0 <= k < brake_k1
        if has_head:
            if k < n_steps:
                head_a = (head_vel[k + 1] - head_vel[k]) / dt
            a_row[0] = head_a

        # CAV
        u = 0.0
        for j2, mu2, k2, ss2 in feedback:
            if mu2 != 0.0:
                u += mu2 * (p[j2 - 1] - p[j2] - ss2)
            if k2 != 0.0:
                u += k2 * (v[j2] - v_star)
        if cav > 0:
            s0 = p[cav - 1] - p[cav]
            if s0 > 0.0 and (v[cav] ** 2 - v[cav - 1] ** 2) / (2.0 * s0) >= -a_min:
                u = a_min
                override_flag[k] = 1
        a_row[cav] = a_min if u < a_min else (a_max if u > a_max else u)

        # HDVs: nonlinear OVM on the state d steps ago
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
            a = al * (ovm_ramp(sj, vm, s_st, s_go) - vj) + be * sd
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
            v[0] = head_vel[k + 1]
        pos[k + 1] = p
        vel[k + 1] = v
        for j in range(1, n_veh):
            if p[j - 1] - p[j] <= 0.0:
                return 1, k + 1, j
    return 0, 0, 0
