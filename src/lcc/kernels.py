"""Hot numeric kernels: plain numpy / Python.

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
steps the chain, with the OVM ramp of ``vehicles.ovm_ramp``, or its
elementwise form ``ovm_ramp_array``.

``simulate_loop`` takes the chain as ``sim.simulate`` lays it out: the
CAV's law as one list of linear feedback terms, its own errors first,
the HDVs as one tuple of constants each.  The input picks one of two
steppers:

- A chain whose every HDV reacts at least ``BLOCK_MIN_DELAY`` steps late
  steps in blocks of L = min(delay) + 1 steps, the method of steps for
  delay equations.  Within a block every HDV reads only rows already
  written, so one numpy pass gives all the block's HDV accelerations and
  running sums give its head and HDV rows; only the CAV, whose law reads
  the current row, steps one step at a time on Python floats.
- Any other chain steps one step at a time on Python floats in lists,
  since indexing numpy arrays element by element boxes an ``np.float64``
  per access, keeping a history window of only ``max(delay) + 1`` rows.

Both give the same traces bit for bit.  numpy's float64 +, -, * and /
round as Python's do, at every SIMD level; the OVM cosine is
``math.cos`` on each spacing in both (``np.cos`` may differ in the last
bit); and no sum is reordered: ``np.add.accumulate`` adds each column's
increments in sequence, as the per-step update does, and the CAV sums
its feedback terms in order.
"""

from __future__ import annotations

import math

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

def ovm_ramp_array(s, v_max, s_st, s_go):
    """``vehicles.ovm_ramp`` elementwise over an array of spacings ``s``.

    The parameters broadcast against ``s``.  Every value rounds as the
    scalar ramp's: numpy's float64 -, * and / round as Python's do, and
    the cosine is ``math.cos`` on each spacing inside the ramp.
    """
    stopped = s <= s_st
    ramp = ~(stopped | (s >= s_go))
    cosines = np.zeros(np.shape(s))
    cosines[ramp] = list(map(math.cos, (math.pi * (s - s_st) / (s_go - s_st))[ramp].tolist()))
    return np.where(ramp, (0.5 * v_max) * (1.0 - cosines), np.where(stopped, 0.0, v_max))


# Chains whose every HDV reacts at least this many steps late step in
# blocks (``_simulate_blocks``).  Below it the per-step loop is faster on
# some chain: the blocks win from about 7 steps with 10 HDVs, 13 with 4
# and 20 with one or two.
BLOCK_MIN_DELAY = 20


def _cav_acceleration(p, v, cav, feedback, v_star, a_min, a_max):
    """The CAV's clamped acceleration on the positions ``p`` and velocities
    ``v`` of one step, and whether its emergency brake overrode its law."""
    u = 0.0
    for j2, mu2, k2, ss2 in feedback:
        if mu2 != 0.0:
            u += mu2 * (p[j2 - 1] - p[j2] - ss2)
        if k2 != 0.0:
            u += k2 * (v[j2] - v_star)
    if cav > 0:
        s0 = p[cav - 1] - p[cav]
        if s0 > 0.0 and (v[cav] ** 2 - v[cav - 1] ** 2) / (2.0 * s0) >= -a_min:
            return a_min, True
    return (a_min if u < a_min else (a_max if u > a_max else u)), False


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
    pos/vel filled through that step, acc and override_flag through the
    one before, and every later row left as it was.

    The CAV in column ``cav`` applies u = sum mu (s - s*) + k (v - v*)
    over the terms ``(column, mu, k, s*)`` of ``feedback``, in order from
    u = 0.0, a zero gain adding nothing; its own errors are a term like
    any other.  ``hdvs`` holds one ``(column, delay steps, s*, alpha,
    beta, v_max, s_st, s_go)`` per HDV, which follows the OVM on the
    state that many steps ago.  ``brake = (column, k0, k1, decel)``
    forces that HDV column's acceleration to ``decel`` for steps
    k0 <= k < k1.

    A chain whose HDVs all react at least ``BLOCK_MIN_DELAY`` steps late
    steps in blocks (``_simulate_blocks``); any other steps one step at a
    time on Python floats, with ``math.cos`` in the OVM, keeping only the
    last ``max(delay) + 1`` position and velocity rows as lists for the
    delayed HDV reads and writing each finished row to pos/vel/acc with
    one row assignment.  Both round every operation alike (see the module
    docstring), so the arrays do not depend on which one ran.
    """
    if hdvs and min(h[1] for h in hdvs) >= BLOCK_MIN_DELAY:
        return _simulate_blocks(
            n_steps, dt, pos, vel, acc, head_vel, cav, feedback, hdvs, v_star, brake,
            a_min, a_max, override_flag,
        )
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

        a_row[cav], overridden = _cav_acceleration(p, v, cav, feedback, v_star, a_min, a_max)
        if overridden:
            override_flag[k] = 1

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


def _simulate_blocks(
    n_steps, dt, pos, vel, acc, head_vel, cav, feedback, hdvs, v_star, brake, a_min, a_max,
    override_flag,
):
    """``simulate_loop`` in blocks of min(delay) + 1 steps, for a chain with
    at least one HDV: same arguments, same results bit for bit."""
    n_veh = pos.shape[1]
    has_head = head_vel is not None
    brake_col, brake_k0, brake_k1, brake_acc = brake
    columns = list(zip(*hdvs))
    cols, delay = np.array(columns[0]), np.array(columns[1])
    ss, al, be, vm, s_st, s_go = (np.array(c, dtype=float) for c in columns[2:])
    block = int(delay.min()) + 1
    max_delay = int(delay.max())
    braked = cols == brake_col
    if has_head:
        hv = np.array(head_vel, dtype=float)
        vel[0, 0] = hv[0]
        head_acc = (hv[1:] - hv[:-1]) / dt
        head_acc = np.append(head_acc, head_acc[-1] if n_steps else 0.0)

    k0 = 0
    while True:
        k1 = min(k0 + block, n_steps + 1)  # this block's steps are k0 .. k1 - 1
        nu = min(k1, n_steps) - k0  # its state updates give rows k0 + 1 .. k0 + nu
        ks = np.arange(k0, k1)

        # HDVs: every delayed row k - d is at most k0, so already written;
        # a row before 0 reads the equilibrium (s*, 0, v*)
        rows = ks[:, None] - delay
        prehistory = k0 < max_delay
        if prehistory:
            known = rows >= 0
            rows = np.where(known, rows, 0)
        s = pos[rows, cols - 1] - pos[rows, cols]
        sd = vel[rows, cols - 1] - vel[rows, cols]
        vj = vel[rows, cols]
        if prehistory:
            s = np.where(known, s, ss)
            sd = np.where(known, sd, 0.0)
            vj = np.where(known, vj, v_star)
        a = al * (ovm_ramp_array(s, vm, s_st, s_go) - vj) + be * sd
        if brake_k0 < k1 and k0 < brake_k1:
            a[((brake_k0 <= ks) & (ks < brake_k1))[:, None] & braked] = brake_acc
        a = np.where(a < a_min, a_min, np.where(a > a_max, a_max, a))

        # Head and HDV rows: each column adds its dt * a, then its dt * v,
        # in sequence as the per-step update does.  The CAV column holds
        # finite placeholders until the CAV steps below.
        A = np.zeros((k1 - k0, n_veh))
        A[:, cols] = a
        V = np.empty((nu + 1, n_veh))
        V[0] = vel[k0]
        np.multiply(dt, A[:nu], out=V[1:])
        np.add.accumulate(V, out=V)
        for c in np.flatnonzero(~(V[1:, cols] > 0.0).all(axis=0)).tolist():
            # the velocity clamp fires in this column: redo it step by step
            vc = V[0, cols[c]]
            for i, step in enumerate((dt * a[:nu, c]).tolist(), 1):
                V[i, cols[c]] = vc = w if (w := vc + step) > 0.0 else 0.0
        if has_head:
            A[:, 0] = head_acc[k0:k1]
            V[:, 0] = hv[k0:k0 + nu + 1]
        P = np.empty((nu + 1, n_veh))
        P[0] = pos[k0]
        np.multiply(dt, V[:nu], out=P[1:])
        np.add.accumulate(P, out=P)

        # CAV: its law reads the current row, so it steps one step at a time
        Pl, Vl = P.tolist(), V.tolist()
        flags = []
        cav_a = []
        for i in range(k1 - k0):
            p, v = Pl[i], Vl[i]
            ac, overridden = _cav_acceleration(p, v, cav, feedback, v_star, a_min, a_max)
            if overridden:
                flags.append(k0 + i)
            cav_a.append(ac)
            if i < nu:
                Pl[i + 1][cav] = p[cav] + dt * v[cav]
                w = v[cav] + dt * ac
                Vl[i + 1][cav] = w if w > 0.0 else 0.0
        A[:, cav] = cav_a
        P[1:, cav] = [row[cav] for row in Pl[1:]]
        V[1:, cav] = [row[cav] for row in Vl[1:]]

        hit = P[1:, :-1] - P[1:, 1:] <= 0.0
        collided = hit.any()
        if collided:
            # the first colliding row (row-major) ends the run, as in the
            # per-step loop: nothing after it is written
            i, j = divmod(int(hit.argmax()), n_veh - 1)
            nu, k1 = i + 1, k0 + i + 1
        pos[k0 + 1:k0 + nu + 1] = P[1:nu + 1]
        vel[k0 + 1:k0 + nu + 1] = V[1:nu + 1]
        acc[k0:k1] = A[:k1 - k0]
        override_flag[[f for f in flags if f < k1]] = 1
        if collided:
            return 1, k1, j + 1
        if k1 > n_steps:
            return 0, 0, 0
        k0 = k1
