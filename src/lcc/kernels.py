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

``plan_chain`` lays a chain out once per run as a ``Chain``: the CAV's
law as one list of linear feedback terms, its own errors first, the HDVs
in the groups the chunk bodies step, and the body.  ``simulate_loop``
steps the columns the plan names (a prescribed head holds its whole
trace on entry and keeps it) in chunks of ``ROW_CHUNK`` rows, each with
the plan's body:

- When some HDV reacts at least one step late, in blocks of L = min(delay)
  + 1 steps, the method of steps for delay equations.  Within a block
  every HDV reads only rows already written, so one numpy pass gives all
  the block's HDV accelerations and running sums give its HDV rows; then
  ``_step_coupled`` steps the CAV, whose law reads the current row,
  through the block one step at a time on Python floats.
- When every HDV reacts at once, one step at a time on Python floats,
  since indexing numpy arrays element by element boxes an ``np.float64``
  per access, with each chunk converted with ``tolist()`` and written
  back at once.  The chunk goes column by column in dependency order:
  each HDV ahead of the CAV, alone; the CAV with the followers its law
  reads, row by row, in ``_step_coupled``, the one place that law is
  written; each HDV behind those, alone.  An HDV's OVM reads only its
  predecessor's column and its own (the time form of Gamma = G
  (phi/gamma)^(m+n): an HDV past the last feedback gain only multiplies
  Gamma by its own phi/gamma), so once its predecessor's rows are
  written its own follow from them, one step after another.

Both bodies give the same traces bit for bit, and so does a column
stepped alone or in its row: each value comes from the same expression on
the same operands.  numpy's float64 +, -, * and / round as Python's do,
at every SIMD level; the OVM cosine is ``math.cos`` on each spacing in
both (``np.cos`` may differ in the last bit); and no sum is reordered:
``np.add.accumulate`` adds each column's increments in sequence, as the
per-step update does, and the CAV sums its feedback terms in order.

After either body, the chunk ends the run at its first colliding pair in
row-major order, the earliest step and then the front-most column, as
stepping every column one row at a time would, and puts back every later
row it holds as it was.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from .vehicles import A_MAX, A_MIN, ovm_ramp


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


# Rows each chunk of ``simulate_loop`` steps, converts to Python floats and
# writes back at once, so no list ever holds a whole column's horizon.
ROW_CHUNK = 512


class Chain(NamedTuple):
    """A chain laid out for ``simulate_loop`` by ``plan_chain``."""

    dt: float
    v_star: float
    cav: int
    feedback: tuple
    brake: tuple
    ahead: tuple
    coupled: tuple
    tail: tuple
    blocks: Optional[tuple]


def plan_chain(dt, v_star, cav, feedback, hdvs, brake):
    """Lay out a chain once for ``simulate_loop`` and its chunk bodies.

    The CAV in column ``cav`` applies u = sum mu (s - s*) + k (v - v*)
    over the terms ``(column, mu, k, s*)`` of ``feedback``, in order from
    u = 0.0, a zero gain adding nothing; its own errors are a term like
    any other.  ``hdvs`` holds one ``(column, delay steps, s*, alpha,
    beta, v_max, s_st, s_go)`` per HDV, which follows the OVM on the
    state that many steps ago.  ``brake = (column, k0, k1, decel)``
    forces that HDV column's acceleration to ``decel`` for steps
    k0 <= k < k1.

    The HDVs, sorted front to back, split into ``ahead`` of the CAV,
    ``coupled`` (behind it, up to the farthest column a feedback term
    reads) and ``tail``.  When some HDV reacts at least one step late,
    ``blocks`` holds what ``_step_blocks`` reads: an array per HDV tuple
    field, in column order, and the mask of the braked column; when every
    HDV reacts at once it is None.
    """
    hdvs = sorted(hdvs)
    last = max([cav] + [term[0] for term in feedback])
    blocks = None
    if any(h[1] > 0 for h in hdvs):
        columns = list(zip(*hdvs))
        cols = np.array(columns[0])
        floats = (np.array(c, dtype=float) for c in columns[2:])
        blocks = (cols, np.array(columns[1]), *floats, cols == brake[0])
    ahead = tuple(h for h in hdvs if h[0] < cav)
    coupled = tuple(h for h in hdvs if cav < h[0] <= last)
    tail = tuple(h for h in hdvs if h[0] > last)
    return Chain(dt, v_star, cav, tuple(feedback), tuple(brake), ahead, coupled, tail, blocks)


def simulate_loop(n_steps, chain, pos, vel, acc):
    """Forward-Euler integration of the mixed chain ``plan_chain`` laid out.

    Column 0 is the front-most vehicle: a prescribed head, whose whole
    trace pos/vel/acc hold on entry and keep, or the CAV in a free-driving
    chain.  Row 0 of pos/vel holds the initial state; the function fills
    the other columns of pos/vel/acc in place.  Returns (status, step,
    column, brake_steps): status 0 on success, 1 on collision at the
    reported step between column-1 and column, with pos/vel filled
    through that step, acc and ``brake_steps`` (the steps where the CAV's
    emergency brake fired) through the one before, and every later row
    left as it was.  When several pairs meet, the first in row-major
    order (earliest step, then front-most column) is the one reported.

    Each chunk of ``ROW_CHUNK`` rows steps the columns with
    ``_step_blocks`` when the plan has ``blocks``, else with
    ``_step_alone`` on each HDV ``ahead``, ``_step_coupled`` and
    ``_step_alone`` on each HDV of the ``tail``, in that order (see the
    module docstring), and ends the run at its first colliding pair.
    """
    n_veh = pos.shape[1]
    brake_steps = []

    r0 = 0
    while True:
        r1 = min(r0 + ROW_CHUNK, n_steps + 1)  # this chunk's steps are r0 .. r1 - 1
        nu = min(r1, n_steps) - r0  # its state updates give rows r0 + 1 .. r0 + nu
        kept = pos[r0 + 1:r0 + nu + 1].copy(), vel[r0 + 1:r0 + nu + 1].copy(), acc[r0:r1].copy()
        if chain.blocks is not None:
            flags = _step_blocks(pos, vel, acc, r0, r1, nu, chain)
        else:
            for hdv in chain.ahead:
                _step_alone(pos, vel, acc, hdv, r0, r1, nu, chain)
            flags = _step_coupled(pos, vel, acc, r0, r1, nu, chain, chain.coupled)
            for hdv in chain.tail:
                _step_alone(pos, vel, acc, hdv, r0, r1, nu, chain)

        hit = pos[r0 + 1:r0 + nu + 1, :-1] - pos[r0 + 1:r0 + nu + 1, 1:] <= 0.0
        if hit.any():
            # the first colliding row (row-major) ends the run: put back
            # every row after it as it was
            i, j = divmod(int(hit.argmax()), n_veh - 1)
            pos[r0 + i + 2:r0 + nu + 1] = kept[0][i + 1:]
            vel[r0 + i + 2:r0 + nu + 1] = kept[1][i + 1:]
            acc[r0 + i + 1:r1] = kept[2][i + 1:]
            return 1, r0 + i + 1, j + 1, brake_steps + [k for k in flags if k <= r0 + i]
        brake_steps += flags
        if r1 > n_steps:
            return 0, 0, 0, brake_steps
        r0 = r1


def _step_alone(pos, vel, acc, hdv, r0, r1, nu, chain):
    """Steps r0 .. r1 - 1 of one HDV column that reacts at once, whose
    predecessor column is written through row r1 - 1: writes acc rows r0
    .. r1 - 1 and pos/vel rows r0 + 1 .. r0 + nu of the column.  Step k's
    OVM reads row k of both columns."""
    j, _, _, al, be, vm, s_st, s_go = hdv
    dt, a_min, a_max = chain.dt, A_MIN, A_MAX
    p, v = pos[r0, j].item(), vel[r0, j].item()

    brake_col, k0, k1, brake_acc = chain.brake
    segments = [(r1 - r0, None)]
    if j == brake_col:
        b0, b1 = min(max(k0, r0), r1), min(max(k1, r0), r1)
        if b0 < b1:
            forced = a_min if brake_acc < a_min else (a_max if brake_acc > a_max else brake_acc)
            segments = [(b0 - r0, None), (b1 - b0, forced), (r1 - b1, None)]

    a_out, p_out, v_out = [], [], []
    add_a, add_p, add_v = a_out.append, p_out.append, v_out.append
    ramp = ovm_ramp
    rows = zip(pos[r0:r1, j - 1].tolist(), vel[r0:r1, j - 1].tolist())
    for count, forced in segments:
        if forced is None:
            for sp, sv in islice(rows, count):
                a = al * (ramp(sp - p, vm, s_st, s_go) - v) + be * (sv - v)
                a = a_min if a < a_min else (a_max if a > a_max else a)
                add_a(a)
                p = p + dt * v
                v = w if (w := v + dt * a) > 0.0 else 0.0
                add_p(p)
                add_v(v)
        else:
            for _ in islice(rows, count):
                add_a(forced)
                p = p + dt * v
                v = w if (w := v + dt * forced) > 0.0 else 0.0
                add_p(p)
                add_v(v)
    acc[r0:r1, j] = a_out
    pos[r0 + 1:r0 + nu + 1, j] = p_out[:nu]
    vel[r0 + 1:r0 + nu + 1, j] = v_out[:nu]


def _step_coupled(pos, vel, acc, r0, r1, nu, chain, hdvs):
    """Steps r0 .. r1 - 1 of the CAV and the followers ``hdvs`` one row at a
    time: writes their acc rows r0 .. r1 - 1 and pos/vel rows r0 + 1 .. r0
    + nu, and returns the steps where the CAV's emergency brake fired.
    Every other column through the last ``coupled`` one is read from rows
    already written.  The per-step body passes ``coupled``, whose
    followers react at once and so read the current row; the block body
    passes none, having written the block's HDV rows first."""
    dt, v_star, a_min, a_max = chain.dt, chain.v_star, A_MIN, A_MAX
    cav, feedback = chain.cav, chain.feedback
    brake_col, k0, k1, brake_acc = chain.brake
    # every column between the CAV and its farthest feedback term is a follower
    end = (chain.coupled[-1][0] if chain.coupled else cav) + 1
    # rows r0 .. r1 of columns 0 .. end - 1: the columns read are written,
    # and each step fills the next row's stepped columns before it is read
    rows_p = pos[r0:r0 + nu + 1, :end].tolist()
    rows_v = vel[r0:r0 + nu + 1, :end].tolist()
    if nu < r1 - r0:  # the horizon's last step updates no state
        rows_p.append(rows_p[-1][:])
        rows_v.append(rows_v[-1][:])
    out, flags = [], []  # (a, p, v) of each stepped column, row by row
    for k, p, v, p_next, v_next in zip(range(r0, r1), rows_p, rows_v, rows_p[1:], rows_v[1:]):
        u = 0.0
        for j2, mu2, k2, ss2 in feedback:
            if mu2 != 0.0:
                u += mu2 * (p[j2 - 1] - p[j2] - ss2)
            if k2 != 0.0:
                u += k2 * (v[j2] - v_star)
        vc = v[cav]
        if cav > 0 and (s0 := p[cav - 1] - p[cav]) > 0.0 \
                and (vc ** 2 - v[cav - 1] ** 2) / (2.0 * s0) >= -a_min:
            u = a_min
            flags.append(k)
        a = a_min if u < a_min else (a_max if u > a_max else u)
        p_next[cav] = pc = p[cav] + dt * vc
        v_next[cav] = vn = w if (w := vc + dt * a) > 0.0 else 0.0
        out += a, pc, vn
        for j, _, _, al, be, vm, s_st, s_go in hdvs:
            vj = v[j]
            a = al * (ovm_ramp(p[j - 1] - p[j], vm, s_st, s_go) - vj) + be * (v[j - 1] - vj)
            if j == brake_col and k0 <= k < k1:
                a = brake_acc
            a = a_min if a < a_min else (a_max if a > a_max else a)
            p_next[j] = pc = p[j] + dt * vj
            v_next[j] = vn = w if (w := vj + dt * a) > 0.0 else 0.0
            out += a, pc, vn
    a, p, v = np.array(out).reshape(r1 - r0, -1, 3).transpose(2, 0, 1)
    stepped = slice(cav, cav + len(hdvs) + 1)
    acc[r0:r1, stepped] = a
    pos[r0 + 1:r0 + nu + 1, stepped] = p[:nu]
    vel[r0 + 1:r0 + nu + 1, stepped] = v[:nu]
    return flags


def _step_blocks(pos, vel, acc, r0, r1, nu, chain):
    """Steps r0 .. r1 - 1 of every column but the head's in blocks of
    min(delay) + 1 steps, the last one cut at r1: writes acc rows r0 .. r1
    - 1 and pos/vel rows r0 + 1 .. r0 + nu, and returns the steps where
    the CAV's emergency brake fired.  Each block writes its HDV rows, then
    hands the CAV's to ``_step_coupled``."""
    dt, v_star = chain.dt, chain.v_star
    _, brake_k0, brake_k1, brake_acc = chain.brake
    cols, delay, ss, al, be, vm, s_st, s_go, braked = chain.blocks
    block = int(delay.min()) + 1
    max_delay = int(delay.max())
    flags = []
    k0 = r0
    while k0 < r1:
        k1 = min(k0 + block, r1)  # this block's steps are k0 .. k1 - 1
        nb = min(k1, r0 + nu) - k0  # its state updates give rows k0 + 1 .. k0 + nb
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
        a = np.where(a < A_MIN, A_MIN, np.where(a > A_MAX, A_MAX, a))

        # HDV rows: each column adds its dt * a, then its dt * v, in
        # sequence as the per-step update does
        V = np.empty((nb + 1, cols.size))
        V[0] = vel[k0, cols]
        np.multiply(dt, a[:nb], out=V[1:])
        np.add.accumulate(V, out=V)
        for c in np.flatnonzero(~(V[1:] > 0.0).all(axis=0)).tolist():
            # the velocity clamp fires in this column: redo it step by step
            vc = V[0, c]
            for i, step in enumerate((dt * a[:nb, c]).tolist(), 1):
                V[i, c] = vc = w if (w := vc + step) > 0.0 else 0.0
        P = np.empty((nb + 1, cols.size))
        P[0] = pos[k0, cols]
        np.multiply(dt, V[:nb], out=P[1:])
        np.add.accumulate(P, out=P)
        pos[k0 + 1:k0 + nb + 1, cols] = P[1:]
        vel[k0 + 1:k0 + nb + 1, cols] = V[1:]
        acc[k0:k1, cols] = a

        # CAV: its law reads the current row, so it steps one step at a time
        flags += _step_coupled(pos, vel, acc, k0, k1, nb, chain, ())
        k0 = k1
    return flags
