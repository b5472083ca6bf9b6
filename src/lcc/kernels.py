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
steps the chain.  Its row-by-row steppers spell the OVM ramp V(s)
inline, operand for operand as ``vehicles.ovm_ramp`` writes it (0.5
v_max and s_go - s_st formed once per column and call, as its
left-to-right expression forms them), which saves a call per
vehicle-step; ``ovm_ramp`` stays the one scalar definition, and the
block pass evaluates its elementwise form ``ovm_ramp_array``.
``test_simulate_loop_matches_reference_bitwise`` in
``tests/test_kernels.py`` pins every stepper to a reference that calls a
scalar ramp; its ``ramp-ends-zero-delay`` case takes each of the three
branches in a column stepped alone and in a coupled follower.

``plan_chain`` lays a chain out once per run as a ``Chain``: the CAV's
law as one list of linear feedback terms, its own errors first, and the
HDVs split by delay.  ``simulate_loop`` steps the columns the plan names
(a prescribed head holds its whole trace on entry and keeps it) in
chunks of ``ROW_CHUNK`` rows, each in blocks of L steps: L is the least
delay of the HDVs that react at least one step late, plus one, or the
whole chunk when every HDV reacts at once.  Every block makes the same
sequence of calls:

- ``_step_blocks``, one numpy pass over the late HDVs, if any: the
  method of steps for delay equations.  A late HDV at step k < k0 + L
  reads rows k - d <= k0, all written before the block, so one pass
  gives all the block's late accelerations and running sums give their
  rows.  The pass gathers the delayed states with ``take`` on flat views
  of pos and vel (so both must be C-contiguous), by one flat index per
  block, and evaluates every OVM ramp of the block in one cosine pass.
- The HDVs that react at once and the CAV, front to back, one step at a
  time on Python floats, since indexing numpy arrays element by element
  boxes an ``np.float64`` per access; each call converts its rows with
  ``tolist()`` and writes them back at once.  Each prompt HDV ahead of
  the CAV steps alone (``_step_alone``); the CAV with the prompt
  followers its law reads, row by row, in ``_step_coupled``, the one
  place that law is written; each prompt HDV behind those, alone.  A
  prompt HDV's OVM reads row k of its predecessor's column and of its
  own (the time form of Gamma = G (phi/gamma)^(m+n): an HDV past the
  last feedback gain only multiplies Gamma by its own phi/gamma), and
  its predecessor's rows of the block are written by then, by the block
  pass or earlier in this order.

A column's trace is the same bit for bit whether it steps in the block
pass, alone or in the CAV's row: each value comes from the same
expression on the same operands.  numpy's float64 +, -, * and / round
as Python's do, at every SIMD level; the OVM cosine is the C library's
``cos`` in both, which ``math.cos`` calls per step and numpy's float64
``np.cos`` loop per element of a block; and no sum is reordered:
``np.add.accumulate`` adds each column's increments in sequence, as the
per-step update does, and the CAV sums its feedback terms in order.

Every step k, the horizon's last one included, writes acc row k and
pos/vel row k + 1, so pos and vel hold one scratch row past the horizon.
After its blocks, each chunk ends the run at its first colliding pair in
row-major order, the earliest step and then the front-most column, as
stepping every column one row at a time would.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from .vehicles import A_MAX, A_MIN


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

    The parameters broadcast against ``s``.  The cosine's argument
    pi (s - s_st) / (s_go - s_st) is clipped to [0, pi], so one cosine
    pass over every element gives 1 at or below s_st, hence V = +0.0 as
    in the scalar ramp, and -1 at or above s_go, where ``np.where``
    returns ``v_max`` itself (0.5 v_max may underflow).  Below s_go the
    clip moves only an argument that rounds past pi, whose cosine is
    -1.0 either way.  Every other value rounds as the scalar ramp's:
    numpy's float64 -, * and / round as Python's do, and ``np.cos`` is
    the C library's ``cos``, as ``math.cos`` is, at every SIMD level.
    """
    x = np.minimum(np.maximum(math.pi * (s - s_st) / (s_go - s_st), 0.0), math.pi)
    return np.where(s >= s_go, v_max, (0.5 * v_max) * (1.0 - np.cos(x)))


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
    blocks: tuple
    block: int


def plan_chain(dt, v_star, cav, feedback, hdvs, brake):
    """Lay out a chain once for ``simulate_loop`` and its steppers.

    The CAV in column ``cav`` applies u = sum mu (s - s*) + k (v - v*)
    over the terms ``(column, mu, k, s*)`` of ``feedback``, in order from
    u = 0.0, a zero gain adding nothing; its own errors are a term like
    any other.  ``hdvs`` holds one ``(column, delay steps, s*, alpha,
    beta, v_max, s_st, s_go)`` per HDV, which follows the OVM on the
    state that many steps ago.  ``brake = (column, k0, k1, decel)``
    forces that HDV column's acceleration to ``decel`` for steps
    k0 <= k < k1.

    The HDVs, sorted front to back, split by delay.  Those that react at
    least one step late make ``blocks``, what ``_step_blocks`` reads: an
    array per HDV tuple field, in column order, and the mask of the
    braked column, each empty when no HDV is late.  ``block`` is L, the
    least of their delays plus one step, or ``ROW_CHUNK`` when there are
    none.  Those that react at once split into ``ahead`` of the CAV,
    ``coupled`` (behind it, up to the farthest column a feedback term
    reads) and ``tail``.
    """
    hdvs = sorted(hdvs)
    last = max([cav] + [term[0] for term in feedback])
    table = np.array([h for h in hdvs if h[1] > 0], dtype=float).reshape(-1, 8).T.copy()
    cols, delay = table[:2].astype(int)
    block = int(delay.min(initial=ROW_CHUNK - 1)) + 1
    prompt = [h for h in hdvs if h[1] == 0]
    ahead = tuple(h for h in prompt if h[0] < cav)
    coupled = tuple(h for h in prompt if cav < h[0] <= last)
    tail = tuple(h for h in prompt if h[0] > last)
    return Chain(dt, v_star, cav, tuple(feedback), tuple(brake), ahead, coupled, tail,
                 (cols, delay, *table[2:], cols == brake[0]), block)


def simulate_loop(n_steps, chain, pos, vel, acc):
    """Forward-Euler integration of the mixed chain ``plan_chain`` laid out.

    Column 0 is the front-most vehicle: a prescribed head, whose whole
    trace pos/vel/acc hold on entry and keep, or the CAV in a free-driving
    chain.  Row 0 of pos/vel holds the initial state; the function fills
    the other columns of pos/vel/acc in place, steps 0 .. n_steps, each
    writing its acc row and the next pos/vel row, so pos and vel need
    n_steps + 2 rows: row n_steps + 1 is scratch, which no step reads.
    Returns (collision, brake_steps): collision None, or (step, column)
    when column-1 and column meet at that row, which ends the run with
    later rows part-written; ``brake_steps`` holds the steps where the
    CAV's emergency brake fired.  When several pairs meet, the first in
    row-major order (earliest step, then front-most column) is the one
    reported.

    Each chunk of ``ROW_CHUNK`` rows steps in blocks of ``chain.block``
    steps, the last one cut at the chunk's end.  Each block makes one
    sequence of calls (see the module docstring): ``_step_blocks`` on the
    HDVs that react at least one step late, then ``_step_alone`` on each
    HDV ``ahead``, ``_step_coupled`` and ``_step_alone`` on each HDV of
    the ``tail``.  The chunk then ends the run at its first colliding
    pair.  pos and vel must be C-contiguous: ``_step_blocks`` reads them
    through flat views, which a copy would leave stale.
    """
    for name, array in (("pos", pos), ("vel", vel)):
        if not array.flags.c_contiguous:
            raise ValueError(f"simulate_loop needs a C-contiguous {name} array")
        if len(array) != n_steps + 2:
            raise ValueError(f"simulate_loop needs a {name} array of n_steps + 2 = "
                             f"{n_steps + 2} rows, one past the horizon, got {len(array)}")
    n_veh = pos.shape[1]
    cols, delay = chain.blocks[:2]
    # flat index of each late column's delayed state at step k0 + i, less
    # k0 * n_veh; the blocks that start before the longest delay read rows
    # before 0
    lags = (np.arange(chain.block) * n_veh)[:, None] + (cols - delay * n_veh)
    history = int(delay.max(initial=0))
    brake_steps = []

    for r0 in range(0, n_steps + 1, ROW_CHUNK):
        r1 = min(r0 + ROW_CHUNK, n_steps + 1)  # this chunk's steps are r0 .. r1 - 1
        for k0 in range(r0, r1, chain.block):
            k1 = min(k0 + chain.block, r1)  # this block's steps are k0 .. k1 - 1
            _step_blocks(pos, vel, acc, k0, k1, chain, lags, k0 < history)
            for hdv in chain.ahead:
                _step_alone(pos, vel, acc, hdv, k0, k1, chain)
            brake_steps += _step_coupled(pos, vel, acc, k0, k1, chain)
            for hdv in chain.tail:
                _step_alone(pos, vel, acc, hdv, k0, k1, chain)

        rows = pos[r0 + 1:min(r1, n_steps) + 1]  # the scratch row is no trace row
        hit = rows[:, :-1] - rows[:, 1:] <= 0.0
        if hit.any():
            i, j = divmod(int(hit.argmax()), n_veh - 1)
            return (r0 + i + 1, j + 1), brake_steps
    return None, brake_steps


def _step_alone(pos, vel, acc, hdv, r0, r1, chain):
    """Steps r0 .. r1 - 1 of one HDV column that reacts at once, whose
    predecessor column is written through row r1 - 1: writes acc rows r0
    .. r1 - 1 and pos/vel rows r0 + 1 .. r1 of the column.  Step k's OVM
    reads row k of both columns."""
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
    cos, pi, half, width = math.cos, math.pi, 0.5 * vm, s_go - s_st
    rows = zip(pos[r0:r1, j - 1].tolist(), vel[r0:r1, j - 1].tolist())
    for count, forced in segments:
        if forced is None:
            for sp, sv in islice(rows, count):
                s = sp - p
                if s <= s_st:
                    ramp = 0.0
                elif s >= s_go:
                    ramp = vm
                else:
                    ramp = half * (1.0 - cos(pi * (s - s_st) / width))
                a = al * (ramp - v) + be * (sv - v)
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
    pos[r0 + 1:r1 + 1, j] = p_out
    vel[r0 + 1:r1 + 1, j] = v_out


def _step_coupled(pos, vel, acc, r0, r1, chain):
    """Steps r0 .. r1 - 1 of the CAV and its ``coupled`` followers, which
    react at once and so read the current row, one row at a time: writes
    their acc rows r0 .. r1 - 1 and pos/vel rows r0 + 1 .. r1, and returns
    the steps where the CAV's emergency brake fired.  Every other column
    through the farthest one a feedback term reads is read from rows
    already written, by the block pass or by the steps ahead of the CAV."""
    dt, v_star, a_min, a_max = chain.dt, chain.v_star, A_MIN, A_MAX
    cav, feedback = chain.cav, chain.feedback
    brake_col, k0, k1, brake_acc = chain.brake
    # rows r0 .. r1 of columns 0 .. end - 1: the columns read are written,
    # and each step fills the next row's stepped columns before it is read
    end = max(feedback)[0] + 1  # terms sort by column first
    rows_p = pos[r0:r1 + 1, :end].tolist()
    rows_v = vel[r0:r1 + 1, :end].tolist()
    cos, pi = math.cos, math.pi
    followers = [(j, al, be, vm, s_st, s_go, 0.5 * vm, s_go - s_st)
                 for j, _, _, al, be, vm, s_st, s_go in chain.coupled]
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
        for j, al, be, vm, s_st, s_go, half, width in followers:
            vj = v[j]
            s = p[j - 1] - p[j]
            if s <= s_st:
                ramp = 0.0
            elif s >= s_go:
                ramp = vm
            else:
                ramp = half * (1.0 - cos(pi * (s - s_st) / width))
            a = al * (ramp - vj) + be * (v[j - 1] - vj)
            if j == brake_col and k0 <= k < k1:
                a = brake_acc
            a = a_min if a < a_min else (a_max if a > a_max else a)
            p_next[j] = pc = p[j] + dt * vj
            v_next[j] = vn = w if (w := vj + dt * a) > 0.0 else 0.0
            out += a, pc, vn
    a, p, v = np.array(out).reshape(r1 - r0, -1, 3).transpose(2, 0, 1)
    stepped = slice(cav, cav + len(followers) + 1)
    if followers and followers[-1][0] >= stepped.stop:  # a late HDV between them
        stepped = [cav] + [f[0] for f in followers]
    acc[r0:r1, stepped] = a
    pos[r0 + 1:r1 + 1, stepped] = p
    vel[r0 + 1:r1 + 1, stepped] = v
    return flags


def _step_blocks(pos, vel, acc, k0, k1, chain, lags, prehistory):
    """Steps k0 .. k1 - 1, at most ``chain.block`` steps, of the HDVs that
    react at least one step late, in one numpy pass: writes their acc rows
    k0 .. k1 - 1 and pos/vel rows k0 + 1 .. k1.  ``lags[i]`` holds the flat
    index of each such column's delayed state at step k0 + i, less k0 *
    n_veh; with ``prehistory`` some of those rows lie before 0.  Reads pos
    and vel through flat views, so both must be C-contiguous."""
    dt, v_star = chain.dt, chain.v_star
    _, brake_k0, brake_k1, brake_acc = chain.brake
    cols, _, ss, al, be, vm, s_st, s_go, braked = chain.blocks
    if not cols.size:  # every HDV reacts at once: ~25 numpy calls saved per chunk
        return
    n_veh = pos.shape[1]
    pf, vf = pos.reshape(-1), vel.reshape(-1)

    # every delayed row k - d is at most k0, so already written; a row
    # before 0 reads the equilibrium (s*, 0, v*)
    idx = lags[:k1 - k0] + k0 * n_veh
    if prehistory:
        known = idx >= cols  # the delayed row is >= 0
        idx = np.where(known, idx, cols)
    front = idx - 1
    vj = vf.take(idx)
    s = pf.take(front) - pf.take(idx)
    sd = vf.take(front) - vj
    if prehistory:
        s = np.where(known, s, ss)
        sd = np.where(known, sd, 0.0)
        vj = np.where(known, vj, v_star)
    a = al * (ovm_ramp_array(s, vm, s_st, s_go) - vj) + be * sd
    if brake_k0 < k1 and k0 < brake_k1:
        ks = np.arange(k0, k1)
        a[((brake_k0 <= ks) & (ks < brake_k1))[:, None] & braked] = brake_acc
    a = np.minimum(np.maximum(a, A_MIN), A_MAX)

    # rows: each column adds its dt * a, then its dt * v, in sequence as
    # the per-step update does
    row0 = k0 * n_veh + cols
    V = np.empty((k1 - k0 + 1, cols.size))
    V[0] = vf.take(row0)
    np.multiply(dt, a, out=V[1:])
    np.add.accumulate(V, out=V)
    if not V[1:].min() > 0.0:
        for c in np.flatnonzero(~(V[1:] > 0.0).all(axis=0)).tolist():
            # the velocity clamp fires in this column: redo it step by step
            vc = V[0, c]
            for i, step in enumerate((dt * a[:, c]).tolist(), 1):
                V[i, c] = vc = w if (w := vc + step) > 0.0 else 0.0
    P = np.empty_like(V)
    P[0] = pf.take(row0)
    np.multiply(dt, V[:-1], out=P[1:])
    np.add.accumulate(P, out=P)
    pos[k0 + 1:k1 + 1, cols] = P[1:]
    vel[k0 + 1:k1 + 1, cols] = V[1:]
    acc[k0:k1, cols] = a
