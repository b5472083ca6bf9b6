"""Linearized state-space models of a CAV embedded in a chain of HDVs.

Four chain topologies are supported.  In all of them the CAV is vehicle 0,
vehicles -m..-1 drive ahead of it and vehicles 1..n follow behind; the
state stacks (spacing error, velocity error) pairs front to back:

* GENERAL_LCC  head vehicle, m >= 1 HDVs ahead, n >= 1 HDVs behind
* CF_LCC       CAV car-follows the head vehicle directly (m = 0)
* FD_LCC       CAV free-drives, nothing ahead; its spacing row holds
               the negated position -p_0
* CCC          m >= 1 HDVs ahead, none behind

``validate_topology`` is the one statement of these rules in the package;
the simulator applies it to its scenarios too.  ``validate_count`` is the
one rule for m and n themselves (an integer, not a bool, >= 0), which
``stability.TransferSpec`` shares, and ``validate_gain_ids`` the one rule
for the vehicles a CAV gain may name.

The blocks of the dynamics matrix follow the linearized HDV model: an HDV
pair contributes P1 on the diagonal and P2 coupling to its predecessor,
the CAV contributes the double-integrator pair S1/S2.  The single input
is the CAV's acceleration; the head vehicle's velocity error enters
through the disturbance column H.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import TopologyError
from .vehicles import LinearCoeffs

__all__ = [
    "SystemVariant",
    "FeedbackGains",
    "StateSpaceModel",
    "validate_count",
    "validate_topology",
    "validate_gain_ids",
    "build_system",
    "control_row",
    "closed_loop_matrix",
]


class SystemVariant(Enum):
    GENERAL_LCC = "general"
    CF_LCC = "cf"
    FD_LCC = "fd"
    CCC = "ccc"


@dataclass(frozen=True)
class FeedbackGains:
    """Static spacing/velocity feedback gains of the CAV, keyed by vehicle id.

    ``mu[i]`` multiplies vehicle i's spacing error, ``k[i]`` its velocity
    error.  Ids missing from a map contribute zero.  Id 0 (the CAV's own
    states) is only meaningful for the CF/FD topologies, whose explicit
    controllers may feed back the CAV's own state; for FD chains mu[0]
    multiplies the negated-position state.
    """

    mu: Mapping[int, float] = field(default_factory=dict)
    k: Mapping[int, float] = field(default_factory=dict)

    def ids(self) -> set:
        return set(self.mu) | set(self.k)

    @staticmethod
    def from_pairs(pairs: Mapping[int, Tuple[float, float]]) -> "FeedbackGains":
        """Build from a map id -> (mu, k)."""
        return FeedbackGains(
            mu={i: mk[0] for i, mk in pairs.items()},
            k={i: mk[1] for i, mk in pairs.items()},
        )


@dataclass
class StateSpaceModel:
    """Assembled (A, B, H) triple plus the bookkeeping to read it.

    ``index_map`` sends a vehicle id to its (spacing-row, velocity-row)
    pair.  For FD chains the CAV's "spacing" row holds -p_0.
    """

    variant: SystemVariant
    m: int
    n: int
    coeffs: LinearCoeffs
    A: np.ndarray
    B: np.ndarray
    H: Optional[np.ndarray]
    index_map: Dict[int, Tuple[int, int]]

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def vehicle_ids(self) -> list:
        return sorted(self.index_map)


def validate_count(name: str, value) -> None:
    """Raise ``TopologyError``, naming ``name``, unless ``value`` is a vehicle count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise TopologyError(f"{name} must be an integer >= 0, got {value!r}")


def validate_topology(variant: SystemVariant, m: int, n: int) -> None:
    """Raise ``TopologyError`` unless (m, n) is a valid chain of ``variant``."""
    validate_count("m", m)
    validate_count("n", n)
    if variant is SystemVariant.GENERAL_LCC and (m < 1 or n < 1):
        raise TopologyError(f"general chain needs m >= 1 and n >= 1, got m={m}, n={n}")
    if variant in (SystemVariant.CF_LCC, SystemVariant.FD_LCC) and m != 0:
        raise TopologyError(f"{variant.value} chain needs m = 0, got m={m}")
    if variant is SystemVariant.CCC and (m < 1 or n != 0):
        raise TopologyError(f"ccc chain needs m >= 1 and n = 0, got m={m}, n={n}")


def validate_gain_ids(ids, m: int, n: int, own_state: bool = False) -> None:
    """Raise ``TopologyError`` unless every id in ``ids`` may carry a CAV gain.

    The HDVs -m..-1 and 1..n may; the CAV itself (id 0) only with
    ``own_state``, where the law feeds back the CAV's own errors: CF/FD
    closed loops and the simulator's explicit mode.
    """
    groups = {
        f"-{m}..-1": range(-m, 0),
        "0": [0] if own_state else [],
        f"1..{n}": range(1, n + 1),
    }
    bad = set(ids).difference(*groups.values())
    if bad:
        allowed = ", ".join(name for name, group in groups.items() if group)
        raise TopologyError(f"gain ids {sorted(bad)} outside {allowed or 'a chain with no HDV'}")


def build_system(
    variant: SystemVariant, m: int, n: int, c: LinearCoeffs
) -> StateSpaceModel:
    """Assemble the linear model for one topology.

    Vehicles are stacked front to back, two states each.  Every HDV block
    row is (P2 | P1) against its predecessor, the CAV block row is
    (S2 | S1), and the head vehicle's velocity error feeds the front
    vehicle through H (absent for FD chains, which have no head).
    """
    validate_topology(variant, m, n)
    a1, a2, a3 = c.alpha1, c.alpha2, c.alpha3
    P1 = np.array([[0.0, -1.0], [a1, -a2]])
    P2 = np.array([[0.0, 1.0], [0.0, a3]])
    S1 = np.array([[0.0, -1.0], [0.0, 0.0]])
    S2 = np.array([[0.0, 1.0], [0.0, 0.0]])

    ids = range(-m, n + 1)
    dim = 2 * len(ids)

    A = np.zeros((dim, dim))
    index_map: Dict[int, Tuple[int, int]] = {}
    for pos, vid in enumerate(ids):
        r = 2 * pos
        index_map[vid] = (r, r + 1)
        cav = vid == 0
        if cav and variant is SystemVariant.CF_LCC:
            # CF chain: the CAV adopts the HDV law toward the head vehicle.
            A[r : r + 2, r : r + 2] = P1
        elif cav:
            A[r : r + 2, r : r + 2] = S1
            if pos > 0:
                A[r : r + 2, r - 2 : r] = S2
        else:
            A[r : r + 2, r : r + 2] = P1
            if pos > 0:
                A[r : r + 2, r - 2 : r] = P2

    B = np.zeros((dim, 1))
    B[index_map[0][1], 0] = 1.0

    if variant is SystemVariant.FD_LCC:
        H = None
    else:
        H = np.zeros((dim, 1))
        H[0, 0] = 1.0
        H[1, 0] = a3

    return StateSpaceModel(
        variant=variant,
        m=m,
        n=n,
        coeffs=c,
        A=A,
        B=B,
        H=H,
        index_map=index_map,
    )


def control_row(model: StateSpaceModel, gains: FeedbackGains) -> np.ndarray:
    """Row vector K of the CAV feedback law u = K x.

    In general and CCC chains the CAV mimics an HDV toward vehicle -1
    (alpha1 on its own spacing, -alpha2 on its own velocity, alpha3 on
    the predecessor's velocity) and the gains add on top.  CF chains
    carry that baseline inside A already and FD chains have no
    predecessor, so for both only the gain terms remain.
    """
    own_state = model.variant in (SystemVariant.CF_LCC, SystemVariant.FD_LCC)
    validate_gain_ids(gains.ids(), model.m, model.n, own_state)
    K = np.zeros(model.dim)
    c = model.coeffs
    if model.variant in (SystemVariant.GENERAL_LCC, SystemVariant.CCC):
        rs0, rv0 = model.index_map[0]
        K[rs0] += c.alpha1
        K[rv0] += -c.alpha2
        K[model.index_map[-1][1]] += c.alpha3
    for vid, g in gains.mu.items():
        K[model.index_map[vid][0]] += g
    for vid, g in gains.k.items():
        K[model.index_map[vid][1]] += g
    return K


def closed_loop_matrix(model: StateSpaceModel, gains: FeedbackGains) -> np.ndarray:
    """Closed-loop dynamics A + B K under the CAV feedback law."""
    K = control_row(model, gains)
    return model.A + model.B @ K[None, :]
