"""State-space assembly of the chain topologies and the closed loop."""

import numpy as np
import pytest

from lcc import (
    CavController,
    FeedbackGains,
    GainAxis,
    ScenarioConfig,
    SystemVariant,
    TopologyError,
    TransferSpec,
    build_system,
    closed_loop_matrix,
    control_row,
    scan_region,
    simulate,
)
from lcc.systems import validate_gain_ids

V = SystemVariant


def blocks(c):
    P1 = np.array([[0.0, -1.0], [c.alpha1, -c.alpha2]])
    P2 = np.array([[0.0, 1.0], [0.0, c.alpha3]])
    S1 = np.array([[0.0, -1.0], [0.0, 0.0]])
    S2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    return P1, P2, S1, S2


def test_general_shape(default_coeffs):
    mod = build_system(V.GENERAL_LCC, 2, 2, default_coeffs)
    assert mod.A.shape == (10, 10)
    assert np.flatnonzero(mod.B).tolist() == [5]
    assert mod.B[5, 0] == 1.0
    assert np.flatnonzero(mod.H).tolist() == [0, 1]
    assert mod.H[0, 0] == 1.0 and mod.H[1, 0] == default_coeffs.alpha3


def test_fd_n0_is_double_integrator(default_coeffs):
    mod = build_system(V.FD_LCC, 0, 0, default_coeffs)
    assert np.array_equal(mod.A, np.array([[0.0, -1.0], [0.0, 0.0]]))
    assert np.array_equal(mod.B.ravel(), [0.0, 1.0])
    assert mod.H is None
    assert mod.index_map == {0: (0, 1)}


def test_cf_n1_matrix(default_coeffs):
    a1, a2, a3 = default_coeffs.alpha1, default_coeffs.alpha2, default_coeffs.alpha3
    mod = build_system(V.CF_LCC, 0, 1, default_coeffs)
    expected = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [a1, -a2, 0.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [0.0, a3, a1, -a2],
        ]
    )
    assert np.array_equal(mod.A, expected)
    assert np.array_equal(mod.H.ravel(), [1.0, a3, 0.0, 0.0])


def test_ccc_structure(default_coeffs):
    P1, P2, S1, S2 = blocks(default_coeffs)
    mod = build_system(V.CCC, 2, 0, default_coeffs)
    assert mod.dim == 6
    assert np.array_equal(mod.A[4:6, 4:6], S1)
    assert np.array_equal(mod.A[4:6, 2:4], S2)
    assert np.array_equal(mod.A[0:2, 0:2], P1)
    assert np.flatnonzero(mod.B).tolist() == [5]


def test_topology_validation(default_coeffs):
    for bad in [(V.GENERAL_LCC, 0, 2), (V.GENERAL_LCC, 2, 0), (V.CF_LCC, 1, 2),
                (V.FD_LCC, 2, 2), (V.CCC, 0, 0), (V.CCC, 2, 1)]:
        with pytest.raises(TopologyError):
            build_system(bad[0], bad[1], bad[2], default_coeffs)


@pytest.mark.parametrize(
    "variant, m, n, field",
    [(V.GENERAL_LCC, 1.5, 1, "m"), (V.CF_LCC, 0, True, "n"), (V.CF_LCC, 0, 2.0, "n"),
     (V.FD_LCC, 0, -1, "n")],
    ids=["m=1.5", "n=True", "n=2.0", "n=-1"],
)
def test_counts_must_be_integers(default_coeffs, variant, m, n, field):
    """One count rule for the model, the transfer function and the simulator,
    and each error names its field."""
    match = f"{field} must be an integer >= 0"
    with pytest.raises(TopologyError, match=match):
        build_system(variant, m, n, default_coeffs)
    with pytest.raises(TopologyError, match=match):
        TransferSpec(m=m, n=n, coeffs=default_coeffs)
    with pytest.raises(TopologyError, match=match):
        simulate(ScenarioConfig(variant=variant, m=m, n=n, cav=CavController(mode="explicit")))


@pytest.mark.parametrize(
    "variant,m,n",
    [(V.GENERAL_LCC, 2, 3), (V.CF_LCC, 0, 3), (V.FD_LCC, 0, 2), (V.CCC, 3, 0)],
)
def test_index_map_roundtrip(default_coeffs, variant, m, n):
    mod = build_system(variant, m, n, default_coeffs)
    rows = [r for pair in mod.index_map.values() for r in pair]
    assert sorted(rows) == list(range(mod.dim))
    assert all(rv == rs + 1 for rs, rv in mod.index_map.values())


@pytest.mark.parametrize(
    "variant,m,n",
    [(V.GENERAL_LCC, 2, 2), (V.CF_LCC, 0, 3), (V.FD_LCC, 0, 3), (V.CCC, 2, 0)],
)
def test_spacing_rows_conserve_kinematics(default_coeffs, variant, m, n):
    """Every spacing row differentiates positions: +1 predecessor, -1 self."""
    mod = build_system(variant, m, n, default_coeffs)
    ids = sorted(mod.index_map)
    for pos, vid in enumerate(ids):
        rs, rv = mod.index_map[vid]
        row = mod.A[rs].copy()
        assert row[rv] == -1.0
        row[rv] = 0.0
        if pos > 0:
            pred_rv = mod.index_map[ids[pos - 1]][1]
            assert row[pred_rv] == 1.0
            row[pred_rv] = 0.0
        assert np.all(row == 0.0)


def test_general_restriction_matches_fd(default_coeffs):
    """Dropping the upstream block of the general chain leaves the FD chain,
    up to the single S2 coupling entry into vehicle -1."""
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            gen = build_system(V.GENERAL_LCC, m, n, default_coeffs)
            fd = build_system(V.FD_LCC, 0, n, default_coeffs)
            sub = gen.A[2 * m :, 2 * m :]
            assert np.array_equal(sub, fd.A)
            # the dropped coupling reads vehicle -1's velocity into the CAV spacing
            assert gen.A[2 * m, 2 * m - 1] == 1.0
            assert np.array_equal(gen.B[2 * m :], fd.B)


def test_closed_loop_zero_gains_is_hdv_row(default_coeffs):
    P1, P2, _, _ = blocks(default_coeffs)
    mod = build_system(V.GENERAL_LCC, 2, 2, default_coeffs)
    A_cl = closed_loop_matrix(mod, FeedbackGains())
    assert np.allclose(A_cl[4:6, 2:4], P2)
    assert np.allclose(A_cl[4:6, 4:6], P1)
    # untouched elsewhere
    other = A_cl.copy()
    other[5] = mod.A[5]
    assert np.array_equal(other, mod.A)


def test_cf_equals_fd_under_feedback(default_coeffs):
    for n in (1, 2, 4):
        fd = build_system(V.FD_LCC, 0, n, default_coeffs)
        cf = build_system(V.CF_LCC, 0, n, default_coeffs)
        K1 = np.zeros(fd.dim)
        K1[0] = -default_coeffs.alpha1
        K1[1] = default_coeffs.alpha2
        assert np.allclose(cf.A, fd.A - fd.B @ K1[None, :])


def test_case_d_closed_loop_row(default_coeffs):
    a1, a2, a3 = default_coeffs.alpha1, default_coeffs.alpha2, default_coeffs.alpha3
    mod = build_system(V.GENERAL_LCC, 2, 2, default_coeffs)
    gains = FeedbackGains.from_pairs({-2: (1, -1), -1: (1, -1), 1: (-1, -1), 2: (-1, -1)})
    A_cl = closed_loop_matrix(mod, gains)
    expected_row = np.array([1.0, -1.0, 1.0, a3 - 1.0, a1, -a2, -1.0, -1.0, -1.0, -1.0])
    assert np.allclose(A_cl[5], expected_row)
    assert np.array_equal(A_cl[:5], mod.A[:5])
    assert np.array_equal(A_cl[6:], mod.A[6:])


def test_fd_explicit_self_gains(default_coeffs):
    mod = build_system(V.FD_LCC, 0, 2, default_coeffs)
    gains = FeedbackGains(mu={0: 0.3, 1: -0.2}, k={0: -0.5, 1: 0.05})
    K = control_row(mod, gains)
    assert K[0] == 0.3 and K[1] == -0.5 and K[2] == -0.2 and K[3] == 0.05


def test_gain_id_validation(default_coeffs):
    gen = build_system(V.GENERAL_LCC, 1, 1, default_coeffs)
    with pytest.raises(TopologyError):
        closed_loop_matrix(gen, FeedbackGains(mu={0: 1.0}, k={}))
    with pytest.raises(TopologyError):
        closed_loop_matrix(gen, FeedbackGains(mu={2: 1.0}, k={}))
    with pytest.raises(TopologyError):
        closed_loop_matrix(gen, FeedbackGains(mu={-2: 1.0}, k={}))
    fd = build_system(V.FD_LCC, 0, 1, default_coeffs)
    closed_loop_matrix(fd, FeedbackGains(mu={0: 1.0}, k={0: -1.0}))


def test_gain_ids_share_one_rule_and_message(default_coeffs):
    """Transfer functions, scan axes, closed loops and simulations refuse a
    gain on the CAV of an m = 0 chain with the same message, which names
    only the followers (never "-0..-1")."""
    message = r"^gain ids \[0\] outside 1\.\.2$"
    on_cav = FeedbackGains(mu={0: 1.0}, k={0: 1.0})
    with pytest.raises(TopologyError, match=message):
        TransferSpec(m=0, n=2, coeffs=default_coeffs, gains=on_cav)
    spec = TransferSpec(m=0, n=2, coeffs=default_coeffs)
    with pytest.raises(TopologyError, match=message):
        scan_region(spec, GainAxis(0, "mu", -1.0, 1.0, 2), GainAxis(1, "k", -1.0, 1.0, 2))
    with pytest.raises(TopologyError, match=message):
        simulate(ScenarioConfig(n=2, cav=CavController(gains=on_cav)))
    ccc = build_system(V.CCC, 2, 0, default_coeffs)
    with pytest.raises(TopologyError, match=r"^gain ids \[0, 1\] outside -2\.\.-1$"):
        control_row(ccc, FeedbackGains(mu={0: 1.0, 1: 1.0}))
    fd = build_system(V.FD_LCC, 0, 2, default_coeffs)
    with pytest.raises(TopologyError, match=r"^gain ids \[3\] outside 0, 1\.\.2$"):
        control_row(fd, FeedbackGains(k={3: 1.0}))


def test_gain_ids_checked_by_comparison(deadline):
    """Membership costs O(len(ids)), not a walk of range(1, n + 1), which hung
    for a huge n."""
    huge = 10**20
    with deadline(5):
        validate_gain_ids({-3, 1, huge}, 3, huge)
        outside = rf"gain ids \[-4, {huge + 1}\] outside -3..-1, 1..{huge}$"
        with pytest.raises(TopologyError, match=outside):
            validate_gain_ids([1, -4, huge + 1], 3, huge)
        with pytest.raises(TopologyError, match=r"gain ids \[0\] outside a chain with no HDV$"):
            validate_gain_ids([0], 0, 0)
    validate_gain_ids([0, 2.0], 0, 2, own_state=True)
    with pytest.raises(TopologyError, match=r"gain ids \[1.5\] outside 1..2$"):
        validate_gain_ids([1.5], 0, 2)
