"""Kernel checks: the transfer-magnitude kernels against the closed form."""

import numpy as np
import pytest

from lcc import FeedbackGains, TransferSpec
from lcc.kernels import gamma_mag_sq_grid, gamma_mag_sq_scalar
from lcc.presets import GAIN_CASES
from lcc.stability import _gain_arrays, transfer_value


@pytest.mark.parametrize(
    "m, n, pairs",
    [
        pytest.param(0, 2, {1: (-1.0, -1.0), 2: (-0.5, 0.3)}, id="m0"),
        pytest.param(2, 0, {-2: (1.0, -1.0), -1: (0.5, 0.2)}, id="n0"),
        pytest.param(2, 1, {-2: (0.5, 0.2), -1: (1.0, -1.0), 1: (-1.0, -1.0)}, id="m2n1"),
        pytest.param(2, 2, GAIN_CASES["caseD"], id="caseD"),
    ],
)
def test_gamma_grid_matches_scalar_and_closed_form(default_coeffs, m, n, pairs):
    spec = TransferSpec(m=m, n=n, coeffs=default_coeffs, gains=FeedbackGains.from_pairs(pairs))
    c = spec.coeffs
    args = (c.alpha1, c.alpha2, c.alpha3, *_gain_arrays(spec))
    omegas = np.logspace(-2, 2, 500)
    grid = gamma_mag_sq_grid(omegas, *args)
    scalar = np.array([gamma_mag_sq_scalar(w, *args) for w in omegas])
    closed = np.array([abs(transfer_value(spec, 1j * w)) ** 2 for w in omegas])
    np.testing.assert_allclose(grid, scalar, rtol=1e-12)
    np.testing.assert_allclose(grid, closed, rtol=1e-12)
    np.testing.assert_allclose(scalar, closed, rtol=1e-12)
