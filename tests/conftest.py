import pytest

from lcc import (
    DriverParams,
    LinearCoeffs,
    equilibrium_spacing,
    linearize,
)


@pytest.fixture(scope="session")
def default_params() -> DriverParams:
    return DriverParams()


@pytest.fixture(scope="session")
def default_coeffs(default_params) -> LinearCoeffs:
    return linearize(equilibrium_spacing(15.0, default_params), default_params)
