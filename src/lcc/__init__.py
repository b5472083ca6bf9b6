"""Mixed-traffic leading cruise control toolkit.

Modeling, controllability/observability analysis, head-to-tail string
stability, and nonlinear simulation of a connected automated vehicle
embedded in a chain of human-driven vehicles.
"""

from .vehicles import (
    DriverParams,
    Equilibrium,
    LinearCoeffs,
    desired_velocity,
    desired_velocity_slope,
    equilibrium_spacing,
    linearize,
    ovm_acceleration,
)
from .systems import (
    FeedbackGains,
    StateSpaceModel,
    SystemVariant,
    build_system,
    closed_loop_matrix,
    control_row,
)
from .analysis import (
    ControllabilityReport,
    GramianResult,
    ObservabilityReport,
    build_output_matrix,
    condition_check,
    energy_scaling_study,
    gramian,
    min_energy,
    pbh_controllability,
    pbh_observability,
)
from .stability import (
    FrequencyGrid,
    GainAxis,
    RegionMap,
    StringStabilityResult,
    TransferSpec,
    head_to_tail,
    is_string_stable,
    magnitude_curve,
    phi_gamma,
    scan_region,
    state_space_gain,
    transfer_value,
)
from .sim import (
    A_MAX,
    A_MIN,
    CavController,
    FollowerBrake,
    HeadSinusoid,
    HeterogeneitySpec,
    ScenarioConfig,
    SimulationTrace,
    sample_heterogeneous,
    simulate,
)
from .metrics import aave, fuel_rate, total_fuel
from .errors import (
    CollisionError,
    ConfigError,
    EvaluationError,
    LccError,
    NumericalError,
    SingularGramianError,
    TopologyError,
)

__version__ = "0.1.0"
