"""Low logarithmic-energy configurations of 3D rotations built from
spherical point processes, with every closed-form energy formula verified
by independent quadrature and Monte Carlo routes.
"""

import types as _types

from .constants import (
    all_constants,
    c_harmonic_so3,
    c_sph,
    c_zeros,
    constant_J,
    eap_energy_upper_bound,
    eap_kernel_lower_bound,
    expected_configuration_energy,
    expected_kernel_energy,
    gamma_r,
    gamma_r_bounds_check,
    kappa,
    kappa_quadrature,
    optimal_s,
    realizable_n,
    so3_harmonic_integral,
    zeros_J_sequence,
)
from .construct import (
    Configuration,
    build_configuration,
    load_configuration,
    save_configuration,
)
from .energy import (
    circle_average_quadrature,
    log_energy,
    predicted_energy,
    sphere_kernel,
    sphere_kernel_energy,
)
from .ensembles import (
    EnsembleSpec,
    EqualAreaRegion,
    RootFindingError,
    aberth_roots,
    equal_area_partition,
    sample_elliptic_zeros,
    sample_equal_area,
    sample_points,
    sample_spherical_ensemble,
    sample_uniform,
)
from .geometry import haar_rotations, inverse_stereographic, so3_dist_sq
from .harness import EstimateReport, ExperimentConfig, run_experiment
from .quadrature import QuadratureError, integrate, integrate_improper
from .streams import keyed_stream

__version__ = "0.1.0"

# every name imported above, apart from the submodules that importing binds
__all__ = [k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _types.ModuleType)]
__all__.append("__version__")
