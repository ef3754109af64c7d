"""Energy-channel laboratory for the radial defocusing semilinear wave
equation, via the exact reduction w(r,t) = r * u(r,t) on the half line."""

import types

from .appendix import (
    find_envelope_threshold,
    full_slab,
    run_appendix_example,
    source_triangle_check,
    triangle_bound_constant,
)
from .diagnostics import (
    EnergyLedger,
    flux_inward,
    flux_outward,
    pointwise_bounds,
    triangle_residual,
    weighted_morawetz,
)
from .errors import (
    BlowupError,
    BoundaryLeakError,
    ConfigError,
    DegenerateFitError,
    DivergentIntegralError,
    InitialDataError,
    NlwError,
    NoContractionError,
    OffGridError,
    OutOfRangeError,
    ShortSpanError,
)
from .model import (
    AppendixPowerLaw,
    DirectedPulse,
    GaussianBump,
    ModelParams,
    RadialPair,
    Tabulated,
    check_boundary_leak,
    k_functional,
    make_params,
    nonlinearity,
)
from .numerics import fit_log_growth, fit_power_law
from .scattering import (
    extract_g_plus,
    exterior_growth_fit,
    free_wave_defect,
    lp_l2p_tail,
    predicted_tail_exponent,
)
from .solver import (
    GridSpec,
    Monitors,
    Snapshot,
    Trajectory,
    bootstrap,
    duhamel_solve,
    evolve,
    leapfrog,
)

__version__ = "0.1.0"

# the names imported above, not the submodules those imports bind
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, types.ModuleType))
