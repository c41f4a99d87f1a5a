"""Two-level tanh-sweep dynamics with a complex (lossy) coupling.

Exact hypergeometric propagator, adaptive reference integrator, Rabi and
Landau-Zener limiting models, complex-spectrum diagnostics, and a batch scan
engine with a CLI front end.
"""

from .integrator import (
    IntegrationSpec,
    IntegratorError,
    StepLimitError,
    StepUnderflowError,
    evolve,
    evolve_dense,
    populations,
    propagator_numeric,
)
from .limits import (
    ConsistencyReport,
    DegenerateSlopeError,
    IllConditionedError,
    LZSetup,
    RabiSetup,
    linear_model_evolve,
    lz_amplitudes,
    lz_probabilities,
    lz_setup,
    lz_variable,
    rabi_amplitudes,
    rabi_probabilities,
    rabi_setup,
    tanh_to_lz_consistency,
    tanh_to_rabi_consistency,
)
from .model import (
    EnergyPair,
    ModelParams,
    PolarEnergy,
    Zone,
    ZoneLabel,
    asymptotic_window,
    classify_zone,
    coupling,
    detuning,
    eigenenergies,
    energy_polar,
    hamiltonian,
)
from .propagator import (
    BasisSolutions,
    DegenerateParameterError,
    HyperParams,
    analytic_propagator,
    basis_solutions,
    hyper_params,
    sweep_propagator,
    transition_probabilities,
    x_of_t,
)
from .scan import (
    AxisSpec,
    CompareReport,
    ScanError,
    ScanResult,
    run_compare,
    run_energy_map,
    run_interferogram,
    run_param_scan,
    run_time_series,
    scaled_deviation,
    write_csv,
    write_manifest,
    write_pgm,
)
from .specfun import (
    ConvergenceError,
    PoleError,
    SpecFunError,
    cgamma,
    hyp2f1,
    hyp2f1_array,
    hyp2f1_derivative,
    kummer_m,
    pcf_d,
    rgamma,
)
from .verify import VerifyCase, eigen_deviation, run_verify

__version__ = "0.1.0"
