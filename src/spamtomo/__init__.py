"""Loop SPAM tomography for single polarization qubits.

Simulates a polarization bench with configurable noise and correlated
state-preparation/measurement errors, detects and localizes such errors
through the partial-determinant consistency test, and reconstructs
states and detector POVMs by matrix inversion when the data are clean.
"""

from .config import RunConfig, config_from_dict, load_config, parse_angle
from .data_io import emit_plot_data, load_measurements, read_report, save_measurements, write_report
from .detect import (
    DeltaStats,
    DetectionReport,
    delta_statistics,
    detect,
    embed_n_plus_1,
    localize,
    partial_determinant,
    validate_expectation_matrix,
)
from .errors import (
    ConfigError,
    DataFormatError,
    NonPhysicalError,
    ShapeError,
    SingularMatrixError,
    SpamTomoError,
)
from .optics import (
    DEFAULT_ANGLE_JITTER,
    DEFAULT_HWP_ANGLES,
    DEFAULT_QWP_ANGLES,
    DEFAULT_REPETITIONS,
    DEFAULT_SHOTS,
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    Scheme,
    SourceKind,
    WavePlateSetting,
    default_settings,
    measurement_observable,
    prepare_state,
    run_experiment,
    source_density,
    theoretical_observables,
    theoretical_states,
    true_expectation_matrix,
)
from .qubit import (
    IDENTITY_2,
    PAULI,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    PovmPair,
    apply_gauge,
    born_probability,
    check_density,
    density_from_stokes,
    expectation,
    fidelity,
    observable_from_povm,
    povm_element_fidelity,
    povm_from_observable,
    relative_error,
    stokes_from_density,
)
from .reconstruct import (
    LoopResult,
    ReconstructionScore,
    loop_bootstrap,
    qdt_invert,
    qst_invert,
    score_reconstruction,
)
from .runner import EXIT_CLEAN, EXIT_DETECTED, EXIT_ERROR, RunReport, run, write_outputs

__version__ = "0.1.0"
