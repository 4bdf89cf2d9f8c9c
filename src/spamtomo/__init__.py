"""Loop SPAM tomography for single polarization qubits.

Simulates a polarization bench with configurable noise and correlated
state-preparation/measurement errors, detects and localizes such errors
through the partial-determinant consistency test, and reconstructs
states and detector POVMs by matrix inversion when the data are clean.
"""

from .config import RunConfig, config_from_dict, load_config, parse_angle
from .data_io import emit_plot_data, load_measurements, save_measurements, write_report
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
    run_experiment,
    theoretical_observables,
    theoretical_states,
    true_expectation_matrix,
)
from .qubit import fidelity, povm_element_fidelity, relative_error
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
