"""Phase estimation in a lossy Mach-Zehnder interferometer with Gaussian resources.

The package simulates two-mode Gaussian states through a lossy two-port
interferometer and evaluates phase-estimation precision three ways: the
quantum Cramér-Rao bound from the exact Gaussian moment formula (plus
closed forms), parity readout of one output port, and single/double homodyne
readout.  Optimizers locate working points, resource ratios, and the loss
rates at which each scheme stops beating the shot-noise limit.  A truncated
Fock-basis oracle provides independent brute-force verification at small
photon number.
"""

from .errors import (
    CutoffTooSmall,
    DegenerateWorkingPoint,
    InvalidArgument,
    MziLabError,
    NoOptimum,
    NumericFailure,
    UnsupportedConfiguration,
)
from .interferometer import InterferometerConfig, LossModel, output_mode_a, output_state
from .measurements import (
    Observable,
    ObservableKind,
    SensitivityResult,
    parity_expectation,
    sensitivity,
    sensitivity_profile,
)
from .optimize import (
    LossKind,
    Scheme,
    SchemePoint,
    SweepRow,
    SweepSpec,
    SweepVariable,
    ThresholdResult,
    optimal_csv_ratio,
    run_sweep,
    scheme_sensitivity,
    snl_threshold,
)
from .qfi import QfiResult, bures_fidelity, qfi_closed, qfi_numeric, snl, snl_tie_bound
from .states import (
    OMEGA,
    P_A,
    P_B,
    X_A,
    X_B,
    GaussianState,
    Mode,
    ResourceKind,
    ResourceSpec,
    SingleModeState,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    make_input,
    reduce_to_mode,
    symmetric_moment,
)

__version__ = "0.1.0"
