"""Gaussian simulator of coherent-light quantum links between atomic ensembles.

The package models collective light-spin passes, measurement-induced
entanglement between two distant samples, and continuous-variable
teleportation, entirely within the Gaussian formalism (mean vectors and
covariance matrices).  A companion grid integrator re-derives the pass
channel from the microscopic propagation equations.
"""

from .gaussian import (
    VACUUM_VARIANCE,
    DegeneracyError,
    GaussianState,
    MeasurementRecord,
    ModeIndex,
    ModeLabel,
    SymplecticMap,
    append_vacuum,
    apply_symplectic,
    displace,
    fidelity_coherent,
    homodyne,
    loss_channel,
    marginal,
    rotate,
    symplectic_form,
    vacuum_state,
    variance_of,
)
from .interaction import (
    ChannelParams,
    PhysicalParams,
    RegimeReport,
    RegimeThresholds,
    apply_pass,
    coupling_from_dipole,
    derive_channel,
    dipole_from_linewidth,
    kappa_from_density,
    qnd_pass_map,
    validate_regime,
)
from .maxwell_bloch import (
    CollectiveExtraction,
    Grid,
    TransferMap,
    build_transfer,
    build_transfer_from_channel,
    commutator_defect,
    extract_collective,
    extract_collective_from_channel,
    extract_collective_grids,
)
from .protocols import (
    ProtocolReport,
    RoundPlan,
    SweepPoint,
    classical_bound_check,
    entangle,
    fidelity_ideal,
    fidelity_lossy,
    lossy_fidelity_bound,
    lossy_fidelity_sweep,
    lossy_fidelity_table,
    make_plans,
    optimal_kappa2,
    run_trials,
    simulated_lossy_fidelity,
    squeezing_parameter,
    teleport,
)

__version__ = "0.1.0"
