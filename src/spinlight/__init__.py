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
    append_vacuum,
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
    validate_regime,
)
from .maxwell_bloch import (
    CollectiveExtraction,
    Grid,
    TransferMap,
    build_transfer,
    build_transfer_from_channel,
    collective_signal_block,
    commutator_defect,
    extract_collective,
    extract_collective_from_channel,
    extract_collective_grids,
)
from .protocols import (
    ProtocolReport,
    RoundPlan,
    classical_bound_check,
    entangle,
    fidelity_ideal,
    fidelity_lossy,
    lossy_fidelity_bound,
    lossy_fidelity_sweep,
    make_plans,
    optimal_kappa2,
    run_trials,
    simulated_lossy_fidelity,
    squeezing_parameter,
    teleport,
)

__version__ = "0.1.0"
