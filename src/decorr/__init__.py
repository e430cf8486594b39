"""decorr: exact small-lattice checks of correlation decay in gapped spin models.

The package materializes a cluster-expansion proof strategy as executable
objects: exact Gibbs states, inclusion-exclusion terms and their normalized
trace weights, the supercluster swap that decouples distant observables,
partition-function ratio bounds, and the counting of connected lattice
animals -- each with a verification routine that measures the identity it
claims, at machine precision, on lattices small enough to diagonalize.
"""

from .algebra import (
    DimensionError,
    Eigensystem,
    GlobalOperator,
    embed,
    herm_eig,
    herm_exp,
    op_norm,
)
from .gibbs import (
    BoundCertificate,
    DecayFit,
    DegenerateFitError,
    ThermalState,
    bound_certificate,
    covariance,
    decay_sweep,
    expectation,
    gibbs_state,
    ising_exact_covariance,
    ising_exact_xi,
    ising_oracle,
)
from .expansion import (
    FactorizationCheck,
    NotApplicable,
    PartitionRatio,
    SuperclusterCheck,
    SwapCheck,
    observable_weight,
    partition_ratio,
    swap_configurations,
    term_norm_scan,
    verify_factorization,
    verify_resummation,
    verify_supercluster_resummation,
    verify_swap_identity,
    weight,
    yarotsky_term,
)
from .lattice import (
    LatticeGeometry,
    Region,
    Site,
    SuperclusterDecomposition,
    ball,
    box_geometry,
    chain_geometry,
    closure,
    count_connected_sets,
    counting_bound,
    counting_constant,
    enumerate_connected_sets,
    interior,
    l1_distance,
    r_connected,
    r_connected_set,
    set_distance,
    supercluster_decompose,
)
from .model import (
    CertificationError,
    GapCheck,
    HamiltonianSpec,
    InteractionTerm,
    build_restricted,
    certify_form_bound,
    gap_check,
    make_spec,
    normalize_nonpositive,
    spec_from_json,
    spec_to_json,
    xxz_spec,
)

__version__ = "0.1.0"
