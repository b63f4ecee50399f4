"""Dimension functions for lattice-restricted twisted group algebras.

Finite groups with 2-cocycle twists, their regular representation
algebras, center-valued traces, the dimension function of a module cut
out by an irreducible projective representation and a subgroup, and
the frame / Riesz existence decisions plus explicit Parseval
constructions that the dimension function governs.
"""

from .algebra import (
    AlgebraElement,
    adjoint,
    center_dimension,
    center_valued_trace,
    center_valued_trace_oracle,
    conv_operator,
    element,
    is_sigma_positive_definite,
    left_regular,
    multiply,
    right_regular,
    trace_tau,
)
from .cocycles import (
    Cocycle,
    regularity,
    restrict,
    tilde,
    tilde_table,
    trivial,
    validate,
    verify_tilde_identities,
    weyl_heisenberg,
)
from .config import DEFAULT_TOL, Tolerances
from .dimension import (
    ModuleSpec,
    PhiFunction,
    WindowedRep,
    cdim_operator,
    make_module_spec,
    phi,
    phi_oracle,
    random_window,
    windowed_rep,
)
from .errors import (
    BoundExceeded,
    ConsistencyError,
    DimensionMismatch,
    Infeasible,
    InputError,
    LatdimError,
    NotAbelian,
    NotAssociative,
    NotHermitian,
    NotIrreducible,
    NotLatinSquare,
    NoIdentity,
    WindowNotUnit,
)
from .frames import (
    DecisionReport,
    DensityVerdict,
    FrameReport,
    MultiwindowSystem,
    construct_parseval_generators,
    decision_grids,
    density_check,
    existence_decision,
    frame_report,
    intertwiner_basis,
    multiwindow_system,
    random_system,
    riesz_basis_criterion,
    tighten,
)
from .gabor import (
    TimeFrequencyGroup,
    audit_rows,
    build_tf,
    gabor_scan,
    read_scan_csv,
    write_scan_csv,
)
from .groups import (
    DualGroup,
    FiniteGroup,
    Subgroup,
    abelian_basis,
    all_subgroups,
    build_cyclic,
    centralizer_transversal,
    conjugacy,
    cyclic_factor_generators,
    dihedral,
    direct_product,
    dual_group,
    from_cayley_table,
    full_subgroup,
    quaternion,
    right_transversal,
    subgroup_blocks,
    subgroup_generated,
    subgroup_group,
    symmetric_group,
    trivial_subgroup,
)
from .serialize import (
    cocycle_from_json,
    cocycle_to_json,
    complex_to_pairs,
    dump_json,
    generators_from_json,
    generators_to_json,
    group_from_json,
    group_to_json,
    load_json,
    pairs_to_complex,
    read_cayley_text,
    rep_from_json,
    rep_to_json,
    write_cayley_text,
)
from .reps import (
    ProjectiveRep,
    formal_dimension,
    irreducible_subrep,
    is_irreducible,
    projective_rep,
    validate_rep,
    wavelet,
)

__version__ = "0.1.0"
