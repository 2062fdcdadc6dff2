"""Exact diagonalization for magnon sectors of the ferromagnetic Heisenberg
model on finite graphs, with ordering-of-energy-levels checks, spin-wave
diagnostics, and discrete trace/extension inequalities."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    LatticeBoxSpec,
    lambda_spec,
    load_graph,
    make_box,
    make_lambda,
    make_path,
    make_ring,
    save_graph,
)
from .sector import (
    MagnonBasis,
    casimir_magnon,
    contraction_T_box,
    free_laplacian,
    hamiltonian_magnon,
    highest_weight_basis,
    lowering_matrix,
)
from .eigen import (
    EigResult,
    SpinLabeledSpectrum,
    full_spectrum,
    label_spins,
    min_eig,
)
from .foel import (
    DilutedSequence,
    DiluteStep,
    FoelVerdict,
    InductionReport,
    dilute_extend,
    energy_level,
    foel_check,
    induction_run,
)
from .spinwave import (
    GAP_SCALE,
    TrialState,
    bose_basis,
    bose_energy,
    f_profile,
    gram_limit,
    gram_matrix,
    jump_level,
    mode_count_R,
    occupations,
    residual,
    trial_state,
)
from .analysis import (
    DeficitBound,
    GoodSet,
    contraction_deficit,
    extension_Xi,
    extension_energy_ratio,
    rho,
    rho_max,
    trace_check,
)
from .errors import (
    ConvergenceError,
    HeisError,
    LabelingError,
    NumericalError,
    ParseError,
    SizeBudgetError,
)
