"""Complex phase diagrams and partition-function zeros for lattice models
abstracted as finite families of metastable phase weights."""

from .analysis import (
    CoveringReport,
    LeeYangReport,
    VandermondeReport,
    covering_check,
    lee_yang_hypotheses,
    lee_yang_report,
    vandermonde_report,
)
from .density import (
    DensitySample,
    density_convergence,
    empirical_density,
    theoretical_density,
)
from .diagram import (
    CoexistenceCurve,
    CurveSample,
    MultiplePoint,
    PhaseDiagram,
    build_phase_diagram,
    find_coexistence_point,
    find_multiple_point,
    find_multiple_points,
    trace_curve,
)
from .errors import (
    ContourDegeneracyError,
    ConvexityError,
    CoverageError,
    DomainError,
    HypothesisViolationError,
    NoConvergenceError,
    NumericalError,
    PfzError,
    SingularityError,
    SpuriousRootError,
    UnresolvedClusterError,
    ValidationError,
)
from .model import (
    AssumptionReport,
    FiniteVolumeModel,
    ModelSpec,
    PhaseSpec,
    Rectangle,
    StabilityReport,
    check_assumption_A,
    eval_log_zeta,
    eval_v,
    finite_volume,
    load_model,
    model_from_dict,
    model_to_dict,
    random_perturbation,
    stability,
    symmetric_pair_perturbation,
)
from .zeros import (
    AsymptoteLine,
    MatchReport,
    Zero,
    ZeroSearch,
    ZeroSet,
    asymptote_lines,
    degeneracy_audit,
    delta_L,
    eval_logZ_normalized,
    find_zeros_on_axis,
    find_zeros_region,
    find_zeros_seeded,
    match_zeros,
    predict_multipoint,
    predict_two_phase,
    winding_number,
    xi_normalized,
)

__version__ = "0.1.0"
