"""Coset-graph spectra workbench.

Builds the bipartite multigraph attached to a vertex-transitive group
action on a graph, computes its singular values, and verifies the norm
and convolution identities connecting the second singular value to the
order of a vertex stabilizer.
"""

from .errors import ConvergenceError, SizeLimitError, StructureError
from .perms import Permutation
from .groups import (
    ConnectionSet,
    DEFAULT_ELEMENT_CAP,
    PermutationGroup,
    double_coset_representatives,
)
from .graphs import (
    CosetGraphSpec,
    LocalActionReport,
    SabidussiResult,
    SimpleGraph,
    TransitiveCase,
    build_coset_graph,
    local_action,
    make_transitive_case,
    preserves_edges,
    sabidussi_isomorphism,
)
from .spectral import (
    BipartiteAdjacency,
    DENSE_SIZE_CAP,
    ReconstructionReport,
    SpectralSummary,
    build_bipartite,
    lambda1_power_iteration,
    lambda2_power_iteration,
    reconstruction_report,
    singular_values,
    top_value_matches_degree,
    zero_sum_contraction_ok,
)
from .harmonic import (
    NormIdentityReport,
    convolution_matches_matrix,
    norm_identity_trials,
    point_mass,
    uniform_distribution,
)
from .verify import (
    BoundReport,
    CauchySchwarzResult,
    ChainDiagnostics,
    bound_report,
    cauchy_schwarz_step,
    evaluate_chain,
)
from .casefile import CaseOptions, CaseParseError, CaseSpec, load_case, parse_case, realize_case
from .catalog import FAMILY_NAMES, builtin_cases
from .pipeline import (
    AnalyzeOptions,
    CaseAnalysisError,
    CaseReport,
    CatalogResult,
    CSV_COLUMNS,
    analyze_case,
    analyze_many,
    case_seed,
)

__version__ = "0.1.0"
