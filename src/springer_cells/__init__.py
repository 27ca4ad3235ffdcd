"""Exact machinery for two-row Springer Schubert cells.

Standard noncrossing matchings index the cells of the Springer fiber of a
two-block nilpotent; this package builds the cells exactly, cuts arcs to
produce closure decompositions, and certifies the closures two independent
ways (exact polynomial limit curves and a numeric projector-distance
oracle), with a finite-field brute-force enumeration as ground truth.
"""

from types import ModuleType as _ModuleType

from .cells import (
    CellTemplate,
    FlagMatrix,
    NOT_COORDINATE,
    build_template,
    cell_matrix,
    instantiate,
    prefix_span_basis,
    verify_canonical,
    verify_springer,
)
from .closure import (
    INFINITY,
    ClosureDecomposition,
    SplitData,
    chi_embed,
    chi_split,
    closure_decomposition,
    flag_necessary_conditions,
    phi_embed,
    swap_candidates,
    synthesize_limit_curve,
    verify_limit_curve,
)
from .cutting import LabeledPiece, ZERO, cut, cut_set, labeled_cut, piece_matrix
from .errors import (
    ArcNotInMatching,
    CurveNotFound,
    DimensionMismatch,
    Infeasible,
    InvalidSplitIndex,
    MissingParameter,
    NotDivisible,
    OddN,
    Singular,
    SpringerCellsError,
    TooManyArcs,
)
from .exact import Poly, canonical_reduce
from .fqoracle import FqConfig, cross_check_cells, enumerate_springer_flags
from .matchings import (
    Arc,
    JordanType,
    Matching,
    PivotProfile,
    ancestors,
    bt_word,
    enumerate_matchings,
    j_functions,
    matching,
    matching_permutation,
    word_to_matching,
)

__version__ = "0.1.0"

# the names imported above, not the submodules those imports bind
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
