"""graypol: a rewriting engine for presented semistrict 3-categories.

Normalizes cells of free precategories, enumerates critical branchings,
certifies termination through reduction orders, and performs Squier
completion to produce coherence certificates.
"""

from .cells import (
    CellError,
    CompositionError,
    Interchanger,
    InternalError,
    OneCell,
    OpGen,
    QInterchanger,
    Signature,
    SignatureError,
    Step,
    ThreeCell,
    TwoCell,
    TypingError,
    Whisker2,
    dim,
    length,
)
from .expressions import (
    EGen,
    EId,
    ELowL,
    ELowR,
    ETop,
    eval_cell,
    measure,
    normal_form_expr,
    normalize_expression,
    reducts,
    typecheck,
)
from .presentation import GrayPresentation, QMode, Tile, validate
from .shuffle import (
    ShuffleEdge,
    big_x,
    interp_edge,
    interp_vertex,
    inv,
    lindex,
    path_exists,
    shuffle_graph,
    sigma_path,
)
from .rewriting import (
    Branching,
    Critical,
    CriticalBranching,
    Independent,
    Natural,
    NonMinimal,
    Trivial,
    UnsupportedError,
    branching_key,
    classify,
    enumerate_critical,
    find_redexes,
)
from .termination import (
    AffineMap,
    Cospan,
    LinearInterpretation,
    SelfDualMeasure,
    TerminationCertificate,
    TerminationRefused,
    certify_termination,
    check_interpretation_decrease,
    check_positive_intnorm,
    check_q_system,
    cospan_of,
    eval_interpretation,
    interchange_norm,
    is_connected,
    measure_less,
    selfdual_measure,
    seq_less,
)
from .coherence import (
    CoherenceReport,
    JoinRecord,
    NonTermination,
    Zigzag,
    join_branching,
    normalize2,
    squier_completion,
    tile_covers,
    zz_all_reduced_forms,
    zz_compose,
    zz_identity,
    zz_invert,
    zz_is_reduced,
    zz_of,
    zz_simplify,
)
from .catalog import BUILTIN_NAMES, BuiltinEntry, get_builtin
from .textio import (
    ParseError,
    parse_cell,
    parse_presentation,
    render_cell,
    serialize_presentation,
)

__version__ = "0.1.0"
