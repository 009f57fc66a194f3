"""Bichromatic perfect matchings with crossings on convex point sets.

Points sit in convex position, alternating or clumping around the
cycle; matchings pair each red point with a blue one by a straight
segment, and two segments cross exactly when their endpoints interleave
on the cycle.  The package constructs matchings with prescribed
crossing numbers, searches colorings exhaustively at desk scale, and
verifies the closed-form bounds against those searches.
"""

__version__ = "0.1.0"

from .compose import (
    CompositionPlan,
    allocate,
    compose,
    window_partition,
)
from .construct import (
    BoundBreakdown,
    FourBlockPlan,
    alternating_coloring,
    alternating_max_matching,
    balanced_fourblock_bound,
    balanced_fourblock_coloring,
    fourblock_max_matching,
    h_value,
    lemma3_witness,
    plane_matching,
    sixblock_crossing_count,
    sixblock_witness,
)
from .core import (
    BLUE,
    RED,
    BlockProfile,
    Coloring,
    Matching,
    Symmetry,
    all_symmetries,
    block_profile,
    canonicalize,
    crossing_number,
    edge,
    edges_cross,
    validate,
)
from .errors import (
    BudgetExceeded,
    DomainNegative,
    FalsificationAlarm,
    InvalidMatching,
    ParseError,
    Unachievable,
    UsageError,
)
from .search import (
    SearchBudget,
    Spectrum,
    achievable_counts,
    enumerate_colorings,
    find_with_k,
    max_crossing,
    minmax_sweep,
    spectrum,
)

__all__ = [
    "__version__",
    "BLUE",
    "BlockProfile",
    "BoundBreakdown",
    "BudgetExceeded",
    "Coloring",
    "CompositionPlan",
    "DomainNegative",
    "FalsificationAlarm",
    "FourBlockPlan",
    "InvalidMatching",
    "Matching",
    "ParseError",
    "RED",
    "SearchBudget",
    "Spectrum",
    "Symmetry",
    "Unachievable",
    "UsageError",
    "achievable_counts",
    "all_symmetries",
    "allocate",
    "alternating_coloring",
    "alternating_max_matching",
    "balanced_fourblock_bound",
    "balanced_fourblock_coloring",
    "block_profile",
    "canonicalize",
    "compose",
    "crossing_number",
    "edge",
    "edges_cross",
    "enumerate_colorings",
    "find_with_k",
    "fourblock_max_matching",
    "h_value",
    "lemma3_witness",
    "max_crossing",
    "minmax_sweep",
    "plane_matching",
    "sixblock_crossing_count",
    "sixblock_witness",
    "spectrum",
    "validate",
    "window_partition",
]
