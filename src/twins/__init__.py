"""Twins in edge-colorings of complete ordered graphs.

Core objects (colorings, twins, matchings), string/permutation twin
notions and their encodings as coloring twins, constructive builders
with proven size guarantees, exact search oracles and exhaustive
extremal tables, adversarial upper-bound constructions, and a seeded
verification harness behind the ``twin`` CLI.
"""

from ._version import VERSION as __version__
from .builder import (
    BipartiteColoring,
    LadderLevel,
    LadderState,
    PopularSubset,
    build_binary_ladder,
    build_general_ladder,
    build_twin_binary,
    build_twin_general,
    matchable_pair_via,
    popular_subset,
)
from .constructions import (
    BlockComponent,
    BlockGraph,
    BlockProfile,
    CompositeDecomposition,
    CompositeSpec,
    block_coloring,
    composite_coloring,
    decompose_composite_twin,
    extremal_no_matchable,
    extremal_partition,
    random_coloring,
    random_composite_spec,
    random_permutation,
    random_permutation_pair,
    random_string,
    skew_sum_permutation,
    twin_block_graph,
    uncovered_blocks,
)
from .core import (
    EMPTY_TWIN,
    EdgeColoring,
    FormatError,
    MatchOrientation,
    TwinPair,
    Verdict,
    extend_twin,
    find_matchable_orientation,
    is_c_matching,
    read_coloring,
    relabel_palette,
    twin_from_json,
    twin_to_json,
    validate_twin,
    write_coloring,
)
from .oracle import (
    BudgetExceededError,
    ExtremalResult,
    enumerate_twins,
    exact_F,
    exact_F_string,
    exact_F_weak,
    max_string_twin,
    max_twin,
    max_weak_twin,
)
from .reductions import coloring_from_permutation, coloring_from_string
from .rng import Rng, derive_seed
from .sequences import (
    LetterString,
    Permutation,
    SignSequence,
    lcs_length,
    read_permutation,
    read_string,
    sign_sequence,
    validate_string_twin,
    validate_weak_twin,
    write_permutation,
    write_string,
)
