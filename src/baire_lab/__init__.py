"""Exact-arithmetic continuity checking for multi-valued functions.

Kernels for the sequence space, the 0/1 grid, and rational real points;
trees on the naturals with decidable combinatorics; finitely representable
closed sets with exact point-to-set distance; witness-based continuity and
strong-continuity checkers; a gallery of counterexample maps with
proof-derived certificates; and a Borel/projective pointclass classifier
over a small expression language.
"""

__version__ = "0.1.0"

from .checkers import (
    CheckConfig,
    ContinuityWitness,
    DiscontinuityWitness,
    MultiMap,
    Verdict,
    check_continuity,
    check_strong_continuity,
    continuity_points,
    default_config,
    eval_dagger,
    eval_lower_fell,
    eval_star,
    eval_strong_star,
    full_domain_probes,
    tabular_multimap,
    verify_witness,
)
from .closed_sets import (
    Empty,
    FiniteBaireSet,
    FiniteRealSet,
    IntervalUnion,
    closure,
    dist_to_set,
    eps_net,
    meets_open_ball,
    set_contains,
)
from .gallery import (
    baire_embed,
    compose,
    dense_split,
    extend,
    f1_graph_member,
    f1_multimap,
    f1_value,
    f1_witness,
    f2_multimap,
    f2_witness,
    interval_of,
    n_of,
    r_membership,
    spike_function,
)
from .pointclass import Pointclass, classify, dual, dual_expr, leq, parse_expr
from .spaces import (
    BAIRE_SPACE,
    CANTOR_GRID,
    REAL_LINE,
    UNIT_INTERVAL,
    BairePoint,
    CantorGridPoint,
    FinitePoints,
    baire_dist,
    grid_dist,
)
from .trees import (
    TREE_SPACE,
    Tree,
    body_prefixes,
    generated_by,
    is_ill_founded,
    make_tree,
    terminals,
    tree_dist,
    tree_shift,
)
