"""Graph calculus for 2-stratifolds.

Bicolored labeled graphs encode 2-stratifolds; this package computes
fundamental-group presentations from them, certifies element orders,
runs the quotient-by-torsion surgery with its one-sided realizability
obstructions, and builds or recognizes the canonical spine graphs of
connected sums of lens spaces, S2 bundles over S1, and P2 x S1.
"""

from .algebra import (DEFAULT_COSET_BUDGET, AbelianInvariants, CosetTable,
                      Exhausted, IntMatrix, OrderOracle, abelianization,
                      apply_transforms, relation_matrix, smith_normal_form,
                      todd_coxeter)
from .analysis import (FCLASS_KINDS, FClass, Obstruction, QComponent,
                       QResult, black_orders, classify_fgroup,
                       fgroup_signature_of, obstructions, q_graph, white_holes)
from .errors import (DomainError, GraphError, NoSpineError, ParseError,
                     StratifoldError)
from .formats import (format_expr, format_word, parse_expr, parse_graph,
                      parse_presentation, parse_word, serialize_graph,
                      serialize_presentation)
from .graph import (BlackVertex, Edge, StratifoldGraph, Violation, WhiteVertex,
                    are_isomorphic, cw_euler, euler_characteristic, normalize,
                    spanning_tree, validate)
from .presentation import (GENERATOR_ROLES, FSignature, Generator,
                           GroupPresentation, SimplifyResult, Word,
                           fgroup_graph, fgroup_presentation,
                           natural_presentation, rewrite_through, simplify)
from .spine import (NOT_CANONICAL, SUMMAND_KINDS, ManifoldExpr, Summand,
                    attachment_white, delta_sum, lens_spine, p2xs1_spine,
                    recognize, s2xs1_spine, s2xs1_twisted_spine, synth)
from .verdicts import (INDETERMINATE, FiniteOrder, InfiniteOrder,
                       OrderVerdict, Sentinel, UnknownOrder)

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants", "BlackVertex", "CosetTable", "DEFAULT_COSET_BUDGET",
    "DomainError", "Edge", "Exhausted", "FCLASS_KINDS", "FClass",
    "FSignature", "FiniteOrder", "GENERATOR_ROLES", "Generator", "GraphError",
    "GroupPresentation", "INDETERMINATE", "InfiniteOrder", "IntMatrix",
    "ManifoldExpr", "NOT_CANONICAL", "NoSpineError", "Obstruction",
    "OrderOracle", "OrderVerdict", "ParseError", "QComponent",
    "QResult", "SUMMAND_KINDS", "Sentinel", "SimplifyResult",
    "StratifoldError", "StratifoldGraph", "Summand", "UnknownOrder",
    "Violation", "WhiteVertex", "Word", "abelianization", "apply_transforms",
    "are_isomorphic", "attachment_white", "black_orders", "classify_fgroup",
    "cw_euler", "delta_sum", "euler_characteristic",
    "fgroup_graph", "fgroup_presentation", "fgroup_signature_of",
    "format_expr", "format_word", "lens_spine", "natural_presentation",
    "normalize", "obstructions", "p2xs1_spine", "parse_expr", "parse_graph",
    "parse_presentation", "parse_word", "q_graph",
    "recognize", "relation_matrix", "rewrite_through", "s2xs1_spine",
    "s2xs1_twisted_spine", "serialize_graph", "serialize_presentation",
    "simplify", "smith_normal_form", "spanning_tree", "synth",
    "todd_coxeter", "validate", "white_holes",
]
