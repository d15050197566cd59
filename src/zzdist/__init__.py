"""Exact computation with zigzag modules: interval decomposition,
reflection operations, and reflection and bottleneck distances.

Everything runs over a prime field with integer matrices, so results
are exact and reproducible.  The central objects are ``ZigzagModule``
(concrete matrices), ``SymbolicModule`` (an orientation paired with a
``PersistenceDiagram``), and ``ReflectionOp`` (a limit or colimit taken
at one position).  ``reflection_distance`` and ``bottleneck_distance``
compare modules; ``stability_experiment`` checks the inequalities
between the two on random instances.
"""

from .bottleneck import (Matching, bottleneck_distance, combine_matchings,
                         matching_cost, optimal_matching)
from .cli import (format_quantity, main, parse_module_data, parse_module_file,
                  serialize_module, serialize_symbolic)
from .diagrams import (SymbolicModule, act, annihilating_sequence, decompose,
                       interval_module, synthesize, zero_module)
from .linalg import (DEFAULT_PRIME, FiniteDiagram, Matrix, block_diag,
                     diagram_colimit, diagram_limit, hstack, inverse,
                     is_invertible, is_prime, rank, solve, vstack)
from .reflection_distance import (ReflectionDistance, cost, min_steps,
                                  reflection_distance)
from .reflections import (COLIMIT, LIMIT, ReflectionOp, ReflectionSequence, apply,
                          apply_sequence, apply_to_morphism, check_applicable, ops_at)
from .stability import (ExperimentReport, generate_random_module,
                        random_symbolic_module, stability_experiment)
from .zigzag_core import (BACKWARD, BACKWARD_FLOW, EXTROVERSION, FORWARD,
                          FORWARD_FLOW, INTROVERSION, Morphism, Orientation,
                          PersistenceDiagram, REVERSAL, SINK, SOURCE,
                          ZigzagModule, arrow_reverse, canonical_type,
                          classify_index, compose, conjugate, direct_sum,
                          identity_morphism, is_morphism, is_summand_upto_equiv,
                          transform_type)

__version__ = "0.1.0"

__all__ = [
    "BACKWARD", "BACKWARD_FLOW", "COLIMIT", "DEFAULT_PRIME", "EXTROVERSION",
    "ExperimentReport", "FORWARD", "FORWARD_FLOW", "FiniteDiagram",
    "INTROVERSION", "LIMIT", "Matching", "Matrix", "Morphism", "Orientation",
    "PersistenceDiagram", "REVERSAL", "ReflectionDistance", "ReflectionOp",
    "ReflectionSequence", "SINK", "SOURCE", "SymbolicModule", "ZigzagModule",
    "act", "annihilating_sequence", "apply", "apply_sequence",
    "apply_to_morphism", "arrow_reverse", "block_diag", "bottleneck_distance",
    "canonical_type", "check_applicable", "classify_index",
    "combine_matchings", "compose", "conjugate", "cost", "decompose",
    "diagram_colimit", "diagram_limit", "direct_sum", "format_quantity",
    "generate_random_module", "hstack", "identity_morphism", "interval_module",
    "inverse", "is_invertible", "is_morphism", "is_prime",
    "is_summand_upto_equiv", "main", "matching_cost", "min_steps", "ops_at",
    "optimal_matching", "parse_module_data", "parse_module_file",
    "random_symbolic_module", "rank", "reflection_distance",
    "serialize_module", "serialize_symbolic", "solve", "stability_experiment",
    "synthesize", "transform_type", "vstack", "zero_module",
]
