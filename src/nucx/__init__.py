"""Canonical decision diagrams with typed-variable edge labels.

Models pick which variable types (useless, canalizing, xor) are factored
out of the graph as edge letters and whether complement edges exist; the
most expressive model combines all of them with constant-time negation.
"""

from .connectives import apply, build_expr, cofactor, negb
from .graph import (
    SIGNATURE_LIMIT,
    Edge,
    FuncHandle,
    Manager,
    ManagerMismatchError,
    SignatureLimitError,
    dot_export,
    eval_handle,
    signature,
    to_truth_table,
)
from .letters import ALPHABET, C00, C01, C10, C11, ELEMENTARY, N, U, X, Letter
from .metrics import BoundVerdict, SizeReport, check_bounds, measure, node_count
from .oracle import (
    ARITY_LIMIT,
    ArityError,
    OracleLimitError,
    TruthTable,
    combine,
    tt_apply,
    tt_eval,
)
from .queries import all_sat, any_sat, count_sat, equiv, is_sat, is_taut
from .reduction import (
    HASSE_EDGES,
    NUCX,
    PRESETS,
    ModelSpec,
    certify_canonicity,
    compile_table,
    cons_diamond,
    constant,
    lattice_leq,
    parse_model,
    push_neg,
    reduce,
    translate_letter,
    valid_models,
)

__version__ = "0.1.0"
