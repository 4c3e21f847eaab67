"""Database repairs and query-answer causality.

Given a relational instance, denial constraints and conjunctive queries,
this package enumerates tuple-deletion and value-to-null repairs, derives
actual causes, contingency sets and exact rational responsibilities for
query answers (also under hard inclusion dependencies), and emits the
corresponding answer-set repair programs for external cross-validation.
"""

from .model import (
    NULL,
    Constant,
    DbTuple,
    Instance,
    ModelError,
    PositionRef,
    num,
    sym,
)
from .lang import (
    DenialConstraint,
    InclusionDependency,
    LangError,
    ParseError,
    Problem,
    QuerySpec,
    eval_bcq,
    eval_open,
    is_consistent,
    negate_query_to_dc,
    parse_problem,
    satisfies_ids,
    substitute_answer,
    violations,
)
from .tuple_repairs import (
    ConflictHypergraph,
    RepairRecord,
    c_repairs,
    conflict_hypergraph,
    diff_sets,
    minimal_hitting_sets,
    s_repairs,
    s_repairs_under_hard_ics,
)
from .tuple_causes import (
    TupleCauseReport,
    actual_causes,
    actual_causes_under_ics,
    most_responsible_causes,
)
from .null_repairs import (
    NullRepairRecord,
    cardinality_null_repairs,
    null_repairs,
)
from .null_causes import (
    AttrCauseReport,
    TupleNullCauseReport,
    attr_causes,
    diff_null,
    tuple_null_causes,
)
from .asp import (
    CanonicalFormError,
    EmitOptions,
    canonical_program,
    emit_null_repair_program,
    emit_tuple_repair_program,
    programs_equivalent,
    verify_model_correspondence,
)
from .oracles import (
    causes_oracle,
    is_actual_attr_cause,
    null_repairs_oracle,
)

__version__ = "0.1.0"
