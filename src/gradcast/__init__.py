"""gradcast: runtime-checked refinement casts.

Values are promoted into refinement-carrying wrappers by running decision
procedures; functions are wrapped by higher-order casts that check each
application.  Failed casts are either poisoned values whose projections fault
(lazy regime) or immediate faults (eager regime).  The names imported below
are the package's public API.
"""

from .casts import (
    Attested,
    CastFault,
    FailedCast,
    FailureMode,
    LimitError,
    Refined,
    cast,
    map_cast,
    proj1,
    proj2,
    try_cast,
)
from .hocasts import (
    IList,
    build_list,
    cast_forall_dom,
    cast_forall_range,
    cast_fun_dom,
    cast_fun_range,
)
from .instances import (
    EqDec,
    Nat,
    check_nat,
    dec_le,
    eq_list,
    eq_nat,
    eq_option,
    pred_equals,
    pred_ge_const,
    pred_gt_const,
    pred_lt_const,
)
from .predicates import (
    Decision,
    Evidence,
    Holds,
    Pred,
    PredFamily,
    Refutes,
    p_and,
    p_false,
    p_forall_bounded,
    p_implies,
    p_not,
    p_or,
    p_relate,
    p_true,
)
from .render import show_optional, show_sequence, show_value
