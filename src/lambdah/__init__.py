"""Head reduction workbench for lambda terms with a reserved constant H.

The constant H can be read as the identity combinator I or as its
unbounded eta expansion J; the machines, extraction map, and lockstep
comparison in this package mechanise the checks that the two readings
are operationally interchangeable.
"""

from .equivalence import (
    AgreementRow,
    BothHnf,
    BothRunning,
    Diverged,
    EMismatch,
    LockstepReport,
    SuiteReport,
    lemma_suite,
    lockstep,
    read_corpus,
    theorem_check,
)
from .extraction import EShape, ShapeViolation, classify, extract
from .gen import (
    enumerate_terms,
    term_stream,
    wrap_applied_h,
)
from .machines import (
    AuxCapExceeded,
    FuelExhausted,
    Hnf,
    MachineOutcome,
    Overflow,
    StepError,
    StepKind,
    Strategy,
    TraceEntry,
    i_step,
    j_step,
    run,
    t_step,
)
from .syntax import (
    BUILTINS,
    ParseError,
    UnboundVariable,
    format_term,
    parse_term,
)
from .terms import (
    G,
    I,
    J,
    OMEGA,
    Abs,
    App,
    ConstH,
    H,
    Term,
    Tower,
    Var,
    Y,
    apply_args,
    shift,
    size,
    spine,
    subst_const_h,
    substitute,
)

__all__ = [
    "Abs", "AgreementRow", "App", "AuxCapExceeded", "BUILTINS", "BothHnf",
    "BothRunning", "ConstH", "Diverged", "EMismatch", "EShape",
    "FuelExhausted", "G", "H", "Hnf", "I", "J", "LockstepReport",
    "MachineOutcome", "OMEGA", "Overflow", "ParseError", "ShapeViolation",
    "StepError", "StepKind", "Strategy", "SuiteReport", "Term", "Tower",
    "TraceEntry", "UnboundVariable", "Var", "Y", "apply_args", "classify",
    "enumerate_terms", "extract", "format_term", "i_step", "j_step",
    "lemma_suite", "lockstep", "parse_term", "read_corpus", "run", "shift",
    "size", "spine", "subst_const_h", "substitute", "t_step", "term_stream",
    "theorem_check", "wrap_applied_h",
]
