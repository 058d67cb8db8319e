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
    Checkpoint,
    CorpusEntry,
    Diverged,
    EMismatch,
    InvalidTrace,
    LiftWitness,
    LockstepReport,
    SuiteReport,
    lemma_suite,
    lift_j_trace,
    lockstep,
    read_corpus,
    replay_j_trace,
    solved,
    theorem_check,
)
from .extraction import EShape, ShapeViolation, classify, extract, has_applied_h
from .gen import (
    GenConfig,
    enumerate_terms,
    term_stream,
    wrap_applied_h,
)
from .machines import (
    BUILTINS,
    G,
    I,
    J,
    OMEGA,
    AuxCapExceeded,
    FuelExhausted,
    Hnf,
    MachineOutcome,
    NotAJRedex,
    NotAnIRedex,
    NotATRedex,
    Overflow,
    StepKind,
    Strategy,
    TraceEntry,
    Y,
    i_step,
    j_step,
    run,
    t_step,
)
from .syntax import (
    ParseError,
    UnboundVariable,
    format_term,
    parse_term,
)
from .terms import (
    Abs,
    App,
    ConstH,
    H,
    Term,
    Tower,
    Var,
    apply_args,
    is_closed,
    shift,
    size,
    spine,
    subst_const_h,
    substitute,
)

__all__ = [
    "Abs", "AgreementRow", "App", "AuxCapExceeded", "BUILTINS", "BothHnf",
    "BothRunning", "Checkpoint", "ConstH", "CorpusEntry", "Diverged",
    "EMismatch", "EShape", "FuelExhausted", "G", "GenConfig", "H", "Hnf", "I",
    "InvalidTrace", "J", "LiftWitness", "LockstepReport", "MachineOutcome",
    "NotAJRedex", "NotATRedex", "NotAnIRedex", "OMEGA", "Overflow",
    "ParseError", "ShapeViolation", "StepKind", "Strategy", "SuiteReport",
    "Term", "Tower", "TraceEntry", "UnboundVariable", "Var", "Y", "apply_args",
    "classify", "enumerate_terms", "extract", "format_term", "has_applied_h",
    "i_step", "is_closed", "j_step", "lemma_suite", "lift_j_trace", "lockstep",
    "parse_term", "read_corpus", "replay_j_trace", "run", "shift", "size",
    "solved", "spine", "subst_const_h", "substitute", "t_step", "term_stream",
    "theorem_check", "wrap_applied_h",
]
