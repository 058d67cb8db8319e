"""Head machines: t-steps, I-steps, J-steps, and the reduction strategies.

All three step rules fire in head position only, under the binder
prefix ``lam x1 .. xb``:

    t:       lam xs. (lam x. U) V V1 .. Vk  ->  lam xs. U[V/x] V1 .. Vk
    i:       lam xs. H U1 U2 .. Un          ->  lam xs. U1 U2 .. Un        (n >= 1)
    j_wrap:  lam xs. H U1 U2 U3 .. Un       ->  lam xs. U1 (H U2) U3 .. Un (n >= 2)
    j_drop:  lam xs. H U1                   ->  lam xs. U1

An I-step removes exactly two nodes, so pure I-reduction terminates on
its own.  A J-step either pushes the head H one argument inward (wrap)
or consumes it (drop); pure J-reduction also terminates, though not by
a one-step size argument.  Both step families leave the extraction
image of the term unchanged.

Strategies:

    T_HEAD  t-steps only; halts when the head is no longer a redex.
    PURE_I  I-steps only; halts when the head is no longer an applied H.
    PURE_J  J-steps only; same halting condition.
    IT      eager I-steps whenever the head is an applied H, otherwise
            one t-step; halts at head normal form.
    JT      same with J-steps.

A strategy is data to ``run``: whether it takes t-steps, and which
auxiliary contraction (I, J or none) it applies at an applied H; ``run``
looks both up once per call.  Every outcome, Hnf, FuelExhausted and
Overflow alike, reports the t-steps and the auxiliary steps taken.

``fuel`` bounds t-steps only.  I/J-steps are bounded separately by
``cap_aux``: each burst of consecutive auxiliary steps between t-steps
may not exceed the cap (for the pure strategies the whole run is one
burst).  Running out of fuel means "unknown", and FuelExhausted says
nothing about solvability; exceeding the auxiliary cap, by contrast,
would contradict the termination of pure I/J-reduction and is raised as
an error rather than reported as an outcome.

Every single burst is finite, but the states between bursts can still
grow without bound.  Under JT a term like ``H (\\x.x x) (\\x.x x)``
doubles its chain of head Hs at every t-step: the wrap burst pushes the
whole chain onto the argument, and the beta step then duplicates that
argument.  No burst outruns its cap, yet the aggregate work (and the
depth of the states) is exponential in the fuel.  ``max_state`` guards
against this: when a burst is about to start from a state bigger than
the budget, the run stops with Overflow, which like fuel exhaustion
means "unknown", never "unsolvable".  T_HEAD takes no auxiliary steps
and therefore never consults the budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .syntax import format_term
from .terms import (
    Abs,
    App,
    H,
    HeadH,
    HeadRedex,
    SpineView,
    Term,
    Var,
    apply_args,
    size,
    spine,
    substitute,
)


# ---------- step kinds and traces ----------


class StepKind(Enum):
    T = "t"
    I = "i"
    J_WRAP = "j_wrap"
    J_DROP = "j_drop"


@dataclass(frozen=True, slots=True)
class TraceEntry:
    kind: StepKind
    before: Term
    after: Term
    t_steps: int  # t-steps completed after this step


def trace_json(trace: Sequence[TraceEntry], free_vars: Sequence[str] = ()) -> Iterator[str]:
    """One JSON line per entry; a state that ends one step and starts
    the next is formatted once."""
    after, after_text = None, ""
    for entry in trace:
        before_text = (
            after_text if entry.before is after else format_term(entry.before, free_vars)
        )
        after, after_text = entry.after, format_term(entry.after, free_vars)
        yield json.dumps(
            {
                "kind": entry.kind.value,
                "before": before_text,
                "after": after_text,
                "t_steps": entry.t_steps,
            }
        )


# ---------- step rules ----------


class StepError(Exception):
    pass


class NotATRedex(StepError):
    pass


class NotAnIRedex(StepError):
    pass


class NotAJRedex(StepError):
    pass


class AuxCapExceeded(Exception):
    """A burst of I/J-steps outran its cap; this indicates a bug, since
    pure I- and J-reduction both terminate."""


def _rebuild(view: SpineView, base: Term, args: Sequence[Term]) -> Term:
    t = apply_args(base, args)
    for _ in range(view.binders):
        t = Abs(t)
    return t


def _contract_t(view: SpineView) -> Term:
    head = view.head
    assert isinstance(head, HeadRedex)
    fun = head.fun
    assert isinstance(fun, Abs)
    return _rebuild(view, substitute(fun.body, head.arg), view.args)


def _contract_i(view: SpineView) -> tuple[Term, StepKind]:
    return _rebuild(view, view.args[0], view.args[1:]), StepKind.I


def _contract_j(view: SpineView) -> tuple[Term, StepKind]:
    args = view.args
    if len(args) == 1:
        return _rebuild(view, args[0], ()), StepKind.J_DROP
    wrapped = (App(H, args[1]),) + args[2:]
    return _rebuild(view, args[0], wrapped), StepKind.J_WRAP


def t_step(t: Term) -> Term:
    """One head beta step."""
    view = spine(t)
    if not isinstance(view.head, HeadRedex):
        raise NotATRedex(f"head is not a beta redex: {format_term(t)}")
    return _contract_t(view)


def i_step(t: Term) -> Term:
    """Drop the head H in front of its arguments."""
    view = spine(t)
    if not isinstance(view.head, HeadH) or not view.args:
        raise NotAnIRedex(f"head is not an applied H: {format_term(t)}")
    return _contract_i(view)[0]


def j_step(t: Term) -> Term:
    """Move the head H onto the second argument, or drop it if there is
    only one."""
    view = spine(t)
    if not isinstance(view.head, HeadH) or not view.args:
        raise NotAJRedex(f"head is not an applied H: {format_term(t)}")
    return _contract_j(view)[0]


# ---------- machine ----------


class Strategy(Enum):
    T_HEAD = "t"
    PURE_I = "i"
    PURE_J = "j"
    IT = "it"
    JT = "jt"


# each strategy as data: the contraction it applies at an applied H, if
# any, and whether it takes t-steps
_STRATEGY_STEPS = {
    Strategy.T_HEAD: (None, True),
    Strategy.PURE_I: (_contract_i, False),
    Strategy.PURE_J: (_contract_j, False),
    Strategy.IT: (_contract_i, True),
    Strategy.JT: (_contract_j, True),
}


@dataclass(frozen=True, slots=True)
class Hnf:
    result: Term
    t_steps: int
    aux_steps: int
    trace: tuple[TraceEntry, ...] | None = None


@dataclass(frozen=True, slots=True)
class FuelExhausted:
    last: Term
    t_steps: int
    trace: tuple[TraceEntry, ...] | None = None
    aux_steps: int = 0


@dataclass(frozen=True, slots=True)
class Overflow:
    """The state outgrew ``max_state`` nodes with a burst pending.  Like
    fuel exhaustion this leaves the run undecided."""

    last: Term
    t_steps: int
    trace: tuple[TraceEntry, ...] | None = None
    aux_steps: int = 0


MachineOutcome = Hnf | FuelExhausted | Overflow

# Default state budget for strategies that take auxiliary bursts.  The
# recursions over a state (substitution, the size probe itself) go as
# deep as the term does, and a native stack holds roughly 16k frames of
# them; one t-step after an in-budget burst at most doubles the depth,
# so 4096 leaves a wide margin.
DEFAULT_MAX_STATE = 4096


def run(
    t: Term,
    strategy: Strategy,
    fuel: int,
    cap_aux: int | None = None,
    keep_trace: bool = False,
    max_state: int | None = None,
) -> MachineOutcome:
    """Drive ``t`` with the given strategy.

    Returns Hnf when the strategy has no step left to take: a genuine
    head normal form for IT/JT, a t-irreducible head for T_HEAD, and a
    head that is no longer an applied H for the pure strategies.
    Returns FuelExhausted after ``fuel`` t-steps with work remaining,
    and Overflow when a burst would start from a state bigger than
    ``max_state`` nodes (default DEFAULT_MAX_STATE); both mean the run
    is undecided.
    """
    trace: list[TraceEntry] | None = [] if keep_trace else None
    contract_aux, takes_t = _STRATEGY_STEPS[strategy]
    budget = max_state if max_state is not None else DEFAULT_MAX_STATE
    t_steps = 0
    aux_steps = 0
    aux_since_t = 0
    burst_cap = 0
    while True:
        view = spine(t)
        head = view.head
        if contract_aux is not None and isinstance(head, HeadH) and view.args:
            if aux_since_t == 0:
                state_size = size(t)
                if state_size > budget:
                    return Overflow(t, t_steps, _freeze(trace), aux_steps)
                # generous per-burst default: pure J-reduction is
                # observed to need well under 10 * size steps, and pure
                # I needs at most size // 2
                burst_cap = cap_aux if cap_aux is not None else 10 * state_size + 100
            if aux_since_t >= burst_cap:
                family = "i" if contract_aux is _contract_i else "j"
                raise AuxCapExceeded(
                    f"{aux_since_t} consecutive {family}-steps "
                    f"(cap {burst_cap}) from {format_term(t)}"
                )
            before = t
            t, kind = contract_aux(view)
            aux_steps += 1
            aux_since_t += 1
            if trace is not None:
                trace.append(TraceEntry(kind, before, t, t_steps))
            continue
        if takes_t and isinstance(head, HeadRedex):
            if t_steps >= fuel:
                return FuelExhausted(t, t_steps, _freeze(trace), aux_steps)
            before = t
            t = _contract_t(view)
            t_steps += 1
            aux_since_t = 0
            if trace is not None:
                trace.append(TraceEntry(StepKind.T, before, t, t_steps))
            continue
        return Hnf(t, t_steps, aux_steps, _freeze(trace))


def _freeze(trace: list[TraceEntry] | None) -> tuple[TraceEntry, ...] | None:
    return tuple(trace) if trace is not None else None


def solvable(t: Term, fuel: int, keep_trace: bool = False) -> MachineOutcome:
    """Head reduction by t-steps alone; Hnf means solvable, FuelExhausted
    means unknown (never "unsolvable")."""
    return run(t, Strategy.T_HEAD, fuel, keep_trace=keep_trace)


# ---------- the named combinators ----------

# I = \x.x                       identity
# G = \x y z. y (x z)            one layer of eta expansion around the head
# Y = (\z f. f (z z f)) (\z f. f (z z f))   a fixed point combinator
# J = Y G                        unbounded eta expansion of the identity
# OMEGA = (\x.x x) (\x.x x)      the standard unsolvable term

I = Abs(Var(0))
G = Abs(Abs(Abs(App(Var(1), App(Var(2), Var(0))))))
_Y_HALF = Abs(Abs(App(Var(0), App(App(Var(1), Var(1)), Var(0)))))
Y = App(_Y_HALF, _Y_HALF)
J = App(Y, G)
_SELF_APPLY = Abs(App(Var(0), Var(0)))
OMEGA = App(_SELF_APPLY, _SELF_APPLY)

# the uppercase names the command line and corpus files may use
BUILTINS = {"I": I, "J": J, "Y": Y, "G": G, "Omega": OMEGA}
