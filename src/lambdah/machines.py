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

A strategy is data to ``run``: its value spells whether it takes
t-steps and which auxiliary family (I, J or none) it applies at an
applied H, and ``run`` reads both once per call.  Every outcome, Hnf,
FuelExhausted and Overflow alike, reports the t-steps and the auxiliary
steps taken.

``run`` keeps its state unwound, in the manner of Krivine's machine:
a binder count, a head term, and the head's arguments on a stack with
the first on top.  A step contracts the head against the top of the
stack, and settling the new head pushes its own applications, so a
step costs the size of the new head's spine (plus the substitution's
walk down the redex body), not the size of the state.  A ``Term`` is
read back from the three parts only for an outcome, an AuxCapExceeded
message or a trace entry.  The single steps ``t_step``, ``i_step`` and
``j_step`` unwind, contract and read back through the same helpers.

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
from .terms import (  # spine is unused here but stays a name perfbench patches
    Abs,
    App,
    ConstH,
    H,
    Term,
    Var,
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


# ---------- the unwound state ----------

# A state ``lam^binders. head a1 .. an`` is held in three parts: the
# binder count, the head term, and the arguments as a list with a1 on
# top (last).  Settling pushes the head's applications onto the list and
# strips a binder only while no argument is waiting, so a settled head is
# a variable, H, or an abstraction with an argument waiting: a beta redex.


def _settle(binders: int, head: Term, stack: list[Term]) -> tuple[int, Term]:
    while True:
        cls = head.__class__
        if cls is App:
            stack.append(head.arg)
            head = head.fun
        elif cls is Abs and not stack:
            binders += 1
            head = head.body
        else:
            return binders, head


def _unwind(t: Term) -> tuple[int, Term, list[Term]]:
    stack: list[Term] = []
    binders, head = _settle(0, t, stack)
    return binders, head, stack


def _contract(kind: StepKind, head: Term, stack: list[Term]) -> Term:
    """Contract a settled head in place and return the new head, not yet
    settled: the body with the top argument substituted for a t-step,
    the top argument itself otherwise, with the next one wrapped in H
    for a j_wrap."""
    arg = stack.pop()
    if kind is StepKind.T:
        return substitute(head.body, arg)
    if kind is StepKind.J_WRAP:
        stack[-1] = App(H, stack[-1])
    return arg


def _readback(binders: int, head: Term, stack: list[Term]) -> Term:
    t = head
    for arg in reversed(stack):
        t = App(t, arg)
    for _ in range(binders):
        t = Abs(t)
    return t


def _j_kind(stack: list[Term]) -> StepKind:
    return StepKind.J_DROP if len(stack) == 1 else StepKind.J_WRAP


def t_step(t: Term) -> Term:
    """One head beta step."""
    binders, head, stack = _unwind(t)
    if not isinstance(head, Abs):
        raise NotATRedex(f"head is not a beta redex: {format_term(t)}")
    return _readback(binders, _contract(StepKind.T, head, stack), stack)


def i_step(t: Term) -> Term:
    """Drop the head H in front of its arguments."""
    binders, head, stack = _unwind(t)
    if not isinstance(head, ConstH) or not stack:
        raise NotAnIRedex(f"head is not an applied H: {format_term(t)}")
    return _readback(binders, _contract(StepKind.I, head, stack), stack)


def j_step(t: Term) -> Term:
    """Move the head H onto the second argument, or drop it if there is
    only one."""
    binders, head, stack = _unwind(t)
    if not isinstance(head, ConstH) or not stack:
        raise NotAJRedex(f"head is not an applied H: {format_term(t)}")
    return _readback(binders, _contract(_j_kind(stack), head, stack), stack)


# ---------- machine ----------


class Strategy(Enum):
    """A strategy's value spells the step families it takes: ``t`` for
    t-steps, and ``i`` or ``j`` first for its auxiliary contraction."""

    T_HEAD = "t"
    PURE_I = "i"
    PURE_J = "j"
    IT = "it"
    JT = "jt"


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
# size probe and the readback of a state are iterative; only the
# substitution of a t-step recurses, as deep as the redex body and the
# substituted value reach, and a native stack holds roughly 16k frames of
# it.  One t-step after an in-budget burst at most doubles the depth, so
# 4096 leaves a wide margin.
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
    is undecided.  The outcome holds ``t`` itself if no step was taken,
    and with ``keep_trace`` every entry's ``before`` is the previous
    entry's ``after`` and the outcome holds the last one.
    """
    trace: list[TraceEntry] | None = [] if keep_trace else None
    families = strategy.value
    takes_t = "t" in families
    aux = families[0] if families[0] != "t" else None
    budget = max_state if max_state is not None else DEFAULT_MAX_STATE
    # the state as a Term while one is at hand: the input, then the last
    # traced state; None once an untraced step has moved past it
    state: Term | None = t
    binders, head, stack = _unwind(t)
    t_steps = aux_steps = aux_since_t = burst_cap = 0
    while True:
        if aux is not None and isinstance(head, ConstH) and stack:
            if aux_since_t == 0:
                # size of the state, without reading it back
                state_size = binders + size(head) + sum(size(a) + 1 for a in stack)
                if state_size > budget:
                    stop = Overflow
                    break
                # generous per-burst default: pure J-reduction is
                # observed to need well under 10 * size steps, and pure
                # I needs at most size // 2
                burst_cap = cap_aux if cap_aux is not None else 10 * state_size + 100
            if aux_since_t >= burst_cap:
                stop = AuxCapExceeded
                break
            kind = StepKind.I if aux == "i" else _j_kind(stack)
            aux_steps += 1
            aux_since_t += 1
        elif takes_t and isinstance(head, Abs):
            if t_steps >= fuel:
                stop = FuelExhausted
                break
            kind = StepKind.T
            t_steps += 1
            aux_since_t = 0
        else:
            stop = Hnf
            break
        binders, head = _settle(binders, _contract(kind, head, stack), stack)
        if trace is None:
            state = None
        else:
            after = _readback(binders, head, stack)
            trace.append(TraceEntry(kind, state, after, t_steps))
            state = after
    if state is None:
        state = _readback(binders, head, stack)
    if stop is AuxCapExceeded:
        raise AuxCapExceeded(
            f"{aux_since_t} consecutive {aux}-steps "
            f"(cap {burst_cap}) from {format_term(state)}"
        )
    frozen = tuple(trace) if trace is not None else None
    return stop(state, t_steps, trace=frozen, aux_steps=aux_steps)


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
