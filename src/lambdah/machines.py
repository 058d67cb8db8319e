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

Strategies, the paper's three head reductions:

    T_HEAD  t-steps only; halts when the head is no longer a redex.
    IT      eager I-steps whenever the head is an applied H, otherwise
            one t-step; halts at head normal form.
    JT      same with J-steps.

Pure I- or J-reduction is IT or JT at fuel 0: the run takes every
auxiliary step, and stops at head normal form or, with FuelExhausted,
at the first t-step it would take.  Every strategy takes t-steps, so a strategy is data to
``run`` only through its auxiliary family (I, J or none), read once per
call.  Every outcome, Hnf, FuelExhausted and Overflow alike, reports
the t-steps and the auxiliary steps taken.

``run`` keeps its state unwound, in the manner of Krivine's machine:
a binder count, a head term, and the head's arguments on a stack with
the first on top, the three parts ``terms.spine`` returns.  A step
contracts the head against the top of the stack, and ``spine`` settles
the new head over the same stack, pushing its own applications, so a
step costs the size of the new head's spine (plus the substitution's
walk down the redex body), not the size of the state.  A t-step does
not build the application spine of the redex body only for settling to
take it apart: it pushes each argument of that spine onto the stack,
substituted on its own, and substitutes into the spine's base alone, so
a body ``x x`` costs no new node.  A ``Term`` is read back from the
three parts only for an outcome, an AuxCapExceeded message or a trace
entry.  The single steps ``t_step``, ``i_step`` and ``j_step`` unwind
with ``spine``, contract and read back through the same helpers.

An applied H at the head is a tower ``H^n U1`` (see ``terms.Tower``),
and its n levels are n auxiliary steps of one kind, since the stack
below it keeps its height while they run: ``H^n U1 U2 ..`` becomes
``U1 (H^n U2) ..`` by n j_wraps, ``H^n U1`` alone becomes ``U1`` by n
j_drops, and n i-steps leave ``U1 U2 ..``.  Without a trace ``run``
takes the whole tower in one contraction and counts its n steps; with
``keep_trace`` it takes one level per entry, so the trace lists every
step.  Outcomes, step counts and budgets are the same either way.

``fuel`` bounds t-steps only.  Running out of fuel means "unknown", and
FuelExhausted says nothing about solvability.  I/J-steps need no budget
of their own: a burst of consecutive auxiliary steps between t-steps
(at fuel 0 the whole run is one burst) that starts from a state of
``size`` nodes takes at most ``size * size // 4`` steps, as the comment
at the guard in ``run`` proves.  A burst that outruns this bound
contradicts the proof, so ``run`` raises AuxCapExceeded, a bug, rather
than reporting an outcome.

Every single burst is finite, but the states between bursts can still
grow without bound.  Under JT a term like ``H (\\x.x x) (\\x.x x)``
doubles its tower of head Hs at every t-step: the wrap burst pushes the
whole tower onto the argument, and the beta step then duplicates that
argument, so after k t-steps the state stands for 2^(k+1) + 9 nodes
and 2^k aux steps lie behind it.  Held as towers, those states are a
handful of nodes and each burst is one contraction, so the run costs
time linear in its t-steps; other terms can still grow states that no
tower shares.  ``MAX_STATE`` bounds the size a burst may start from,
counted in expanded nodes as ``size`` counts them: when a burst is
about to start from a state bigger than the budget, the run stops with
Overflow, which like fuel exhaustion means "unknown", never
"unsolvable".  Counted that way, the budget stops a run at the same
step as if every H were its own node, though for towers it no longer
bounds memory.  T_HEAD takes no auxiliary steps and therefore never
consults the budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .syntax import format_term
from .terms import Abs, App, Term, Tower, Var, size, spine, substitute


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
    """A burst of I/J-steps outran the bound ``size * size // 4`` that
    ``run`` proves for it; this indicates a bug."""


# ---------- the unwound state ----------

# A state ``lam^binders. head a1 .. an`` is held in three parts, as
# ``terms.spine`` hands them back: the binder count, the head, and the
# arguments as a list with a1 on top (last).  After a step the new head
# is settled by ``spine`` over the same binder count and list.


def _lower(head: Tower, n: int, wrap: bool, stack: list[Term]) -> Term:
    """Take the top ``n`` levels of a tower at the head, one aux step
    each, and return the new head, not yet settled: the tower n lower.
    An i-step or j_drop drops its H; a j_wrap (``wrap``) moves it onto
    the next argument, so n of them leave that argument in n more H's."""
    if wrap:
        stack[-1] = Tower(n, stack[-1])
    return Tower(head.height - n, head.base)


def _readback(binders: int, head: Term, stack: list[Term]) -> Term:
    t = head
    for arg in reversed(stack):
        t = App(t, arg)
    for _ in range(binders):
        t = Abs(t)
    return t


def t_step(t: Term) -> Term:
    """One head beta step."""
    binders, head, stack = spine(t)
    if head.__class__ is not Abs:
        raise NotATRedex(f"head is not a beta redex: {format_term(t)}")
    return _readback(binders, substitute(head.body, stack.pop()), stack)


def i_step(t: Term) -> Term:
    """Drop the head H in front of its arguments."""
    binders, head, stack = spine(t)
    if head.__class__ is not Tower:
        raise NotAnIRedex(f"head is not an applied H: {format_term(t)}")
    return _readback(binders, _lower(head, 1, False, stack), stack)


def j_step(t: Term) -> Term:
    """Move the head H onto the second argument, or drop it if there is
    only one."""
    binders, head, stack = spine(t)
    if head.__class__ is not Tower:
        raise NotAJRedex(f"head is not an applied H: {format_term(t)}")
    return _readback(binders, _lower(head, 1, bool(stack), stack), stack)


# ---------- machine ----------


class Strategy(Enum):
    """Every strategy takes t-steps; the letter before ``t``, if any,
    names its auxiliary family."""

    T_HEAD = "t"
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
    """The state outgrew ``MAX_STATE`` nodes with a burst pending.  Like
    fuel exhaustion this leaves the run undecided."""

    last: Term
    t_steps: int
    trace: tuple[TraceEntry, ...] | None = None
    aux_steps: int = 0


MachineOutcome = Hnf | FuelExhausted | Overflow

# The state budget for strategies that take auxiliary bursts, counted
# in expanded nodes.  No walk over a state recurses, so the budget
# guards no stack; it bounds the work of a burst, at most 4096**2 // 4
# steps.  It is 4096 because the JT trace of the duplicator context
# ``H (\x.x x) (\x.x x)`` stops there, and the trace-roundtrip
# benchmark and the traces and counts the tests freeze were taken at
# that value.
MAX_STATE = 4096


def run(
    t: Term, strategy: Strategy, fuel: int, *, keep_trace: bool = False
) -> MachineOutcome:
    """Drive ``t`` with the given strategy.

    Returns Hnf when the strategy has no step left to take: a genuine
    head normal form for IT/JT, a t-irreducible head for T_HEAD.
    Returns FuelExhausted after ``fuel`` t-steps with work remaining,
    and Overflow when a burst would start from a state bigger than
    MAX_STATE nodes; both mean the run is undecided.  IT or JT at fuel
    0 is pure I- or J-reduction: it stops at Hnf or, at a beta redex,
    with FuelExhausted.  The outcome holds ``t`` itself if no step was
    taken, and with ``keep_trace`` every entry's ``before`` is the
    previous entry's ``after`` and the outcome holds the last one.  A
    burst that outruns its proven bound raises AuxCapExceeded.
    """
    trace: list[TraceEntry] | None = [] if keep_trace else None
    aux = strategy.value[:-1] or None
    # the state as a Term while one is at hand: the input, then the last
    # traced state; None once an untraced step has moved past it
    state: Term | None = t
    binders, head, stack = spine(t)
    t_steps = aux_steps = aux_since_t = burst_cap = 0
    while True:
        if aux is not None and head.__class__ is Tower:
            if aux_since_t == 0:
                # size of the state, without reading it back
                state_size = binders + size(head) + sum(size(a) + 1 for a in stack)
                if state_size > MAX_STATE:
                    stop = Overflow
                    break
                # A burst from a state with h H-nodes and a applications
                # takes at most h * a steps.  No aux step adds an App: an
                # i-step or j_drop deletes one App and one H, and a j_wrap
                # trades the App it pops for the one it builds around the
                # next argument.  So the stack never holds more than a
                # arguments.  A j_wrap from a stack n high leaves its H
                # around slot n - 1, and slots below the top never move,
                # so that H next reaches the head over a stack n - 1
                # high.  Each H is thus at the head at most a times, and
                # h * a <= (h + a)**2 // 4 <= size**2 // 4.
                burst_cap = state_size * state_size // 4
            # Untraced, the whole tower goes in one contraction, as far as
            # the cap allows: its n levels are n steps of one kind, as the
            # stack below it keeps its height.  A trace takes one level.
            n = min(head.height if trace is None else 1, burst_cap - aux_since_t)
            if n <= 0:
                stop = AuxCapExceeded
                break
            if aux == "i":
                kind = StepKind.I
            else:
                kind = StepKind.J_WRAP if stack else StepKind.J_DROP
            aux_steps += n
            aux_since_t += n
            new = _lower(head, n, kind is StepKind.J_WRAP, stack)
        elif head.__class__ is Abs:
            if t_steps >= fuel:
                stop = FuelExhausted
                break
            kind = StepKind.T
            t_steps += 1
            aux_since_t = 0
            # the body's own arguments go straight onto the stack, each
            # substituted on its own, so its spine is never rebuilt
            body, value = head.body, stack.pop()
            while body.__class__ is App:
                stack.append(substitute(body.arg, value))
                body = body.fun
            new = substitute(body, value)
        else:
            stop = Hnf
            break
        binders, head, stack = spine(new, binders, stack)
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
