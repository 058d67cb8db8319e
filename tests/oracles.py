"""Independent oracles the tests check the library against.

The counting recurrence is plain arithmetic on the grammar,
``recompose`` rebuilds a term from what ``terms.spine`` returns by the
grammar alone, and ``decompose`` is the spine read the textbook way:
strip the binders, walk ``fun`` and ``arg`` with every tower expanded
one H at a time (``application_spine``), and classify the base.  The
substitution oracle works on named trees with eager renaming, the
textbook definition that de Bruijn indices are supposed to implement.
``reference_run`` is the machine driver written the direct way: it
re-reads the whole state through ``decompose`` before every step and
rebuilds the whole state after it, so it shares only the outcome types
and ``substitute`` with the unwound machine it checks.  ``state_budget``
sets the budget ``machines.MAX_STATE`` of both drivers for a block.
``count_h_and_apps`` counts the two kinds of node that bound a burst,
``node_count`` counts every node one at a time, the reference for the
count each node carries,
and ``finished_burst`` tells whether a pure run took all of its burst.
``recursive_wrap_applied_h`` is the H-wrapper of ``gen`` written by
recursion, the reference for the order in which it draws its coins, and
``pair_stream`` wraps each random base twice, giving pairs whose
extraction images must agree.
``recursive_shift``, ``recursive_substitute`` and ``recursive_extract``
are the term core's walks as they were written before it kept its work
on explicit stacks: one call per node, the references for the results
and the identity returns of the iterative walks.  ``REFERENCE_TOKEN``
is the tokenizer's pattern as it was when a run of H-tower pieces could
hold gaps and comments, and ``REFERENCE_PIECE`` splits such a run into
its "H", "(" and ")" pieces.  Split that way, its tokens and their
offsets are the reference for the tokenizer, which reads a run only in
the printer's spelling.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator

import pytest

from lambdah import machines
from lambdah.gen import GenConfig, _random_term, wrap_applied_h
from lambdah.machines import (
    AuxCapExceeded,
    FuelExhausted,
    Hnf,
    MachineOutcome,
    Overflow,
    StepKind,
    Strategy,
    TraceEntry,
)
from lambdah.syntax import format_term
from lambdah.terms import (
    Abs,
    App,
    ConstH,
    H,
    Term,
    Tower,
    Var,
    apply_args,
    substitute,
)


@lru_cache(maxsize=None)
def count_terms(n: int, free: int) -> int:
    """Number of well-scoped terms with exactly n nodes.

    A size-1 term is one of the ``free`` variables or H.  A bigger term
    is an abstraction over a body one node smaller with one more
    variable in scope, or an application splitting the remaining nodes
    between operator and argument.
    """
    if n < 1:
        return 0
    if n == 1:
        return free + 1
    total = count_terms(n - 1, free + 1)
    for op in range(1, n - 1):
        total += count_terms(op, free) * count_terms(n - 1 - op, free)
    return total


def recompose(binders: int, head: Term, args: list[Term]) -> Term:
    """The term ``lam^binders. head a1 .. an`` that ``spine`` returned as
    its binder count, head and arguments (a1 last)."""
    t = apply_args(head, reversed(args))
    for _ in range(binders):
        t = Abs(t)
    return t


def application_spine(t: Term) -> tuple[Term, list[Term]]:
    """The base of t's applications and their arguments, left to right;
    a tower is an application like any other, one H at a time."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def decompose(t: Term) -> tuple[int, Term, list[Term]]:
    """``lam^binders. base a1 .. an`` with the arguments left to right:
    the base is a variable, H (applied or not), or an abstraction, which
    then has the redex's argument as a1."""
    binders = 0
    while isinstance(t, Abs):
        binders += 1
        t = t.body
    base, args = application_spine(t)
    return binders, base, args


# ---------- named substitution oracle ----------

# named trees: ("var", name) | ("abs", name, body) | ("app", fun, arg) | ("H",)


def _to_named(t: Term, env: list[str], counter: list[int]):
    match t:
        case Var(i):
            if i < len(env):
                return ("var", env[i])
            return ("var", f"f{i - len(env)}")  # ambient free variable
        case Abs(body):
            name = f"b{counter[0]}"
            counter[0] += 1
            return ("abs", name, _to_named(body, [name] + env, counter))
        case App(fun, arg):
            return ("app", _to_named(fun, env, counter), _to_named(arg, env, counter))
        case ConstH():
            return ("H",)


def _rename_free(t, old: str, new: str):
    match t:
        case ("var", name):
            return ("var", new) if name == old else t
        case ("abs", name, body):
            if name == old:
                return t  # shadowed below this binder
            return ("abs", name, _rename_free(body, old, new))
        case ("app", fun, arg):
            return ("app", _rename_free(fun, old, new), _rename_free(arg, old, new))
        case _:
            return t


def _named_subst(t, target: str, value, counter: list[int]):
    match t:
        case ("var", name):
            return value if name == target else t
        case ("abs", name, body):
            if name == target:
                return t
            # eager renaming: give every binder crossed a brand new name,
            # so nothing in ``value`` can ever be captured
            fresh = f"r{counter[0]}"
            counter[0] += 1
            renamed = _rename_free(body, name, fresh)
            return ("abs", fresh, _named_subst(renamed, target, value, counter))
        case ("app", fun, arg):
            return (
                "app",
                _named_subst(fun, target, value, counter),
                _named_subst(arg, target, value, counter),
            )
        case _:
            return t


def _from_named(t, env: list[str]) -> Term:
    match t:
        case ("var", name):
            if name in env:
                return Var(env.index(name))
            assert name.startswith("f")
            return Var(len(env) + int(name[1:]))
        case ("abs", name, body):
            return Abs(_from_named(body, [name] + env))
        case ("app", fun, arg):
            return App(_from_named(fun, env), _from_named(arg, env))
        case _:
            return H


def oracle_substitute(body: Term, value: Term) -> Term:
    """Contract App(Abs(body), value) by named substitution.

    Index 0 of ``body`` is the bound variable being replaced; the other
    free indices of body and value refer to a shared ambient context
    and line up again in the result.
    """
    counter = [0]
    named_body = _to_named(body, ["@hole"], counter)
    named_value = _to_named(value, [], counter)
    result = _named_subst(named_body, "@hole", named_value, counter)
    return _from_named(result, [])


# ---------- reference machine driver ----------


def _rebuild(binders: int, base: Term, args) -> Term:
    t = apply_args(base, args)
    for _ in range(binders):
        t = Abs(t)
    return t


def _ref_contract_t(binders: int, fun: Abs, args: list[Term]) -> Term:
    return _rebuild(binders, substitute(fun.body, args[0]), args[1:])


def _ref_contract_i(binders: int, args: list[Term]) -> tuple[Term, StepKind]:
    return _rebuild(binders, args[0], args[1:]), StepKind.I


def _ref_contract_j(binders: int, args: list[Term]) -> tuple[Term, StepKind]:
    if len(args) == 1:
        return _rebuild(binders, args[0], ()), StepKind.J_DROP
    wrapped = [App(H, args[1])] + args[2:]
    return _rebuild(binders, args[0], wrapped), StepKind.J_WRAP


_REF_AUX = {
    Strategy.T_HEAD: None,
    Strategy.IT: _ref_contract_i,
    Strategy.JT: _ref_contract_j,
}


def reference_run(
    t: Term, strategy: Strategy, fuel: int, *, keep_trace: bool = False
) -> MachineOutcome:
    """``machines.run`` by whole-state rewriting: one decomposition per
    step, one rebuilt state after it, one ``node_count`` walk per burst.  The state
    budget is ``machines.MAX_STATE``, read at call time, so a test that
    patches it patches both drivers."""
    trace: list[TraceEntry] | None = [] if keep_trace else None
    contract_aux = _REF_AUX[strategy]
    t_steps = aux_steps = aux_since_t = burst_cap = 0

    def frozen():
        return tuple(trace) if trace is not None else None

    while True:
        binders, base, args = decompose(t)
        if contract_aux is not None and isinstance(base, ConstH) and args:
            if aux_since_t == 0:
                state_size = node_count(t)
                if state_size > machines.MAX_STATE:
                    return Overflow(t, t_steps, frozen(), aux_steps)
                burst_cap = state_size * state_size // 4
            if aux_since_t >= burst_cap:
                family = "i" if contract_aux is _ref_contract_i else "j"
                raise AuxCapExceeded(
                    f"{aux_since_t} consecutive {family}-steps "
                    f"(cap {burst_cap}) from {format_term(t)}"
                )
            before = t
            t, kind = contract_aux(binders, args)
            aux_steps += 1
            aux_since_t += 1
            if trace is not None:
                trace.append(TraceEntry(kind, before, t, t_steps))
            continue
        if isinstance(base, Abs):
            if t_steps >= fuel:
                return FuelExhausted(t, t_steps, frozen(), aux_steps)
            before = t
            t = _ref_contract_t(binders, base, args)
            t_steps += 1
            aux_since_t = 0
            if trace is not None:
                trace.append(TraceEntry(StepKind.T, before, t, t_steps))
            continue
        return Hnf(t, t_steps, aux_steps, frozen())


@contextmanager
def state_budget(nodes: int) -> Iterator[None]:
    """``machines.MAX_STATE`` is ``nodes`` inside the block.  A context,
    not the ``monkeypatch`` fixture, so it also serves hypothesis tests
    and loops over several budgets."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "MAX_STATE", nodes)
        yield


def count_h_and_apps(t: Term) -> tuple[int, int]:
    """The number of H-nodes and of applications in t: a pure burst
    from t takes at most h * a J-steps and h I-steps."""
    h = a = 0
    todo = [t]
    while todo:
        node = todo.pop()
        match node:
            case App(fun, arg):
                a += 1
                todo += (fun, arg)
            case Abs(body):
                todo.append(body)
            case ConstH():
                h += 1
    return h, a


def node_count(t: Term) -> int:
    """The nodes of t counted one at a time, every tower walked through
    ``fun`` and ``arg`` as the applications and H's it stands for."""
    n = 0
    todo = [t]
    while todo:
        node = todo.pop()
        n += 1
        if isinstance(node, App):
            todo += (node.fun, node.arg)
        elif isinstance(node, Abs):
            todo.append(node.body)
    return n


def finished_burst(out: MachineOutcome) -> bool:
    """Whether a pure I or J run, IT or JT at fuel 0, took its whole
    burst: it did not overflow, and no applied H is left at the head.
    It ends with Hnf, or with FuelExhausted at a beta redex."""
    final = out.result if isinstance(out, Hnf) else out.last
    _, base, args = decompose(final)
    return not isinstance(out, Overflow) and not (isinstance(base, ConstH) and args)


def recursive_wrap_applied_h(
    t: Term, rng: random.Random, density: float = 0.25, protect_head: bool = False
) -> Term:
    """``gen.wrap_applied_h`` by recursion: children first, operator
    before argument, then the node's own coin."""

    def go(t: Term, protected: bool) -> Term:
        match t:
            case Abs(body):
                new: Term = Abs(go(body, protected))
            case App(fun, arg):
                new = App(go(fun, protected), go(arg, False))
            case _:
                new = t
        if not protected and rng.random() < density:
            new = App(H, new)
        return new

    return go(t, protect_head)


def pair_stream(cfg: GenConfig, density: float = 0.25) -> Iterator[tuple[Term, Term]]:
    """Two independent wrappings of each seeded random base.  Wrapping S
    as (H S) never changes the image: in argument or body position the
    erasure applies to the wrapper itself, and in operator position the
    wrapper's H becomes the head of the surrounding spine and is erased
    there.  So each pair agrees after extraction by construction."""
    rng = random.Random(cfg.seed)
    while True:
        base = _random_term(rng, cfg.max_size, cfg.free_vars, cfg.h_weight)
        yield wrap_applied_h(base, rng, density), wrap_applied_h(base, rng, density)


# ---------- recursive references for the term core ----------


def recursive_shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if by == 0 or t.fv <= cutoff:
        return t
    cls = t.__class__
    if cls is App:
        return App(
            recursive_shift(t.fun, by, cutoff), recursive_shift(t.arg, by, cutoff)
        )
    if cls is Abs:
        return Abs(recursive_shift(t.body, by, cutoff + 1))
    if cls is Tower:
        return Tower(t.height, recursive_shift(t.base, by, cutoff))
    return Var(t.index + by)


def _recursive_subst(t: Term, depth: int, value: Term) -> Term:
    if t.fv <= depth:
        return t
    cls = t.__class__
    if cls is App:
        return App(
            _recursive_subst(t.fun, depth, value), _recursive_subst(t.arg, depth, value)
        )
    if cls is Abs:
        return Abs(_recursive_subst(t.body, depth + 1, value))
    if cls is Tower:
        return Tower(t.height, _recursive_subst(t.base, depth, value))
    i = t.index
    if i == depth:
        return recursive_shift(value, depth)
    return Var(i - 1)


def recursive_substitute(body: Term, value: Term) -> Term:
    return _recursive_subst(body, 0, value)


def recursive_extract(t: Term) -> Term:
    args: list[Term] = []
    while True:
        while t.__class__ is App:
            args.append(t.arg)
            t = t.fun
        cls = t.__class__
        if cls is Tower:
            t = t.base
        elif cls is ConstH and args:
            t = args.pop()
        else:
            break
    image = Abs(recursive_extract(t.body)) if t.__class__ is Abs else t
    for arg in reversed(args):
        image = App(image, recursive_extract(arg))
    return image


# the gap and token patterns of syntax, each run piece read through the gap
_SKIP = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"
REFERENCE_TOKEN = re.compile(
    _SKIP
    + rf"(H{_SKIP}\((?:{_SKIP}H{_SKIP}\()*|\)(?:{_SKIP}\))*"
    + r"|[\\λ.(]|[^\W_]+|[^ \t\r\n#]|\Z)"
)
# the pieces of a run, one match each: "H", "(" or ")"
REFERENCE_PIECE = re.compile(_SKIP + r"([H()])")
