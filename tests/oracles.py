"""Independent oracles the tests check the library against.

Nothing here imports library internals beyond the term constructors
and the spine view's head cases: the counting recurrence is plain
arithmetic on the grammar, ``recompose`` rebuilds a term from its spine
view by the grammar alone, and the substitution oracle works on named
trees with eager renaming, the textbook definition that de Bruijn
indices are supposed to implement.
"""

from __future__ import annotations

from functools import lru_cache

from lambdah.terms import (
    Abs,
    App,
    ConstH,
    H,
    HeadH,
    HeadRedex,
    HeadVar,
    SpineView,
    Term,
    Var,
    apply_args,
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


def recompose(view: SpineView) -> Term:
    """The term ``lam^binders. head args`` that ``spine`` decomposed."""
    match view.head:
        case HeadVar(i):
            t: Term = Var(i)
        case HeadH():
            t = H
        case HeadRedex(fun, arg):
            t = App(fun, arg)
    t = apply_args(t, view.args)
    for _ in range(view.binders):
        t = Abs(t)
    return t


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
