"""Term generators: exhaustive enumeration and seeded random streams.

Size is the node count from ``terms.size``.  Enumeration is size-first
and canonical within each size (variables by index, then H, then
abstractions, then applications by operator size), so two runs with the
same bounds produce the same stream, each term exactly once.

Random generation is a pure function of its seed, size and number of
free variables: the same three yield bit-identical streams.
``H_WEIGHT`` is the probability that a leaf comes out as H rather than
a variable; in an empty context every leaf is forced to H regardless.
``WRAP_DENSITY`` is the probability that ``wrap_applied_h`` wraps an
unprotected subterm.  No command sets either; the tests patch them.
"""

from __future__ import annotations

import random
from typing import Iterator

# unused here, but kept as the name the benchmark's tracer patches
from .extraction import extract  # noqa: F401
from .terms import Abs, App, H, Term, Var

H_WEIGHT = 0.3
WRAP_DENSITY = 0.25


# ---------- exhaustive enumeration ----------


def _terms_of_size(n: int, free: int, memo: dict) -> list[Term]:
    key = (n, free)
    if key in memo:
        return memo[key]
    out: list[Term] = []
    if n == 1:
        out.extend(Var(i) for i in range(free))
        out.append(H)
    else:
        out.extend(Abs(b) for b in _terms_of_size(n - 1, free + 1, memo))
        for fun_size in range(1, n - 1):
            funs = _terms_of_size(fun_size, free, memo)
            args = _terms_of_size(n - 1 - fun_size, free, memo)
            out.extend(App(f, a) for f in funs for a in args)
    memo[key] = out
    return out


def enumerate_terms(max_size: int, free_vars: int = 0) -> Iterator[Term]:
    """All well-scoped terms of size <= max_size, smallest first."""
    memo: dict = {}
    for n in range(1, max_size + 1):
        yield from _terms_of_size(n, free_vars, memo)


# ---------- random streams ----------


def _random_term(rng: random.Random, budget: int, free: int) -> Term:
    if budget <= 1:
        if free == 0 or rng.random() < H_WEIGHT:
            return H
        return Var(rng.randrange(free))
    if budget == 2:
        if rng.random() < 0.4:
            return _random_term(rng, 1, free)
        return Abs(_random_term(rng, 1, free + 1))
    r = rng.random()
    if r < 0.10:
        return _random_term(rng, 1, free)
    if r < 0.40:
        return Abs(_random_term(rng, budget - 1, free + 1))
    fun_budget = rng.randint(1, budget - 2)
    fun = _random_term(rng, fun_budget, free)
    arg = _random_term(rng, budget - 1 - fun_budget, free)
    return App(fun, arg)


def term_stream(seed: int, max_size: int, free_vars: int = 0) -> Iterator[Term]:
    rng = random.Random(seed)
    while True:
        yield _random_term(rng, max_size, free_vars)


# ---------- extraction-neutral wrapping ----------


def wrap_applied_h(t: Term, rng: random.Random, protect_head: bool = False) -> Term:
    """Insert (H _) wrappers at random positions; extraction-neutral.

    With ``protect_head`` the binder prefix and operator spine of the
    whole term are left unwrapped, so a head redex stays a head redex.
    Subterms are visited in post-order, operator before argument, with a
    tower taken one H at a time, and each unprotected one draws its coin
    once its children are done.  The walk keeps its work on explicit
    stacks, so a term of any depth is wrapped without recursion.
    """
    done: list[Term] = []  # wrapped subterms not yet taken by their parent
    # Work, next item last: (term, protected) to visit, or (node,
    # protected, None) to rebuild from its wrapped children in done.
    todo: list = [(t, protect_head)]
    while todo:
        item = todo.pop()
        node, protected = item[0], item[1]
        if len(item) == 3:
            if isinstance(node, Abs):
                new = Abs(done.pop())
            else:
                arg = done.pop()
                new = App(done.pop(), arg)
        elif isinstance(node, Abs):
            todo += ((node, protected, None), (node.body, protected))
            continue
        elif isinstance(node, App):
            todo += ((node, protected, None), (node.arg, False), (node.fun, protected))
            continue
        else:
            new = node
        if not protected and rng.random() < WRAP_DENSITY:
            new = App(H, new)
        done.append(new)
    return done[0]
