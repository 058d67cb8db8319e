"""Term generators: exhaustive enumeration and seeded random streams.

Size is the node count from ``terms.size``.  Enumeration is size-first
and canonical within each size (variables by index, then H, then
abstractions, then applications by operator size), so two runs with the
same bounds produce the same stream, each term exactly once.

Random generation is a pure function of GenConfig: the same config
yields bit-identical streams.  ``h_weight`` is the probability that a
leaf comes out as H rather than a variable; in an empty context every
leaf is forced to H regardless.

``pair_stream`` produces pairs of terms with equal extraction images.
Wrapping any subterm S as (H S) never changes the image: in argument or
body position the erasure applies directly to the wrapper, and in
operator position the wrapper's H simply becomes the head of the
surrounding spine and is erased there.  Two independent rounds of
random wrapping over a common base therefore give a pair that agrees
after extraction by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .extraction import extract
from .terms import Abs, App, H, Term, Var


@dataclass(frozen=True, slots=True)
class GenConfig:
    seed: int
    max_size: int
    free_vars: int = 0
    h_weight: float = 0.3


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


def _random_term(rng: random.Random, budget: int, free: int, h_weight: float) -> Term:
    if budget <= 1:
        if free == 0 or rng.random() < h_weight:
            return H
        return Var(rng.randrange(free))
    if budget == 2:
        if rng.random() < 0.4:
            return _random_term(rng, 1, free, h_weight)
        return Abs(_random_term(rng, 1, free + 1, h_weight))
    r = rng.random()
    if r < 0.10:
        return _random_term(rng, 1, free, h_weight)
    if r < 0.40:
        return Abs(_random_term(rng, budget - 1, free + 1, h_weight))
    fun_budget = rng.randint(1, budget - 2)
    fun = _random_term(rng, fun_budget, free, h_weight)
    arg = _random_term(rng, budget - 1 - fun_budget, free, h_weight)
    return App(fun, arg)


def term_stream(cfg: GenConfig) -> Iterator[Term]:
    rng = random.Random(cfg.seed)
    while True:
        yield _random_term(rng, cfg.max_size, cfg.free_vars, cfg.h_weight)


# ---------- equal-image pairs ----------


def wrap_applied_h(
    t: Term, rng: random.Random, density: float = 0.25, protect_head: bool = False
) -> Term:
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
        if not protected and rng.random() < density:
            new = App(H, new)
        done.append(new)
    return done[0]


def pair_stream(cfg: GenConfig, density: float = 0.25) -> Iterator[tuple[Term, Term]]:
    rng = random.Random(cfg.seed)
    while True:
        base = _random_term(rng, cfg.max_size, cfg.free_vars, cfg.h_weight)
        left = wrap_applied_h(base, rng, density)
        right = wrap_applied_h(base, rng, density)
        if extract(left) != extract(right):
            raise AssertionError(
                f"pair_stream (seed {cfg.seed}): two wrappings of one base "
                "extract to different images"
            )
        yield left, right
