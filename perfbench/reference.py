"""Independent references for checking lambdah's printed output.

Nothing here imports lambdah.  Terms are named trees of plain tuples,

    ("var", name) | ("lam", name, body) | ("app", fun, arg) | ("H",)

and substitution is the textbook capture-avoiding one on names, with
binders renamed apart, so it shares no idea with the program's de Bruijn
core beyond the definitions in the project README:

    t:       \\xs. (\\x.U) V V1 .. Vk   ->  \\xs. U[V/x] V1 .. Vk
    i:       \\xs. H U1 U2 .. Un       ->  \\xs. U1 U2 .. Un
    j_wrap:  \\xs. H U1 U2 U3 .. Un    ->  \\xs. U1 (H U2) U3 .. Un
    j_drop:  \\xs. H U1                ->  \\xs. U1

The functions recurse as deep as a term nests; callers raise the
recursion limit for the deep states of the trace workload.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

H = ("H",)

_TOKEN = re.compile(r"\s*(?:(#.*)|(\\|λ)|(\.)|(\()|(\))|([A-Za-z][A-Za-z0-9]*)|(\S))")


class Rejected(Exception):
    """Printed output that the reference cannot accept."""


def _tokens(text: str) -> list[str]:
    out = []
    for m in _TOKEN.finditer(text):
        if m.group(1) is not None:  # comment to end of line
            continue
        if m.group(7) is not None:
            raise Rejected(f"unexpected character {m.group(7)!r} in {text[:60]!r}")
        tok = m.group(2) or m.group(3) or m.group(4) or m.group(5) or m.group(6)
        if tok:
            out.append("\\" if tok == "λ" else tok)
    return out


def parse(text: str, builtins: dict | None = None):
    """Parse the surface grammar; uppercase names other than H come from
    ``builtins``."""
    toks = _tokens(text)
    pos = 0
    consts = builtins or {}

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise Rejected(f"expected {expected or 'a token'} at {pos} in {text[:60]!r}")
        pos += 1
        return tok

    def term():
        if peek() == "\\":
            take()
            names = []
            while peek() not in (".", None):
                names.append(take())
            take(".")
            if not names:
                raise Rejected(f"binder without a name in {text[:60]!r}")
            body = term()
            for name in reversed(names):
                body = ("lam", name, body)
            return body
        t = atom()
        while peek() not in (None, ")", "\\"):
            t = ("app", t, atom())
        if peek() == "\\":
            raise Rejected(f"unparenthesised abstraction argument in {text[:60]!r}")
        return t

    def atom():
        tok = take()
        if tok == "(":
            t = term()
            take(")")
            return t
        if tok == "H":
            return H
        if tok[0].islower():
            return ("var", tok)
        if tok in consts:
            return consts[tok]
        raise Rejected(f"unknown token {tok!r} in {text[:60]!r}")

    t = term()
    if pos != len(toks):
        raise Rejected(f"trailing input in {text[:60]!r}")
    return t


def _combinators() -> dict:
    base: dict = {}
    base["I"] = parse("\\x.x")
    base["G"] = parse("\\x y z.y (x z)")
    # Turing's fixed point combinator, as the project documents its Y
    base["Y"] = parse("(\\z f.f (z z f)) (\\z f.f (z z f))")
    base["J"] = ("app", base["Y"], base["G"])
    base["Omega"] = parse("(\\x.x x) (\\x.x x)")
    return base


BUILTINS = _combinators()


def size(t) -> int:
    """Node count: variables, H, binders and applications cost one each."""
    n = 0
    todo = [t]
    while todo:
        t = todo.pop()
        n += 1
        if t[0] == "app":
            todo.append(t[1])
            todo.append(t[2])
        elif t[0] == "lam":
            todo.append(t[2])
    return n


def free_vars(t) -> set:
    out: set = set()
    todo = [(t, frozenset())]
    while todo:
        t, bound = todo.pop()
        if t[0] == "var":
            if t[1] not in bound:
                out.add(t[1])
        elif t[0] == "lam":
            todo.append((t[2], bound | {t[1]}))
        elif t[0] == "app":
            todo.append((t[1], bound))
            todo.append((t[2], bound))
    return out


_fresh = itertools.count()


def substitute(body, name: str, value):
    """body[value/name], renaming binders of body that would capture a
    free variable of value.  Fresh names carry a quote, which the
    surface grammar cannot produce."""
    fv = free_vars(value)

    def go(t, ren):
        tag = t[0]
        if tag == "var":
            return ren.get(t[1], t)
        if tag == "app":
            return ("app", go(t[1], ren), go(t[2], ren))
        if tag == "lam":
            y = t[1]
            inner = dict(ren)
            inner.pop(y, None)  # y shadows whatever it named outside
            if name not in inner:
                return ("lam", y, go(t[2], inner)) if inner else t
            if y in fv:
                fresh = f"{y}'{next(_fresh)}"
                inner[y] = ("var", fresh)
                return ("lam", fresh, go(t[2], inner))
            return ("lam", y, go(t[2], inner))
        return t

    return go(body, {name: value})


def subst_h(t, m):
    """Replace every H by the closed term m."""
    tag = t[0]
    if tag == "H":
        return m
    if tag == "app":
        return ("app", subst_h(t[1], m), subst_h(t[2], m))
    if tag == "lam":
        return ("lam", t[1], subst_h(t[2], m))
    return t


def canon(t, env=None, depth=0):
    """Alpha-canonical form: bound names become binder distances."""
    env = {} if env is None else env
    tag = t[0]
    if tag == "var":
        at = env.get(t[1])
        return ("b", depth - at) if at is not None else ("f", t[1])
    if tag == "app":
        return ("a", canon(t[1], env, depth), canon(t[2], env, depth))
    if tag == "lam":
        saved = env.get(t[1])
        env[t[1]] = depth + 1
        body = canon(t[2], env, depth + 1)
        if saved is None:
            del env[t[1]]
        else:
            env[t[1]] = saved
        return ("l", body)
    return ("H",)


def alpha_eq(a, b) -> bool:
    return canon(a) == canon(b)


# ---------- head position ----------


def decompose(t):
    """Split t as \\binders. head args."""
    binders = []
    while t[0] == "lam":
        binders.append(t[1])
        t = t[2]
    args = []
    while t[0] == "app":
        args.append(t[2])
        t = t[1]
    args.reverse()
    return binders, t, args


def compose(binders, head, args):
    t = head
    for a in args:
        t = ("app", t, a)
    for name in reversed(binders):
        t = ("lam", name, t)
    return t


def head_kind(t) -> str:
    """'t' for a head beta redex, 'h' for an applied H, 'hnf' otherwise."""
    _, head, args = decompose(t)
    if head[0] == "lam" and args:
        return "t"
    if head[0] == "H" and args:
        return "h"
    return "hnf"


def step(t, kind: str):
    """Contract the head of t by the named rule, as the README defines it."""
    binders, head, args = decompose(t)
    if kind == "t":
        if head[0] != "lam" or not args:
            raise Rejected("t-step without a head beta redex")
        return compose(binders, substitute(head[2], head[1], args[0]), args[1:])
    if head[0] != "H" or not args:
        raise Rejected(f"{kind}-step without an applied H at the head")
    if kind == "i":
        return compose(binders, args[0], args[1:])
    if kind == "j_wrap":
        if len(args) < 2:
            raise Rejected("j_wrap needs two arguments")
        return compose(binders, args[0], [("app", H, args[1])] + args[2:])
    if kind == "j_drop":
        if len(args) != 1:
            raise Rejected("j_drop needs exactly one argument")
        return compose(binders, args[0], [])
    raise Rejected(f"unknown step kind {kind!r}")


def head_reduce(t, fuel: int):
    """Head beta reduction.  Returns (reached_hnf, t_steps, last_term);
    a term still reducible after ``fuel`` steps is undecided."""
    steps = 0
    while head_kind(t) == "t":
        if steps == fuel:
            return False, steps, t
        t = step(t, "t")
        steps += 1
    return head_kind(t) == "hnf", steps, t


def check_jt_trace(start, entries, budget: int) -> list[str]:
    """Check a printed JT trace that ended by outgrowing the state budget.

    ``entries`` are (kind, state) pairs, each state the one after its
    step.  Every step must be the one JT takes from the previous state
    (an applied H takes its J-step, otherwise a head beta redex takes a
    t-step) and produce exactly the printed state; every burst of
    J-steps must start from a state within ``budget`` nodes; the final
    state must have a burst pending and be over the budget.
    Returns the problems found, empty when the trace is right.
    """
    problems: list[str] = []
    state = start
    previous_kind = "t"
    for n, (kind, after) in enumerate(entries, 1):
        want = head_kind(state)
        if want == "h":
            _, _, args = decompose(state)
            want = "j_wrap" if len(args) >= 2 else "j_drop"
            if previous_kind == "t" and size(state) > budget:
                problems.append(f"step {n}: burst started from {size(state)} nodes")
        if want != kind:
            problems.append(f"step {n}: printed {kind}, JT takes {want}")
            return problems
        if not alpha_eq(step(state, kind), after):
            problems.append(f"step {n}: printed state is not the {kind}-contraction")
            return problems
        state, previous_kind = after, kind
    if head_kind(state) != "h":
        problems.append("the run stopped without a burst pending")
    elif size(state) <= budget:
        problems.append(f"the run stopped at {size(state)} nodes, within the budget")
    return problems


# ---------- counting ----------


@lru_cache(maxsize=None)
def count_terms(n: int, free: int) -> int:
    """Well-scoped terms of exactly n nodes over ``free`` free variables:
    a leaf is a variable or H, a binder adds a variable to the scope of
    its body, an application splits the remaining nodes."""
    if n < 1:
        return 0
    if n == 1:
        return free + 1
    total = count_terms(n - 1, free + 1)
    for left in range(1, n - 1):
        total += count_terms(left, free) * count_terms(n - 1 - left, free)
    return total


def count_up_to(max_size: int, free: int) -> int:
    return sum(count_terms(n, free) for n in range(1, max_size + 1))
