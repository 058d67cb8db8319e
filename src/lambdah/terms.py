"""Core syntax: lambda terms with a reserved head constant H.

Terms are nameless (de Bruijn indices).  ``Var(0)`` is the innermost
binder; free variables of a term taken in context ``k`` are the indices
``depth .. depth + k - 1`` at each occurrence.  Alpha equivalence is
therefore plain structural equality.

Every node carries ``fv``, fixed when it is built: one more than the
largest index free in it, or 0 if it is closed (``Var(i).fv == i + 1``,
``Abs(b).fv == max(b.fv - 1, 0)``, ``App(f, a).fv == max(f.fv, a.fv)``,
``H.fv == 0``).  ``fv`` is not part of a term's identity: equality,
hashing and repr ignore it.  Shifting and substitution read it to hand
back, by identity, every subterm they cannot change, so a closed value
is never copied.

The spine view decomposes a term as ``lam x1 .. xb. h a1 .. an`` where
the head ``h`` is a variable, the constant H, or a beta redex whose
operator is an abstraction.  Exactly one of the three cases applies, and
head normal forms are the terms whose head is a variable (any number of
arguments) or a bare H (no arguments at all: an applied H is work left
to do, not a result).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable


# ---------- term constructors ----------

# The constructors are hand-written ``__slots__`` classes rather than
# frozen dataclasses so that ``fv`` can be filled in at construction
# without a ``__post_init__`` pass.  Fields are set through the slot
# descriptors, which keeps the classes immutable at about the cost of a
# dataclass constructor.  Equality, hashing, repr and ``__match_args__``
# behave as a frozen dataclass's would; ``fv`` takes part in none of them.


class _Node:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Var(_Node):
    __slots__ = ("index", "fv")
    __match_args__ = ("index",)
    index: int
    fv: int

    def __init__(self, index: int) -> None:
        _set_var_index(self, index)
        _set_var_fv(self, index + 1)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))

    def __repr__(self) -> str:
        return f"Var(index={self.index!r})"

    def __reduce__(self):
        return Var, (self.index,)


class Abs(_Node):
    __slots__ = ("body", "fv")
    __match_args__ = ("body",)
    body: "Term"
    fv: int

    def __init__(self, body: "Term") -> None:
        _set_abs_body(self, body)
        fv = body.fv
        _set_abs_fv(self, fv - 1 if fv else 0)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            b, c = self.body, other.body
            return b is c or b == c
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.body,))

    def __repr__(self) -> str:
        return f"Abs(body={self.body!r})"

    def __reduce__(self):
        return Abs, (self.body,)


class App(_Node):
    __slots__ = ("fun", "arg", "fv")
    __match_args__ = ("fun", "arg")
    fun: "Term"
    arg: "Term"
    fv: int

    def __init__(self, fun: "Term", arg: "Term") -> None:
        _set_app_fun(self, fun)
        _set_app_arg(self, arg)
        f, a = fun.fv, arg.fv
        _set_app_fv(self, f if f > a else a)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            f, g, a, b = self.fun, other.fun, self.arg, other.arg
            return (f is g or f == g) and (a is b or a == b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.fun, self.arg))

    def __repr__(self) -> str:
        return f"App(fun={self.fun!r}, arg={self.arg!r})"

    def __reduce__(self):
        return App, (self.fun, self.arg)


class ConstH(_Node):
    __slots__ = ()
    __match_args__ = ()
    fv = 0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "ConstH()"

    def __reduce__(self):
        return ConstH, ()


_set_var_index = Var.index.__set__
_set_var_fv = Var.fv.__set__
_set_abs_body = Abs.body.__set__
_set_abs_fv = Abs.fv.__set__
_set_app_fun = App.fun.__set__
_set_app_arg = App.arg.__set__
_set_app_fv = App.fv.__set__


Term = Var | Abs | App | ConstH

H = ConstH()


def alpha_eq(a: Term, b: Term) -> bool:
    """Alpha equivalence; on nameless terms this is structural equality."""
    return a == b


def size(t: Term) -> int:
    """Node count: every constructor, including H, costs one.

    Iterative: the machines probe the size of intermediate states, which
    can be far deeper than the recursion limit allows.
    """
    n = 0
    todo = [t]
    while todo:
        node = todo.pop()
        n += 1
        cls = node.__class__
        if cls is App:
            todo.append(node.fun)
            todo.append(node.arg)
        elif cls is Abs:
            todo.append(node.body)
    return n


def max_free_index(t: Term, depth: int = 0) -> int:
    """Largest free index relative to ``depth``, or -1 if t is closed."""
    return max(t.fv - depth, 0) - 1


def is_closed(t: Term) -> bool:
    return t.fv == 0


# ---------- application spine helpers ----------


def app_head(t: Term) -> Term:
    """Base of the iterated application t = base a1 .. an (no binder stripping)."""
    while isinstance(t, App):
        t = t.fun
    return t


def unwind_app(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Split t into its application base and argument list, left to right."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, tuple(args)


def apply_args(t: Term, args: Iterable[Term]) -> Term:
    for a in args:
        t = App(t, a)
    return t


# ---------- spine view ----------


@dataclass(frozen=True, slots=True)
class HeadVar:
    index: int


@dataclass(frozen=True, slots=True)
class HeadH:
    pass


@dataclass(frozen=True, slots=True)
class HeadRedex:
    fun: Term  # always an Abs
    arg: Term


Head = HeadVar | HeadH | HeadRedex


@dataclass(frozen=True, slots=True)
class SpineView:
    binders: int
    head: Head
    args: tuple[Term, ...]


def spine(t: Term) -> SpineView:
    """Decompose t as lam^binders. head args.

    After stripping the leading binders the term cannot itself be an
    abstraction, so an Abs found at the base of the application walk is
    necessarily applied to at least one argument: that application is
    the head redex.
    """
    binders = 0
    while isinstance(t, Abs):
        binders += 1
        t = t.body
    base, args = unwind_app(t)
    head: Head
    if isinstance(base, Var):
        head = HeadVar(base.index)
    elif isinstance(base, ConstH):
        head = HeadH()
    else:
        head = HeadRedex(base, args[0])
        args = args[1:]
    return SpineView(binders, head, args)


def is_hnf(t: Term) -> bool:
    """Head normal form: head variable, or a bare H with no arguments."""
    view = spine(t)
    match view.head:
        case HeadVar(_):
            return True
        case HeadH():
            return not view.args
        case _:
            return False


# ---------- substitution ----------


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add ``by`` to every variable index >= cutoff (free at that depth).

    A subterm with no index at or above the cutoff comes back as itself.
    """
    # dispatch on the class: a class pattern in ``match`` costs several
    # times as much, and these two walks are the machines' inner loop
    if by == 0 or t.fv <= cutoff:
        return t
    cls = t.__class__
    if cls is App:
        return App(shift(t.fun, by, cutoff), shift(t.arg, by, cutoff))
    if cls is Abs:
        return Abs(shift(t.body, by, cutoff + 1))
    return Var(t.index + by)  # H is closed, so t is a variable


def _subst(t: Term, depth: int, value: Term) -> Term:
    # every index free in t is below the substituted one: nothing to
    # replace and nothing to decrement
    if t.fv <= depth:
        return t
    cls = t.__class__
    if cls is App:
        return App(_subst(t.fun, depth, value), _subst(t.arg, depth, value))
    if cls is Abs:
        return Abs(_subst(t.body, depth + 1, value))
    i = t.index  # H is closed, so t is a variable
    if i == depth:
        return shift(value, depth)
    # one binder disappears, so free indices above it slide down
    return Var(i - 1)


def substitute(body: Term, value: Term) -> Term:
    """Capture-avoiding beta substitution: body with its index 0 replaced.

    This is the contraction of ``App(Abs(body), value)``.  The value is
    shifted past every binder it is carried under, and the indices that
    pointed past the consumed binder are decremented.
    """
    return _subst(body, 0, value)


def subst_const_h(t: Term, m: Term) -> Term:
    """Replace every occurrence of the constant H by the closed term m."""
    if not is_closed(m):
        raise ValueError("replacement for H must be closed")

    def go(t: Term) -> Term:
        match t:
            case ConstH():
                return m
            case Abs(body):
                return Abs(go(body))
            case App(fun, arg):
                return App(go(fun), go(arg))
            case _:
                return t

    return go(t)
