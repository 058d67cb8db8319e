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

Every node also carries ``holds_tower``, fixed when it is built: True
iff a ``Tower`` (below) occurs in it (False for a variable and for H,
True for a tower, and for an abstraction or an application whatever
its children say).  In canonical form that is whether the term holds an
applied H, so extraction hands back every subterm without one by
identity, and an image holds no applied H exactly when the flag is
False.  Like ``fv`` it takes no part in equality, hashing or repr.

Every node also carries ``count``, fixed when it is built: its number
of expanded nodes, every constructor and every H counting one (1 for a
variable and for H, ``1 + body.count`` for an abstraction,
``1 + fun.count + arg.count`` for an application, and
``2 * height + base.count`` for a tower).  ``size`` reads it, and two
terms with different counts are not equal, which makes it the cheap
first test of a state comparison in ``machines.run``.  Like the other
two it takes no part in equality, hashing or repr.

An H-tower ``H (H (.. (H M)))`` is one ``Tower`` node that holds its
height and its base M.  The J reading of H builds such towers, and a
JT run can stack 2^k H's after k beta steps, so every layer handles a
tower at once rather than one H at a time.  The form is canonical:
``App(H, x)`` returns a tower (one level taller if x is one), so no
plain ``App`` has H as its operator and a tower's base is never a
tower.  ``Tower`` is a subclass of ``App`` whose ``fun`` is H and whose
``arg`` is the tower one lower, built on demand, so any walk through
``fun`` and ``arg`` (an ``isinstance(t, App)`` test included) sees the
expanded term.  ``fv``, equality and hashing stay structural, and
``size`` counts the expanded nodes, 2n + size(M) for a tower of height n.

``spine`` is the one unwinding of a term, ``lam x1 .. xb. h a1 .. an``,
shared by the machines and the checks (extraction has a loop of its
own).  The head ``h`` is a variable, a bare H, a tower (an applied H,
taken whole), or an abstraction with an argument waiting (a beta
redex); exactly one case applies.  Head normal forms are the terms
whose head is a variable (any number of arguments) or a bare H (no
arguments at all: an applied H is work left to do, not a result).

No walk over a term recurses.  Equality, hashing, shifting,
substitution and ``subst_const_h`` keep their work on explicit stacks,
so the depth of a term is bounded by memory, not by the recursion
limit.  Only ``repr`` and pickling, which Python drives by recursion,
are bounded by it.

The named combinators live here too: the identity ``I`` and ``J = Y G``,
the two closed terms that H reads as, with ``G``, ``Y`` and ``OMEGA``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Iterable


# ---------- term constructors ----------

# The constructors are hand-written ``__slots__`` classes rather than
# frozen dataclasses so that ``fv`` can be filled in at construction
# without a ``__post_init__`` pass.  Fields are set through the slot
# descriptors, which keeps the classes immutable at about the cost of a
# dataclass constructor.  Equality and hashing are structural, one walk
# each for every class; repr and ``__match_args__`` behave as a frozen
# dataclass's would.  ``fv``, ``holds_tower`` and ``count`` take part in
# none of them.


class _Node:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # both terms walked in step, pairs of subterms still to compare
        # on a stack: the operator of an application and the body of an
        # abstraction are taken at once, the argument later
        todo: list[Term] = []
        a, b = self, other
        while True:
            if a is not b:
                cls = a.__class__
                if cls is not b.__class__:
                    return False
                if cls is App:
                    todo.append(a.arg)
                    todo.append(b.arg)
                    a, b = a.fun, b.fun
                    continue
                if cls is Abs:
                    a, b = a.body, b.body
                    continue
                if cls is Tower:
                    if a.height != b.height:
                        return False
                    a, b = a.base, b.base
                    continue
                if cls is Var and a.index != b.index:
                    return False
            if not todo:
                return True
            b = todo.pop()
            a = todo.pop()

    def __hash__(self) -> int:
        # the hash of the term's pre-order spelling, one token per node
        # (two for a tower); every constructor has a fixed arity, so the
        # spelling determines the term
        tokens: list[int] = []
        todo: list[Term] = [self]
        while todo:
            t = todo.pop()
            cls = t.__class__
            if cls is App:
                tokens.append(-1)
                todo.append(t.arg)
                todo.append(t.fun)
            elif cls is Abs:
                tokens.append(-2)
                todo.append(t.body)
            elif cls is Var:
                tokens.append(t.index)
            elif cls is Tower:
                tokens.append(-3)
                tokens.append(t.height)
                todo.append(t.base)
            else:
                tokens.append(-4)
        return hash(tuple(tokens))


class Var(_Node):
    __slots__ = ("index", "fv")
    __match_args__ = ("index",)
    index: int
    fv: int

    holds_tower = False
    count = 1

    def __init__(self, index: int) -> None:
        _set_var_index(self, index)
        _set_var_fv(self, index + 1)

    def __repr__(self) -> str:
        return f"Var(index={self.index!r})"

    def __reduce__(self):
        return Var, (self.index,)


class Abs(_Node):
    __slots__ = ("body", "fv", "holds_tower", "count")
    __match_args__ = ("body",)
    body: "Term"
    fv: int
    holds_tower: bool
    count: int

    def __init__(self, body: "Term") -> None:
        _set_abs_body(self, body)
        fv = body.fv
        _set_abs_fv(self, fv - 1 if fv else 0)
        _set_abs_holds_tower(self, body.holds_tower)
        _set_abs_count(self, body.count + 1)

    def __repr__(self) -> str:
        return f"Abs(body={self.body!r})"

    def __reduce__(self):
        return Abs, (self.body,)


class ConstH(_Node):
    __slots__ = ()
    __match_args__ = ()
    fv = 0
    holds_tower = False
    count = 1

    def __repr__(self) -> str:
        return "ConstH()"

    def __reduce__(self):
        return ConstH, ()


H = ConstH()


class App(_Node):
    __slots__ = ("fun", "arg", "fv", "holds_tower", "count")
    __match_args__ = ("fun", "arg")
    fun: "Term"
    arg: "Term"
    fv: int
    holds_tower: bool
    count: int

    def __new__(cls, fun: "Term", arg: "Term") -> "App":
        # H applied to a term is a tower, one level taller if it is one
        if fun.__class__ is ConstH:
            if arg.__class__ is Tower:
                return _tower(arg.height + 1, arg.base)
            return _tower(1, arg)
        self = _new(cls)
        _set_app_fun(self, fun)
        _set_app_arg(self, arg)
        f, a = fun.fv, arg.fv
        _set_app_fv(self, f if f > a else a)
        _set_app_holds_tower(self, fun.holds_tower or arg.holds_tower)
        _set_app_count(self, fun.count + arg.count + 1)
        return self

    def __repr__(self) -> str:
        return f"App(fun={self.fun!r}, arg={self.arg!r})"

    def __reduce__(self):
        return App, (self.fun, self.arg)


class Tower(App):
    """``H (H (.. (H base)))`` with ``height`` H's, as one node.

    As an application a tower's ``fun`` is H and its ``arg`` is the
    tower one lower (the base at height 1), built on demand, so code
    that walks ``fun`` and ``arg`` sees the expanded term.  The base is
    never a tower.  ``Tower(n, m)`` is H^n m: m itself when n is 0, and
    a single taller tower when m is one.
    """

    __slots__ = ()
    __match_args__ = ("height", "base")
    # the height and the base live in the slots where an App keeps its
    # operator and argument, so a tower takes no more memory than an App
    height = App.fun
    base = App.arg
    fun = H
    holds_tower = True

    def __new__(cls, height: int, base: "Term") -> "Term":
        if height < 0:
            raise ValueError(f"negative tower height {height}")
        if base.__class__ is Tower:
            return _tower(height + base.height, base.base)
        return _tower(height, base) if height else base

    @property
    def arg(self) -> "Term":
        n = self.height - 1
        return _tower(n, self.base) if n else self.base

    def __repr__(self) -> str:
        return f"Tower(height={self.height!r}, base={self.base!r})"

    def __reduce__(self):
        return Tower, (self.height, self.base)


_set_var_index = Var.index.__set__
_set_var_fv = Var.fv.__set__
_set_abs_body = Abs.body.__set__
_set_abs_fv = Abs.fv.__set__
_set_abs_holds_tower = Abs.holds_tower.__set__
_set_abs_count = Abs.count.__set__
_set_app_fun = App.fun.__set__
_set_app_arg = App.arg.__set__
_set_app_fv = App.fv.__set__
_set_app_holds_tower = App.holds_tower.__set__
_set_app_count = App.count.__set__
_new = object.__new__


def _tower(height: int, base: "Term") -> Tower:
    # a tower from a height of at least 1 and a base that is not a tower
    t = _new(Tower)
    _set_app_fun(t, height)  # Tower.height
    _set_app_arg(t, base)  # Tower.base
    _set_app_fv(t, base.fv)
    _set_app_count(t, 2 * height + base.count)
    return t


Term = Var | Abs | App | ConstH


def size(t: Term) -> int:
    """Node count: every constructor, including H, costs one, and a
    tower counts as the applications and H's it stands for.  A read of
    the node's ``count``."""
    return t.count


# ---------- the spine ----------


def spine(
    t: Term, binders: int = 0, args: list[Term] | None = None
) -> tuple[int, Term, list[Term]]:
    """Unwind t as ``lam^binders. head a1 .. an``.

    The head is a variable, a bare H, a ``Tower`` (an applied H: its base
    is the first argument of its bottom H), or an abstraction with an
    argument waiting: a beta redex.  ``args`` holds a1 .. an with a1
    last, on top, the way a machine keeps its stack.  A tower is one
    head, not unwound H by H.

    To settle a new head into a machine's state, pass the state's
    binder count and argument stack: the head's own applications are
    pushed onto that list, a binder is stripped only while no argument
    waits, and an H with an argument waiting becomes a tower.
    """
    if args is None:
        args = []
    while True:
        cls = t.__class__
        if cls is App:
            args.append(t.arg)
            t = t.fun
        elif cls is Abs and not args:
            binders += 1
            t = t.body
        elif cls is ConstH and args:
            t = App(H, args.pop())
        else:
            return binders, t, args


def apply_args(t: Term, args: Iterable[Term]) -> Term:
    for a in args:
        t = App(t, a)
    return t


# ---------- substitution ----------


def shift(t: Term, by: int) -> Term:
    """Add ``by`` to every free variable index.

    A subterm with no free index comes back as itself.
    """
    if by == 0 or t.fv == 0:
        return t
    return _rebuild(t, by, None)


def substitute(body: Term, value: Term) -> Term:
    """Capture-avoiding beta substitution: body with its index 0 replaced.

    This is the contraction of ``App(Abs(body), value)``.  The value is
    shifted past every binder it is carried under, and the indices that
    pointed past the consumed binder are decremented.  A subterm whose
    free indices all lie below the binders around it holds neither the
    replaced index nor one to decrement, and comes back as itself.
    """
    if body.fv == 0:
        return body
    if body.__class__ is Var:
        i = body.index
        return value if i == 0 else Var(i - 1)
    return _rebuild(body, -1, value)


# rebuild markers on the work stack of ``_rebuild``
_APP = object()  # an application, from its two rebuilt children
_ABS = object()  # an abstraction, from its rebuilt body; leaves a binder


def _rebuild(t: Term, by: int, value: Term | None) -> Term:
    # The one walk behind ``shift`` and ``substitute``.  ``depth`` counts
    # the binders crossed, and an index below it is left alone.  With no
    # ``value`` every other index moves by ``by``.  With one (a
    # substitution), index ``depth`` becomes the value shifted past the
    # binders crossed, and the indices above it move by ``by``, -1 for
    # the consumed binder.  A subterm with every free index below
    # ``depth`` comes back as itself.  The walk descends through
    # operators and bodies without pushing them; the stack holds the
    # arguments still to visit and the markers of the nodes to rebuild,
    # a tower's marker being its height.  Rebuilt subterms wait in
    # ``done`` for their parent.
    done: list[Term] = []
    todo: list = []
    depth = 0
    while True:
        if t.fv <= depth:
            done.append(t)
        else:
            cls = t.__class__
            if cls is App:
                todo.append(_APP)
                todo.append(t.arg)
                t = t.fun
                continue
            if cls is Abs:
                todo.append(_ABS)
                depth += 1
                t = t.body
                continue
            if cls is Tower:
                todo.append(t.height)
                t = t.base
                continue
            i = t.index  # H is closed, so t is a variable
            if value is not None and i == depth:
                done.append(shift(value, depth))
            else:
                done.append(Var(i + by))
        while todo:
            t = todo.pop()
            if t is _APP:
                arg = done.pop()
                done[-1] = App(done[-1], arg)
            elif t is _ABS:
                depth -= 1
                done[-1] = Abs(done[-1])
            elif t.__class__ is int:
                done[-1] = Tower(t, done[-1])
            else:
                break
        else:
            return done[0]


def subst_const_h(t: Term, m: Term) -> Term:
    """Replace every occurrence of the constant H by the closed term m.

    A subterm without H comes back as itself.
    """
    if m.fv:
        raise ValueError("replacement for H must be closed")
    done: list[Term] = []  # replaced subterms not yet taken by their parent
    # Work, next item last: a term to replace, or an App, Abs or Tower in
    # a 1-tuple, to rebuild from its replaced children at the end of done.
    todo: list = [t]
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is App:
            todo += ((x,), x.arg, x.fun)
        elif cls is Abs:
            todo += ((x,), x.body)
        elif cls is ConstH:
            done.append(m)
        elif cls is Var:
            done.append(x)
        elif cls is Tower:
            todo += ((x,), x.base)
        else:
            x = x[0]
            cls = x.__class__
            if cls is App:
                a = done.pop()
                f = done.pop()
                if f is not x.fun or a is not x.arg:
                    x = App(f, a)
            elif cls is Abs:
                b = done.pop()
                if b is not x.body:
                    x = Abs(b)
            else:  # a tower: each of its H's becomes an m
                b = done.pop()
                for _ in range(x.height):
                    b = App(m, b)
                x = b
            done.append(x)
    return done[0]


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
