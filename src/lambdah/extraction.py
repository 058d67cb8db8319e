"""Extraction: erase the head constant H from operator position.

``extract`` is the homomorphic map that deletes every H standing at the
head of an iterated application::

    E(x)            = x
    E(H)            = H
    E(lam x. U)     = lam x. E(U)
    E(U V)          = E(U) E(V)        if the application head of U V is not H
    E(H U1 .. Un)   = E(U1 U2 .. Un)   for n >= 1

The side condition is decided on the application spine only: binders are
never stripped while looking for the head, so a bare H (no arguments) is
kept while an applied H disappears and its first argument takes over as
operator.  The map is idempotent, and its image never contains an
application whose operator spine ends in H, so the head ``spine`` finds
in an image is a variable, an abstraction or a bare H, never a tower.
"""

from __future__ import annotations

from .terms import Abs, App, ConstH, Term, Tower
# unused here, but kept as the name the benchmark's tracer patches
from .terms import spine  # noqa: F401


# the rebuild marker of an abstraction on the work stack of ``extract``
_ABS = object()


def extract(t: Term) -> Term:
    """The extraction image of t.  A subterm that holds no tower, so no
    applied H, is its own image and comes back as itself."""
    if not t.holds_tower:
        return t
    done: list[Term] = []  # images not yet taken by their parent
    # Work, next item last: a subterm to extract, the marker of an
    # abstraction to rebuild from the image of its body, or the number
    # of arguments an image spine takes from ``done`` behind its head.
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t is _ABS:
            done[-1] = Abs(done[-1])
        elif t.__class__ is int:
            n = len(done) - t
            image = done[n - 1]
            for arg in done[n:]:
                image = App(image, arg)
            del done[n:]
            done[-1] = image
        elif not t.holds_tower:
            done.append(t)
        elif t.__class__ is Abs:
            todo.append(_ABS)
            todo.append(t.body)
        else:
            args: list[Term] = []  # the spine's arguments, the first on top
            while True:
                while t.__class__ is App:
                    args.append(t.arg)
                    t = t.fun
                cls = t.__class__
                if cls is Tower:
                    # H^n U1 U2 .. Un: all n H's go at once, and U1 takes over
                    t = t.base
                elif cls is ConstH and args:
                    # H U1 .. Un with n >= 1, where H was the base of a tower
                    t = args.pop()
                else:
                    break
            # the head's image first, then the arguments' from the first
            if args:
                todo.append(len(args))
                todo += args
            todo.append(t)
    return done[0]
