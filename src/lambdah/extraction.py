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
application whose operator spine ends in H; consequently every image has
one of exactly three shapes, classified by ``classify``.
"""

from __future__ import annotations

from enum import Enum

from .terms import (
    Abs,
    App,
    ConstH,
    HeadH,
    HeadRedex,
    HeadVar,
    Term,
    Tower,
    spine,
)


def extract(t: Term) -> Term:
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
    image = Abs(extract(t.body)) if t.__class__ is Abs else t
    for arg in reversed(args):
        image = App(image, extract(arg))
    return image


class EShape(Enum):
    """The three possible shapes of an extraction image.

    LAMBDA_H:          lam x1 .. xn. H            (bare H head, no arguments)
    LAMBDA_VAR_APPS:   lam x1 .. xn. x V1 .. Vk   (head variable)
    LAMBDA_REDEX_APPS: lam x1 .. xn. (lam x. U) V V1 .. Vk  (head beta redex)
    """

    LAMBDA_H = "lambda_h"
    LAMBDA_VAR_APPS = "lambda_var_apps"
    LAMBDA_REDEX_APPS = "lambda_redex_apps"


class ShapeViolation(Exception):
    """An alleged extraction image has an applied H at its head."""

    def __init__(self, t: Term):
        super().__init__(f"applied H at the head of an extraction image: {t!r}")
        self.term = t


def classify(image: Term) -> EShape:
    view = spine(image)
    match view.head:
        case HeadVar(_):
            return EShape.LAMBDA_VAR_APPS
        case HeadRedex(_, _):
            return EShape.LAMBDA_REDEX_APPS
        case HeadH():
            if view.args:
                raise ShapeViolation(image)
            return EShape.LAMBDA_H


def has_applied_h(t: Term) -> bool:
    """True if any application node's operator spine ends in H.

    Extraction images must answer False everywhere, not just at the
    root; H may survive extraction only in argument position.  An
    applied H is always the bottom of a tower, so this is whether t
    holds a tower.
    """
    todo = [t]
    while todo:
        t = todo.pop()
        while t.__class__ is App:
            todo.append(t.arg)
            t = t.fun
        cls = t.__class__
        if cls is Tower:
            return True
        if cls is Abs:
            todo.append(t.body)
    return False
