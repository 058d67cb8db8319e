"""Core term tests: spine views, hnf, substitution, H replacement."""

import pickle
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdah.extraction import extract, has_applied_h
from lambdah.gen import enumerate_terms
from lambdah.machines import Hnf, Strategy, run
from lambdah.syntax import format_term, parse_term
from lambdah.terms import (
    Abs,
    App,
    H,
    HeadH,
    HeadRedex,
    HeadVar,
    SpineView,
    Tower,
    Var,
    alpha_eq,
    is_closed,
    is_hnf,
    max_free_index,
    shift,
    size,
    spine,
    subst_const_h,
    substitute,
)
from oracles import oracle_substitute, recompose


def term(text, frees=None):
    return parse_term(text, free_vars=frees)[0]


# ---------- spine views ----------


def test_spine_of_abstraction_with_head_variable():
    # \x.x y with y free: one binder, head is the bound x, one argument
    view = spine(term("\\x.x y"))
    assert view.binders == 1
    assert view.head == HeadVar(0)
    assert view.args == (Var(1),)


def test_spine_of_bare_h_under_binder():
    view = spine(term("\\x.H"))
    assert view.binders == 1
    assert view.head == HeadH()
    assert view.args == ()


def test_spine_of_applied_h():
    view = spine(term("H x"))
    assert view.binders == 0
    assert view.head == HeadH()
    assert view.args == (Var(0),)


def test_spine_of_head_redex():
    view = spine(term("(\\x.x) y"))
    assert view.binders == 0
    assert view.head == HeadRedex(Abs(Var(0)), Var(0))
    assert view.args == ()


def test_spine_head_redex_fun_is_always_an_abstraction():
    for t in enumerate_terms(6, free_vars=1):
        head = spine(t).head
        assert isinstance(head, (HeadVar, HeadH, HeadRedex))
        if isinstance(head, HeadRedex):
            assert isinstance(head.fun, Abs)


def test_recompose_inverts_spine_on_enumerated_terms():
    for t in enumerate_terms(6, free_vars=1):
        assert recompose(spine(t)) == t


# ---------- head normal forms ----------


def test_head_variable_with_arguments_is_hnf():
    assert is_hnf(term("\\x.x y"))


def test_bare_h_is_hnf():
    assert is_hnf(H)
    assert is_hnf(term("\\x.H"))


def test_applied_h_is_not_hnf():
    # there is still an i/j-step to take, so this is not a result
    assert not is_hnf(term("\\x.H x"))
    assert not is_hnf(term("H x"))


def test_head_redex_is_not_hnf():
    assert not is_hnf(term("(\\x.x) y"))


# ---------- alpha equivalence ----------


def test_alpha_eq_ignores_binder_names():
    assert alpha_eq(term("\\x.x"), term("\\y.y"))


def test_alpha_eq_distinguishes_different_bindings():
    assert not alpha_eq(term("\\x y.x"), term("\\x y.y"))


def test_alpha_eq_is_an_equivalence_on_small_terms():
    # structural equality on nameless terms: reflexive by construction,
    # and distinct enumerated terms are never identified
    terms = list(enumerate_terms(4, free_vars=1))
    for t in terms:
        assert alpha_eq(t, t)
    assert len({t for t in terms}) == len(terms)


# ---------- substitution ----------


def test_substitute_free_variable_under_binder():
    # contracting (\x.\y.x) z: the free z must not be captured by y,
    # so under the remaining binder it appears as index 1
    redex = term("(\\x.\\y.x) z")
    assert redex == App(Abs(Abs(Var(1))), Var(0))
    assert substitute(Abs(Var(1)), Var(0)) == Abs(Var(1))


def test_substitute_duplicates_argument():
    # (\x.x x) y -> y y
    assert substitute(App(Var(0), Var(0)), Var(3)) == App(Var(3), Var(3))


def test_substitute_drops_vanished_binder_index():
    # body \z.w with w pointing past both binders: after the outer
    # binder is consumed the index slides down by one
    body = Abs(Var(2))
    assert substitute(body, H) == Abs(Var(1))


def _redexes(t):
    match t:
        case App(Abs(body), value):
            yield body, value
    match t:
        case App(fun, arg):
            yield from _redexes(fun)
            yield from _redexes(arg)
        case Abs(body):
            yield from _redexes(body)


def test_substitute_matches_named_oracle_on_enumerated_redexes():
    checked = 0
    for t in enumerate_terms(7):
        for body, value in _redexes(t):
            assert substitute(body, value) == oracle_substitute(body, value)
            checked += 1
    assert checked > 300


def test_substitute_matches_named_oracle_on_open_redexes():
    # open values must be shifted under binders, and free indices of the
    # body above the consumed binder must slide down by one
    checked = open_values = decremented = 0
    for t in enumerate_terms(7, free_vars=2):
        for body, value in _redexes(t):
            assert substitute(body, value) == oracle_substitute(body, value)
            checked += 1
            open_values += not is_closed(value)
            decremented += max_free_index(body) > 0
    assert checked > 1000
    assert open_values > 500
    assert decremented > 500


def test_shift_only_touches_free_indices():
    t = Abs(App(Var(0), Var(1)))
    assert shift(t, 2) == Abs(App(Var(0), Var(3)))


# ---------- replacing the constant ----------


def test_subst_const_h_replaces_every_occurrence():
    identity = Abs(Var(0))
    assert subst_const_h(term("H x"), identity) == App(identity, Var(0))
    assert subst_const_h(term("\\x.x"), identity) == Abs(Var(0))
    assert subst_const_h(term("H (H y)"), identity) == App(
        identity, App(identity, Var(0))
    )


def test_subst_const_h_rejects_open_replacement():
    with pytest.raises(ValueError):
        subst_const_h(H, Var(0))


def test_subst_const_h_returns_h_free_subterms_as_they_are():
    identity = Abs(Var(0))
    t = term("\\x.x (\\y.y x) (H z)")
    out = subst_const_h(t, identity)
    assert out == term("\\x.x (\\y.y x) ((\\y.y) z)")
    assert out.body.fun is t.body.fun  # x (\y.y x) holds no H
    assert out.body.arg.arg is t.body.arg.arg
    closed = term("\\x.x x")
    assert subst_const_h(closed, identity) is closed


def test_subst_const_h_walks_a_tall_tower_without_recursion():
    n = 100_000
    tower = term("H (" * (n - 1) + "H x" + ")" * (n - 1))
    identity = Abs(Var(0))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = subst_const_h(tower, identity)
    finally:
        sys.setrecursionlimit(saved)
    # walk the result down: term equality itself recurses
    for _ in range(n):
        assert out.__class__ is App and out.fun is identity
        out = out.arg
    assert out == Var(0)


# ---------- H-towers ----------


def test_h_applied_to_a_term_is_a_tower():
    x = Var(0)
    one = App(H, x)
    assert one.__class__ is Tower
    assert (one.height, one.base) == (1, x)
    two = App(H, one)
    assert two == Tower(2, x)
    assert two.base is x
    assert Tower(3, two) == Tower(5, x)
    assert Tower(0, x) is x
    assert App(x, H).__class__ is App  # H as an argument stacks nothing
    assert App(H, H) == Tower(1, H)
    with pytest.raises(ValueError):
        Tower(-1, x)


def test_a_tower_is_seen_as_the_applications_it_stands_for():
    t = term("H (H (\\y.y x))")
    base = Abs(App(Var(0), Var(1)))
    assert t == Tower(2, base)
    match t:
        case App(fun, arg):
            assert fun is H
            assert arg == Tower(1, base)
    assert t.arg.arg is t.base
    assert spine(t) == SpineView(0, HeadH(), (Tower(1, base),))
    assert size(t) == 4 + size(base)
    assert t.fv == 1
    assert t != Tower(1, base) and t != base
    assert repr(t) == (
        "Tower(height=2, base=Abs(body=App(fun=Var(index=0), arg=Var(index=1))))"
    )
    assert pickle.loads(pickle.dumps(t)) == t
    with pytest.raises(FrozenInstanceError):
        t.height = 3


def test_shift_and_substitute_keep_towers_canonical():
    t = Tower(2, Var(0))
    assert shift(t, 3) == Tower(2, Var(3))
    # a tower substituted at the base of a tower makes one taller tower
    assert substitute(t, Tower(3, Var(4))) == Tower(5, Var(4))
    # H substituted in operator position starts a tower
    assert substitute(App(Var(0), Tower(2, Var(1))), H) == Tower(3, Var(0))
    assert subst_const_h(t, Abs(Var(0))) == App(Abs(Var(0)), App(Abs(Var(0)), Var(0)))


def test_tall_towers_pass_every_layer_without_recursion():
    # two distinct but equal towers 100,000 high, taken through every
    # layer at the default recursion limit
    n = 100_000
    text = "H (" * (n - 1) + "H x" + ")" * (n - 1)
    a, b = term(text), term(text)
    x, y = Var(0), Var(1)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert a is not b
        assert a == b and alpha_eq(a, b)
        assert hash(a) == hash(b)
        assert a != Tower(n - 1, x)
        assert format_term(a, ("x",)) == text
        assert extract(a) == x
        assert has_applied_h(a)
        assert size(a) == 2 * n + 1
        assert shift(a, 2) == Tower(n, Var(2))
        assert substitute(a, b) == Tower(2 * n, x)
        budget = 10 * n
        for strategy in (Strategy.IT, Strategy.JT, Strategy.PURE_I, Strategy.PURE_J):
            assert run(a, strategy, 1, max_state=budget) == Hnf(x, 0, n)
        applied = App(a, y)
        assert run(applied, Strategy.IT, 1, max_state=budget) == Hnf(App(x, y), 0, n)
        assert run(applied, Strategy.JT, 1, max_state=budget) == Hnf(
            App(x, Tower(n, y)), 0, n
        )
    finally:
        sys.setrecursionlimit(saved)


# ---------- sizes and scoping ----------


def test_size_counts_every_constructor():
    assert size(H) == 1
    assert size(term("\\x.x")) == 2
    assert size(term("H x y")) == 5


def test_scoping_helpers():
    assert is_closed(term("\\x.x"))
    assert not is_closed(term("x y"))
    assert max_free_index(term("x y")) == 1
    assert term("x y").fv <= 2
    assert not term("x y").fv <= 1
    for t in enumerate_terms(5, free_vars=2):
        assert t.fv <= 2


# ---------- the free-index bound ----------


def reference_fv(t, depth=0):
    """One more than the largest index free in t below ``depth`` binders."""
    match t:
        case Var(i):
            return i - depth + 1 if i >= depth else 0
        case Abs(body):
            return reference_fv(body, depth + 1)
        case App(fun, arg):
            return max(reference_fv(fun, depth), reference_fv(arg, depth))
        case _:
            return 0


leaves = st.one_of(st.just(H), st.builds(Var, st.integers(0, 5)))


@st.composite
def deep_terms(draw):
    # a long chain of binders and applications around a single spine
    t = draw(leaves)
    for step in draw(st.lists(st.sampled_from("bfa"), max_size=800)):
        if step == "b":
            t = Abs(t)
        elif step == "f":
            t = App(t, draw(leaves))
        else:
            t = App(draw(leaves), t)
    return t


wide_terms = st.recursive(
    leaves,
    lambda sub: st.one_of(st.builds(Abs, sub), st.builds(App, sub, sub)),
    max_leaves=200,
)


def test_fv_matches_reference_on_enumerated_terms():
    for t in enumerate_terms(7, free_vars=2):
        assert t.fv == reference_fv(t)


@settings(max_examples=200, deadline=None)
@given(st.one_of(deep_terms(), wide_terms))
def test_fv_matches_reference_on_drawn_terms(t):
    assert t.fv == reference_fv(t)
    assert max_free_index(t) == reference_fv(t) - 1
    assert is_closed(t) == (reference_fv(t) == 0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(deep_terms(), wide_terms), st.integers(0, 3), st.integers(0, 3))
def test_shift_keeps_fv_consistent(t, by, cutoff):
    shifted = shift(t, by, cutoff)
    assert shifted.fv == reference_fv(shifted)
    if reference_fv(t) <= cutoff:
        assert shifted is t


def test_shift_returns_closed_terms_unchanged():
    for t in enumerate_terms(6):
        for by in (0, 1, 3):
            assert shift(t, by) is t


def test_substitute_holds_a_closed_value_by_identity():
    value = term("\\x y.x")
    # \z.x (x z): the value is carried under one binder and used twice
    body = Abs(App(Var(1), App(Var(1), Var(0))))
    result = substitute(body, value)
    assert result == Abs(App(value, App(value, Var(0))))
    assert result.body.fun is value
    assert result.body.arg.fun is value


def test_substitute_returns_untouched_subterms_by_identity():
    # a subterm whose free indices all stay below the depth it sits at
    # holds neither the substituted index nor one to decrement
    value = Var(2)
    for t in enumerate_terms(5, free_vars=3):
        body = t
        for depth in range(4):
            result = substitute(body, value)
            inner = result
            for _ in range(depth):
                inner = inner.body
            if t.fv <= depth:
                assert inner is t
            body = Abs(body)


def test_fv_is_not_part_of_identity():
    t = term("\\x.x y")
    assert t == Abs(App(Var(0), Var(1)))
    assert hash(t) == hash(Abs(App(Var(0), Var(1))))
    assert repr(t) == "Abs(body=App(fun=Var(index=0), arg=Var(index=1)))"
    assert repr(H) == "ConstH()"


def test_terms_are_immutable_and_pickle():
    t = App(Var(0), H)
    with pytest.raises(FrozenInstanceError):
        t.fv = 5
    with pytest.raises(FrozenInstanceError):
        t.fun = H
    with pytest.raises(FrozenInstanceError):
        del t.arg
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t
    assert copy.fv == 1
