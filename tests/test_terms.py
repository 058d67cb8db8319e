"""Core term tests: the spine, hnf, substitution, H replacement."""

import pickle
import random
import sys
from dataclasses import FrozenInstanceError
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdah.equivalence import LockstepVerdict, lockstep, theorem_check
from lambdah.extraction import extract
from lambdah.gen import enumerate_terms, term_stream, wrap_applied_h
from lambdah.machines import Hnf, Strategy, run, t_step
from lambdah.syntax import format_term, parse_term
from lambdah.terms import (
    Abs,
    App,
    ConstH,
    H,
    Tower,
    Var,
    shift,
    size,
    spine,
    subst_const_h,
    substitute,
)
from oracles import (
    count_terms,
    decompose,
    gen_weights,
    node_count,
    oracle_substitute,
    recompose,
    recursive_extract,
    recursive_shift,
    recursive_substitute,
    reference_run,
    state_budget,
)


def term(text, frees=None):
    return parse_term(text, free_vars=frees)[0]


@pytest.fixture
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


# ---------- the spine ----------


def test_spine_of_abstraction_with_head_variable():
    # \x.x y with y free: one binder, head is the bound x, one argument
    assert spine(term("\\x.x y")) == (1, Var(0), [Var(1)])


def test_spine_of_bare_h_under_binder():
    assert spine(term("\\x.H")) == (1, H, [])


def test_spine_of_applied_h():
    # an applied H is one head, a tower whose base is its first argument
    assert spine(term("H x")) == (0, Tower(1, Var(0)), [])
    assert spine(term("H (H x) y z")) == (0, Tower(2, Var(0)), [Var(2), Var(1)])


def test_spine_of_head_redex():
    # the redex's argument is the first argument, on top of the stack
    assert spine(term("(\\x.x) y")) == (0, Abs(Var(0)), [Var(0)])
    assert spine(term("(\\x.x) y z")) == (0, Abs(Var(0)), [Var(1), Var(0)])


def test_spine_head_redex_fun_is_always_an_abstraction():
    for t in enumerate_terms(6, free_vars=1):
        _, head, args = spine(t)
        assert head.__class__ in (Var, ConstH, Tower, Abs)
        if head.__class__ is Abs:
            assert args  # a beta redex
        if head.__class__ is ConstH:
            assert not args  # a bare H


def test_recompose_inverts_spine_on_enumerated_terms():
    for t in enumerate_terms(6, free_vars=1):
        assert recompose(*spine(t)) == t


def as_decomposed(binders, head, args):
    """``spine``'s answer as ``decompose`` reads a term: arguments left
    to right, a tower at the head taken as its bottom H."""
    args = args[::-1]
    if head.__class__ is Tower:
        return binders, H, [head.arg] + args
    return binders, head, args


def test_spine_agrees_with_the_oracle_decomposition():
    checked = 0
    for t in enumerate_terms(7, free_vars=2):
        assert as_decomposed(*spine(t)) == decompose(t), t
        checked += 1
    assert checked == sum(count_terms(n, 2) for n in range(1, 8))
    for n in (1, 2, 1000):
        for base in (Var(0), Abs(Var(0)), App(Var(1), Var(0))):
            for t in (
                Tower(n, base),
                App(App(Tower(n, base), Var(1)), Tower(n, Var(2))),
                Abs(Abs(App(Tower(n, base), H))),
            ):
                assert as_decomposed(*spine(t)) == decompose(t), (n, t)
                assert recompose(*spine(t)) == t


def test_spine_settles_a_new_head_over_a_stack():
    # the machine's use: binders and arguments already unwound are passed
    # in, and the new head's applications go on top of them
    stack = [Var(3)]
    assert spine(App(Var(0), Var(1)), 2, stack) == (2, Var(0), [Var(3), Var(1)])
    # a binder is not stripped while an argument waits: that is a redex
    assert spine(Abs(Var(0)), 1, [Var(2)]) == (1, Abs(Var(0)), [Var(2)])
    assert spine(Abs(Var(0)), 1, []) == (2, Var(0), [])
    # an H with an argument waiting becomes a tower, one taller if the
    # argument is one
    assert spine(H, 0, [Var(0), Tower(2, Var(1))]) == (0, Tower(3, Var(1)), [Var(0)])
    assert spine(H, 0, []) == (0, H, [])


# ---------- head normal forms ----------


def is_hnf(t):
    # a head normal form: the IT machine has no step to take from it
    return run(t, Strategy.IT, 0) == Hnf(t, 0, 0)


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
    assert term("\\x.x") == term("\\y.y")


def test_alpha_eq_distinguishes_different_bindings():
    assert term("\\x y.x") != term("\\x y.y")


def test_alpha_eq_is_an_equivalence_on_small_terms():
    # structural equality on nameless terms: reflexive by construction,
    # and distinct enumerated terms are never identified
    terms = list(enumerate_terms(4, free_vars=1))
    for t in terms:
        assert t == t
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
            open_values += value.fv > 0
            decremented += body.fv > 1
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


def test_subst_const_h_walks_a_tall_tower_without_recursion(default_recursion_limit):
    n = 100_000
    tower = term("H (" * (n - 1) + "H x" + ")" * (n - 1))
    identity = Abs(Var(0))
    expected = Var(0)
    for _ in range(n):
        expected = App(identity, expected)
    assert subst_const_h(tower, identity) == expected


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
    assert spine(t) == (0, t, [])
    assert decompose(t) == (0, H, [Tower(1, base)])
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


# ---------- deep terms ----------

DEPTH = 100_000
NAMES = ("x", "y", "z")

# Five shapes 100,000 levels deep, as functions of the spelling of the
# free variable x: substituting M for x in the shape is the shape at M.
DEEP_SHAPES = {
    "tower": lambda x: "H (" * (DEPTH - 1) + f"H {x}" + ")" * (DEPTH - 1),
    "right-nested-application": (
        lambda x: f"{x} (" * (DEPTH - 1) + f"{x} y" + ")" * (DEPTH - 1)
    ),
    "left-nested-application": lambda x: x + " y" * DEPTH,
    "nested-binders": (
        lambda x: "".join(f"\\v{i}." for i in range(DEPTH)) + f"v0 {x}"
    ),
    "deep-redex": (
        lambda x: "(\\w." + "w (" * (DEPTH - 1) + f"w {x}" + ")" * (DEPTH - 1)
        + ") (\\v.v)"
    ),
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_deep_terms_pass_every_layer_without_recursion(
    shape, default_recursion_limit, monkeypatch
):
    spell = DEEP_SHAPES[shape]
    text = spell("x")
    a = term(text, NAMES)
    b = term(format_term(a, NAMES), NAMES)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    # shifting adds free variables in front of the context, and
    # substituting for x spells the shape with the value for x
    assert shift(a, 2) == term(text, ("p", "q") + NAMES)
    assert shift(a, 1) != a
    with_h = substitute(a, H)
    assert with_h == term(spell("H"), NAMES[1:])

    assert a.holds_tower == (shape == "tower")
    if shape == "tower":
        assert extract(a) == Var(0)
    else:
        assert extract(a) is a
    image = extract(with_h)
    assert not image.holds_tower and extract(image) is image

    assert t_step(App(Abs(a), H)) == with_h
    outcomes = {}
    for strategy in Strategy:
        outcomes[strategy] = run(a, strategy, 2)
        assert outcomes[strategy] == reference_run(a, strategy, 2)
    report = lockstep(a, 2)
    assert all(cp.equal for cp in report.checkpoints)
    assert report.verdict in (LockstepVerdict.BOTH_HNF, LockstepVerdict.BOTH_RUNNING)
    assert report.step is None
    # the row's two substituted sides run without recursion too; at J's
    # full share of the fuel the tower's U[J/H] side, J nested 100,000
    # deep, would take 38 more beta steps over that nesting for nothing
    # this test asserts
    monkeypatch.setattr("lambdah.equivalence._J_FUEL_RATIO", 1)
    theorem_check(a, 2)
    if shape == "tower":
        x, y = Var(0), Var(1)
        assert size(a) == 2 * DEPTH + 1
        assert substitute(a, b) == Tower(2 * DEPTH, x)
        # bursts as tall as the tower, each in one contraction
        with state_budget(10 * DEPTH):
            # at fuel 0 they are the pure I and J runs
            for strategy in (Strategy.IT, Strategy.JT):
                for fuel in (0, 1):
                    assert run(a, strategy, fuel) == Hnf(x, 0, DEPTH)
            applied = App(a, y)
            assert run(applied, Strategy.IT, 1) == Hnf(App(x, y), 0, DEPTH)
            assert run(applied, Strategy.JT, 1) == Hnf(
                App(x, Tower(DEPTH, y)), 0, DEPTH
            )


# ---------- sizes and scoping ----------


def test_size_counts_every_constructor():
    assert size(H) == 1
    assert size(term("\\x.x")) == 2
    assert size(term("H x y")) == 5


def test_the_node_count_matches_a_walking_count():
    for t in enumerate_terms(7, free_vars=2):
        assert t.count == size(t) == node_count(t)
    for t in wrapped_terms():
        for height in (0, 1, 2, 40):
            towered = Tower(height, t)
            assert all(s.count == node_count(s) for s in subterms(towered))
            assert size(towered) == node_count(towered)


def test_the_node_count_of_a_tall_tower_is_read_not_walked():
    base = term("\\x.x y")
    t = App(Tower(2**61, base), Var(0))
    assert Tower(2**61, base).count == 2**62 + size(base)
    assert size(t) == 2**62 + size(base) + 2


def test_the_node_count_is_frozen_and_survives_pickling():
    for t in (Var(3), H, term("\\x.x y"), term("H (H (x H))"), Tower(2**61, H)):
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and copy.count == t.count
        with pytest.raises(FrozenInstanceError):
            t.count = 7


def test_scoping_helpers():
    assert term("\\x.x").fv == 0
    assert term("x y").fv == 2
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


@settings(max_examples=200, deadline=None)
@given(st.one_of(deep_terms(), wide_terms), st.integers(0, 3))
def test_shift_keeps_fv_consistent(t, by):
    shifted = shift(t, by)
    assert shifted.fv == reference_fv(shifted)
    if reference_fv(t) == 0:
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


# ---------- the tower flag and the walks, against recursive references ----------


def reference_holds_tower(t):
    match t:
        case Tower():
            return True
        case Abs(body):
            return reference_holds_tower(body)
        case App(fun, arg):
            return reference_holds_tower(fun) or reference_holds_tower(arg)
        case _:
            return False


def subterms(t):
    # every subterm, a tower's base but not the lower towers it stands for
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        if t.__class__ is App:
            todo += (t.fun, t.arg)
        elif t.__class__ is Abs:
            todo.append(t.body)
        elif t.__class__ is Tower:
            todo.append(t.base)


def assert_same_result(ours, reference, *sources):
    """``ours`` equals ``reference``, and where either holds a subterm of
    the sources by identity, the other holds that same object."""
    assert ours == reference
    originals = {id(s) for source in sources for s in subterms(source)}
    todo = [(ours, reference)]
    while todo:
        x, y = todo.pop()
        if id(x) in originals or id(y) in originals:
            assert x is y
        elif x.__class__ is App:
            todo += ((x.fun, y.fun), (x.arg, y.arg))
        elif x.__class__ is Abs:
            todo.append((x.body, y.body))
        elif x.__class__ is Tower:
            todo.append((x.base, y.base))


def wrapped_terms(count=400):
    rng = random.Random(5)
    stream = term_stream(5, 24, free_vars=2)
    with gen_weights(density=0.4):
        return [wrap_applied_h(t, rng) for t in islice(stream, count)]


SHIFTS = (1, 2, 3)
VALUES = (Var(2), Abs(Var(0)), App(Var(1), Tower(2, Var(0))))


def assert_walks_match_the_references(t):
    assert t.holds_tower == reference_holds_tower(t)
    image = extract(t)
    assert image == recursive_extract(t)
    if not t.holds_tower:
        assert image is t
    for by in SHIFTS:
        assert_same_result(shift(t, by), recursive_shift(t, by), t)
    for value in VALUES:
        ours = substitute(t, value)
        assert_same_result(ours, recursive_substitute(t, value), t, value)


def test_walks_match_the_references_on_enumerated_terms():
    for t in enumerate_terms(7, free_vars=2):
        assert_walks_match_the_references(t)


def test_walks_match_the_references_on_wrapped_terms():
    for t in wrapped_terms():
        assert_walks_match_the_references(t)


@settings(max_examples=200, deadline=None)
@given(st.one_of(deep_terms(), wide_terms))
def test_walks_match_the_references_on_drawn_terms(t):
    assert_walks_match_the_references(t)


@st.composite
def repeated_terms(draw):
    # a short pattern of binders, applications and H wrappers repeated
    # until the term is deeper than the recursion limit allows a walk
    steps = st.tuples(st.sampled_from("bfah"), leaves)
    pattern = draw(st.lists(steps, min_size=1, max_size=6))
    t = draw(leaves)
    for _ in range(draw(st.integers(1000, 3000))):
        for step, leaf in pattern:
            if step == "b":
                t = Abs(t)
            elif step == "f":
                t = App(t, leaf)
            elif step == "a":
                t = App(leaf, t)
            else:
                t = App(H, t)
    return t


@settings(max_examples=40, deadline=None)
@given(st.one_of(repeated_terms(), wide_terms))
def test_deep_and_wide_terms_pass_every_layer_without_recursion(t):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        names = tuple(f"f{i}" for i in range(t.fv))
        copy = term(format_term(t, names), names)
        assert copy == t and hash(copy) == hash(t)
        assert t.holds_tower == any(s.__class__ is Tower for s in subterms(t))
        assert shift(shift(t, 2), -2) == t
        assert substitute(shift(t, 1), Tower(1, Var(0))) == t
        image = extract(t)
        assert not image.holds_tower and extract(image) is image
        # the reference takes a burst one step at a time over the whole
        # spine, so bursts are left to start from small states only
        with state_budget(64):
            for strategy in Strategy:
                args = (t, strategy, 3)
                assert run(*args) == reference_run(*args)
    finally:
        sys.setrecursionlimit(saved)


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
