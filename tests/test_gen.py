"""Generator tests: enumeration completeness and stream determinism."""

import random
import sys
from itertools import count, islice

import pytest

from lambdah import gen
from lambdah.extraction import extract
from lambdah.gen import (
    GenConfig,
    enumerate_terms,
    pair_stream,
    term_stream,
    wrap_applied_h,
)
from lambdah.terms import (
    Abs,
    App,
    H,
    Tower,
    Var,
    size,
    spine,
)
from oracles import count_terms, recursive_wrap_applied_h


def contains_h(t):
    match t:
        case Abs(body):
            return contains_h(body)
        case App(fun, arg):
            return contains_h(fun) or contains_h(arg)
        case Var(_):
            return False
    return True


def contains_var(t):
    match t:
        case Abs(body):
            return contains_var(body)
        case App(fun, arg):
            return contains_var(fun) or contains_var(arg)
        case Var(_):
            return True
    return False


# ---------- exhaustive enumeration ----------


def test_enumeration_smallest_sizes_by_hand():
    assert list(enumerate_terms(1)) == [H]
    assert list(enumerate_terms(1, free_vars=1)) == [Var(0), H]
    # size 2 closed: only abstractions over the two size-1 open terms
    assert list(enumerate_terms(2)) == [H, Abs(Var(0)), Abs(H)]


def test_enumeration_is_size_ordered():
    sizes = [size(t) for t in enumerate_terms(6, free_vars=1)]
    assert sizes == sorted(sizes)


def test_enumeration_has_no_duplicates_and_stays_in_scope():
    for free in (0, 1, 2):
        terms = list(enumerate_terms(6, free_vars=free))
        assert len(set(terms)) == len(terms)
        assert all(t.fv <= free for t in terms)


def test_enumeration_counts_match_the_recurrence():
    for free in (0, 1, 2):
        per_size = {}
        for t in enumerate_terms(6, free_vars=free):
            per_size[size(t)] = per_size.get(size(t), 0) + 1
        for n in range(1, 7):
            assert per_size[n] == count_terms(n, free)


def test_closed_term_counts_frozen():
    # counts by size for closed terms, checked against the recurrence once
    per_size = {}
    for t in enumerate_terms(6):
        per_size[size(t)] = per_size.get(size(t), 0) + 1
    assert [per_size[n] for n in range(1, 7)] == [1, 2, 4, 12, 38, 127]
    assert sum(1 for _ in enumerate_terms(8)) == 2411


def test_enumeration_is_deterministic():
    assert list(enumerate_terms(5, free_vars=1)) == list(enumerate_terms(5, free_vars=1))


# ---------- random streams ----------


def test_stream_is_a_pure_function_of_the_config():
    cfg = GenConfig(seed=7, max_size=12, free_vars=1)
    first = list(islice(term_stream(cfg), 50))
    second = list(islice(term_stream(cfg), 50))
    assert first == second
    other = list(islice(term_stream(GenConfig(seed=8, max_size=12, free_vars=1)), 50))
    assert first != other


def test_stream_respects_size_bound_and_scope():
    cfg = GenConfig(seed=3, max_size=9, free_vars=2)
    for t in islice(term_stream(cfg), 200):
        assert size(t) <= 9
        assert t.fv <= 2


def test_a_fresh_stream_restarts_at_the_same_term():
    cfg = GenConfig(seed=41, max_size=10)
    assert next(term_stream(cfg)) == next(term_stream(cfg))


def test_h_weight_extremes():
    # weight 0 with variables in scope: leaves never come out as H
    lean = GenConfig(seed=5, max_size=8, free_vars=2, h_weight=0.0)
    assert not any(contains_h(t) for t in islice(term_stream(lean), 100))
    # weight 1: every leaf is H
    rich = GenConfig(seed=5, max_size=8, free_vars=2, h_weight=1.0)
    assert not any(contains_var(t) for t in islice(term_stream(rich), 100))


def test_closed_terms_fall_back_to_h_leaves():
    cfg = GenConfig(seed=9, max_size=4, free_vars=0, h_weight=0.0)
    # under no binder a leaf has no variable to pick, so H appears anyway
    assert any(contains_h(t) for t in islice(term_stream(cfg), 50))


# ---------- equal-image pairs ----------


def test_wrapping_with_applied_h_never_changes_the_image():
    for i, t in enumerate(enumerate_terms(5, free_vars=1)):
        wrapped = wrap_applied_h(t, random.Random(i), density=0.5)
        assert extract(wrapped) == extract(t)


def test_full_density_wrap_touches_every_open_position():
    t = App(Abs(Var(0)), Var(0))
    wrapped = wrap_applied_h(t, random.Random(0), density=1.0)
    assert wrapped == App(H, App(App(H, Abs(App(H, Var(0)))), App(H, Var(0))))
    assert extract(wrapped) == extract(t)


def test_protect_head_keeps_a_head_redex_in_place():
    t = App(Abs(Var(0)), Var(0))
    wrapped = wrap_applied_h(t, random.Random(0), density=1.0, protect_head=True)
    # binder prefix and operator spine untouched, argument still wrapped
    assert wrapped == App(Abs(Var(0)), App(H, Var(0)))
    assert isinstance(spine(wrapped)[1], Abs)


def test_wrapping_draws_its_coins_in_the_order_of_the_recursive_walk():
    # the check suite's rows and frozen counts depend on this order
    for seed in range(200):
        cfg = GenConfig(seed=seed, max_size=4 + seed % 17, free_vars=seed % 3)
        t = next(term_stream(cfg))
        if seed % 4 == 0:
            t = wrap_applied_h(t, random.Random(seed), density=0.7)  # towers in
        density = (0.1, 0.25, 0.5, 0.9)[seed % 4]
        protect_head = seed % 3 == 0
        ours, theirs = random.Random(seed), random.Random(seed)
        assert wrap_applied_h(t, ours, density, protect_head) == recursive_wrap_applied_h(
            t, theirs, density, protect_head
        )
        assert ours.getstate() == theirs.getstate()


def test_wrapping_a_deep_term_needs_no_recursion():
    # x (x (.. x)), 5,000 applications deep
    t = Var(0)
    for _ in range(5000):
        t = App(Var(0), t)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        wrapped = wrap_applied_h(t, random.Random(0), density=0.5)
    finally:
        sys.setrecursionlimit(saved)
    # walk down the arguments, looking through the wrappers
    depth = wrappers = 0
    node = wrapped
    while True:
        if isinstance(node, Tower):
            node, wrappers = node.base, wrappers + 1
        if not isinstance(node, App):
            break
        fun = node.fun
        if isinstance(fun, Tower):
            fun, wrappers = fun.base, wrappers + 1
        assert fun == Var(0)
        node, depth = node.arg, depth + 1
    assert (node, depth) == (Var(0), 5000)
    assert 4000 < wrappers < 6000


def test_pair_stream_yields_equal_image_pairs():
    cfg = GenConfig(seed=11, max_size=10, free_vars=1)
    for left, right in islice(pair_stream(cfg), 30):
        assert extract(left) == extract(right)


def test_pair_stream_is_deterministic():
    cfg = GenConfig(seed=11, max_size=10, free_vars=1)
    first = list(islice(pair_stream(cfg), 20))
    second = list(islice(pair_stream(cfg), 20))
    assert first == second
    assert next(pair_stream(cfg)) == first[0]


def test_pair_stream_checks_its_pairs_without_assert(monkeypatch):
    # an explicit check, so python -O does not strip it: a wrapper that
    # puts a binder around every other term breaks the pair
    calls = count()
    monkeypatch.setattr(
        gen, "wrap_applied_h", lambda t, rng, density: Abs(t) if next(calls) % 2 else t
    )
    with pytest.raises(AssertionError, match=r"pair_stream \(seed 11\)"):
        next(pair_stream(GenConfig(seed=11, max_size=10, free_vars=1)))
