"""Hand-worked cases for the benchmark's independent references.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def test_parser_reads_binder_lists_and_left_nested_application():
    assert ref.parse("\\x y.x") == ("lam", "x", ("lam", "y", ("var", "x")))
    assert ref.parse("a b c") == ("app", ("app", ("var", "a"), ("var", "b")), ("var", "c"))
    assert ref.parse("H (λx.x)  # note") == ("app", ref.H, ("lam", "x", ("var", "x")))
    with pytest.raises(ref.Rejected):
        ref.parse("a \\x.x")
    with pytest.raises(ref.Rejected):
        ref.parse("(a b")


def test_j_head_normalises_in_three_steps_to_a_two_binder_form():
    hnf, steps, result = ref.head_reduce(ref.BUILTINS["J"], fuel=10)
    assert (hnf, steps) == (True, 3)
    binders, head, args = ref.decompose(result)
    # \y z. y (J z): the head is the outer of the two binders
    assert len(binders) == 2 and head == ("var", binders[0]) and len(args) == 1
    assert ref.alpha_eq(
        result,
        ("lam", "y", ("lam", "z", ("app", ("var", "y"), ("app", ref.BUILTINS["J"], ("var", "z"))))),
    )


def test_h_w_reaches_hnf_in_one_step_with_h_read_as_i():
    term = ref.subst_h(ref.parse("H w"), ref.BUILTINS["I"])
    hnf, steps, result = ref.head_reduce(term, fuel=10)
    assert (hnf, steps, result) == (True, 1, ("var", "w"))


def test_omega_spends_exactly_its_fuel():
    assert ref.head_reduce(ref.BUILTINS["Omega"], fuel=7)[:2] == (False, 7)


def test_substitution_renames_a_binder_that_would_capture():
    # (\x.\y.x) y  ->  \y'.y, not \y.y
    result = ref.step(ref.parse("(\\x.\\y.x) y"), "t")
    assert ref.alpha_eq(result, ref.parse("\\z.y"))
    assert not ref.alpha_eq(result, ref.parse("\\y.y"))


def test_aux_steps_follow_the_readme_rules():
    t = ref.parse("\\v.H a b c")
    assert ref.alpha_eq(ref.step(t, "i"), ref.parse("\\v.a b c"))
    assert ref.alpha_eq(ref.step(t, "j_wrap"), ref.parse("\\v.a (H b) c"))
    assert ref.alpha_eq(ref.step(ref.parse("H a"), "j_drop"), ref.parse("a"))
    with pytest.raises(ref.Rejected):
        ref.step(ref.parse("H a"), "j_wrap")


def test_trace_checker_accepts_the_jt_run_and_rejects_a_wrong_step():
    # H (\x.x x) (\x.x x) under JT: from 11 nodes, wrap, beta, 13 nodes
    start = ref.parse("H (\\x.x x) (\\x.x x)")
    good = [
        ("j_wrap", ref.parse("(\\x.x x) (H (\\x.x x))")),
        ("t", ref.parse("H (\\x.x x) (H (\\x.x x))")),
    ]
    assert ref.check_jt_trace(start, good, budget=12) == []
    assert ref.check_jt_trace(start, good, budget=100) == [
        "the run stopped at 13 nodes, within the budget"
    ]
    bad = [good[0], ("t", ref.parse("H (\\x.x x) (\\x.x x)"))]
    assert ref.check_jt_trace(start, bad, budget=12) == [
        "step 2: printed state is not the t-contraction"
    ]
    assert ref.check_jt_trace(start, [("t", good[1][1])], budget=12) == [
        "step 1: printed t, JT takes j_wrap"
    ]


def test_closed_term_counts_by_size():
    assert [ref.count_terms(n, 0) for n in range(1, 7)] == [1, 2, 4, 12, 38, 127]
    # one free variable adds a leaf: x, H at size 1
    assert ref.count_terms(1, 1) == 2
