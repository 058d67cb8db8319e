"""Equivalence tests: lockstep runs, theorem rows, the lifting lemma, suite."""

import copy
import dataclasses
import json
import os
import random
from itertools import islice

import pytest

import lambdah.equivalence

from lambdah.equivalence import (
    LockstepVerdict,
    agreement_row_json,
    agreement_tally,
    corpus_lines,
    lemma_suite,
    lockstep,
    read_corpus,
    theorem_check,
)
from lambdah.extraction import extract
from lambdah.gen import enumerate_terms, term_stream, wrap_applied_h
from lambdah.machines import (
    FuelExhausted,
    Hnf,
    Overflow,
    StepKind,
    Strategy,
    i_step,
    j_step,
    run,
)
from lambdah.syntax import format_term, parse_term
from lambdah.terms import I, OMEGA, Abs, App, H, Tower, Var, apply_args, size, spine
from oracles import state_budget


def term(text, frees=None):
    return parse_term(text, free_vars=frees)[0]


# ---------- lockstep ----------


def test_lockstep_without_h_is_plain_head_reduction_twice():
    report = lockstep(term("(\\x.x) y"), 10)
    assert (report.verdict, report.step) == (LockstepVerdict.BOTH_HNF, None)
    assert report.t_steps_i == report.t_steps_j == 1
    assert report.aux_steps_i == report.aux_steps_j == 0
    assert len(report.checkpoints) == 1
    assert report.checkpoints[0].t_step_index == 1
    assert report.checkpoints[0].image_i == Var(0)
    assert report.checkpoints[0].image_j == Var(0)
    assert report.checkpoints[0].equal


def test_lockstep_worked_example_with_an_applied_h():
    # I-side: drop H, then beta.  J-side: wrap, beta, then drop.
    report = lockstep(term("H (\\x.x) y"), 10)
    assert (report.verdict, report.step) == (LockstepVerdict.BOTH_HNF, None)
    assert report.t_steps_i == report.t_steps_j == 1
    assert report.aux_steps_i == 1
    assert report.aux_steps_j == 2
    [cp] = report.checkpoints
    assert (cp.t_step_index, cp.image_i, cp.image_j, cp.equal) == (1, Var(0), Var(0), True)


def test_lockstep_counts_match_the_machines():
    u = term("H (\\x.x) y")
    report = lockstep(u, 10)
    it, jt = run(u, Strategy.IT, 10), run(u, Strategy.JT, 10)
    assert (report.t_steps_i, report.aux_steps_i) == (it.t_steps, it.aux_steps)
    assert (report.t_steps_j, report.aux_steps_j) == (jt.t_steps, jt.aux_steps)


def test_lockstep_reports_both_running_on_divergence():
    report = lockstep(App(H, OMEGA), 5)
    assert (report.verdict, report.step) == (LockstepVerdict.BOTH_RUNNING, None)
    assert report.t_steps_i == report.t_steps_j == 5
    assert len(report.checkpoints) == 5
    assert all(cp.equal for cp in report.checkpoints)


def test_lockstep_ends_both_running_when_a_side_outgrows_the_budget():
    # the J side doubles its head H chain at every t-step; the I side
    # just drops the H and loops on Omega.  The aborted step gets no
    # checkpoint, every completed one compares equal.
    with state_budget(64):
        report = lockstep(term("H (\\x.x x) (\\x.x x)"), 100)
    assert (report.verdict, report.step) == (LockstepVerdict.BOTH_RUNNING, None)
    assert report.t_steps_i == report.t_steps_j == 5
    assert len(report.checkpoints) == 4
    assert all(cp.equal for cp in report.checkpoints)


def test_lockstep_reports_a_one_sided_halt_as_diverged(monkeypatch):
    # a JT machine that never admits reaching hnf: the I side halts at
    # t-step 1, the J side then gets the rest of the budget and still
    # reports no hnf
    real_run = lambdah.equivalence.run

    def jt_never_halts(t, strategy, fuel, *args, **kwargs):
        out = real_run(t, strategy, fuel, *args, **kwargs)
        if strategy is Strategy.JT and isinstance(out, Hnf):
            return FuelExhausted(out.result, out.t_steps, out.aux_steps, out.trace)
        return out

    monkeypatch.setattr("lambdah.equivalence.run", jt_never_halts)
    report = lockstep(term("H (\\x.x) y"), 10)
    assert (report.verdict, report.step) == (LockstepVerdict.DIVERGED, 1)
    assert (report.t_steps_i, report.t_steps_j) == (1, 1)
    assert (report.aux_steps_i, report.aux_steps_j) == (1, 2)
    [cp] = report.checkpoints
    assert (cp.t_step_index, cp.image_i, cp.image_j, cp.equal) == (1, Var(0), Var(0), True)


def test_lockstep_reports_diverged_when_the_running_side_outgrows_the_budget():
    # at t-step 1 the I side settles to an hnf; the J side's state is
    # over the budget with a burst still pending
    with state_budget(13):
        report = lockstep(term("H H (\\x.x x (\\y.H)) H"), 10)
    assert (report.verdict, report.step) == (LockstepVerdict.DIVERGED, 1)
    assert (report.t_steps_i, report.t_steps_j) == (1, 1)
    assert (report.aux_steps_i, report.aux_steps_j) == (4, 3)
    assert report.checkpoints == ()
    report = lockstep(term("H H (\\x.x x (\\y.H)) H"), 10)
    assert (report.verdict, report.step) == (LockstepVerdict.BOTH_HNF, None)


def test_lockstep_over_budget_input_takes_no_steps():
    tower = H
    for _ in range(20):
        tower = App(H, tower)
    with state_budget(10):
        report = lockstep(tower, 10)
    assert (report.verdict, report.step) == (LockstepVerdict.BOTH_RUNNING, None)
    assert report.t_steps_i == report.t_steps_j == 0
    assert report.checkpoints == ()


def test_lockstep_images_agree_on_enumerated_terms():
    for t in enumerate_terms(5, free_vars=1):
        report = lockstep(t, 30)
        assert report.verdict in (LockstepVerdict.BOTH_HNF, LockstepVerdict.BOTH_RUNNING), t
        assert report.step is None, t


def test_lockstep_flags_mismatched_final_images_if_extraction_is_broken(monkeypatch):
    # with the eraser stubbed out the settled states differ by a literal H
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    report = lockstep(term("H x y"), 10)
    # both sides settle straight to hnf
    assert (report.verdict, report.step) == (LockstepVerdict.IMAGE_MISMATCH, 0)
    assert report.checkpoints == ()


def test_lockstep_flags_a_checkpoint_mismatch_if_extraction_is_broken(monkeypatch):
    # one t-step in, the J-side still carries an (H _) wrapper on an argument
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    report = lockstep(term("H (\\x.x) y z"), 10)
    assert (report.verdict, report.step) == (LockstepVerdict.IMAGE_MISMATCH, 1)
    assert not report.checkpoints[-1].equal


# ---------- theorem rows ----------


def _context_agreement(terms, fuel):
    report = lemma_suite(terms, fuel=fuel, groups=["equivalence"])
    return next(r for r in report.results if r.name == "context_agreement")


def test_theorem_row_for_an_applied_h_context():
    u = term("H w")
    row = theorem_check(u, 50)
    assert row.agree and row.definite
    assert row.verdict_i.t_steps == 1  # I w -> w
    assert row.verdict_j.t_steps == 4  # J w unfolds, wraps, and lands on w (H ...)
    # the machines on the context itself bridge to the substituted sides
    assert isinstance(run(u, Strategy.IT, 50), Hnf)
    assert isinstance(run(u, Strategy.JT, 50), Hnf)
    result = _context_agreement([u], 50)
    assert result.checked == 1 and result.ok


def test_theorem_row_for_the_bare_constant():
    row = theorem_check(H, 50)
    assert row.agree and row.definite
    assert row.verdict_i.t_steps == 0  # I is already in head normal form
    assert row.verdict_j.t_steps == 3  # J needs three unfolding steps
    assert run(H, Strategy.IT, 50) == Hnf(H, 0, 0, None)
    assert _context_agreement([H], 50).ok


def test_theorem_row_with_both_sides_unknown_agrees_vacuously():
    row = theorem_check(App(H, OMEGA), 20)
    assert not isinstance(row.verdict_i, Hnf) and not isinstance(row.verdict_j, Hnf)
    assert row.agree
    assert not row.definite


def test_theorem_check_gives_the_j_side_extra_fuel():
    row = theorem_check(App(H, OMEGA), 5)
    assert row.verdict_i.t_steps == 5
    assert row.verdict_j.t_steps == 100


def test_theorem_check_counts_an_overflowed_machine_side_as_unknown():
    u = term("H (\\x.x x) (\\x.x x)")
    with state_budget(512):
        row = theorem_check(u, 50)
        assert isinstance(run(u, Strategy.JT, 50), Overflow)
        result = _context_agreement([u], 50)
    assert isinstance(row.verdict_j, FuelExhausted)
    assert row.agree
    assert not row.definite
    assert result.checked == 1 and result.ok


def test_an_overflowed_machine_side_does_not_fail_its_bridge():
    # H x (\y. y y .. y) with 2,100 applications: both machines stop with
    # Overflow before their first burst, while both substitutions reach
    # a head normal form, so the machine sides are unknown, not wrong
    u = App(App(H, Var(0)), Abs(apply_args(Var(0), [Var(0)] * 2100)))
    assert size(u) == 4206
    assert isinstance(run(u, Strategy.IT, 10), Overflow)
    assert isinstance(run(u, Strategy.JT, 10), Overflow)
    row = theorem_check(u, 10)
    assert row.definite and row.agree
    result = _context_agreement([u], 10)
    assert result.checked == 1 and result.ok


@pytest.mark.parametrize(
    "stalled, message",
    [
        (Strategy.IT, "IT machine disagrees with I-substitution"),
        (Strategy.JT, "JT machine disagrees with J-substitution"),
    ],
)
def test_context_agreement_reports_a_machine_that_disagrees(monkeypatch, stalled, message):
    # both substitutions of H w reach a head normal form; one machine
    # on H w itself is made to run out of fuel instead
    def run_stalling(t, strategy, fuel, **kwargs):
        if strategy is stalled:
            return FuelExhausted(t, fuel, 0)
        return run(t, strategy, fuel, **kwargs)

    monkeypatch.setattr("lambdah.equivalence.run", run_stalling)
    u = term("H w")
    assert theorem_check(u, 50).definite
    result = _context_agreement([u], 50)
    assert result.failed == 1
    assert result.failures == [f"{format_term(u)}: {message}"]


# ---------- json reports ----------


def test_agreement_row_json_schema():
    row = theorem_check(term("H w"), 50)
    assert json.loads(agreement_row_json(row, ("w",))) == {
        "context": "H w",
        "verdict_I": "hnf",
        "verdict_J": "hnf",
        "agree": True,
        "t_steps_I": 1,
        "t_steps_J": 4,
    }


def test_agreement_summary_json_tallies_outcomes():
    rows = [theorem_check(term("H w"), 50), theorem_check(App(H, OMEGA), 10)]
    assert agreement_tally(rows) == {
        "contexts": 2,
        "definite": 1,
        "both_unknown": 1,
        "disagreements": 0,
    }


# ---------- corpus files ----------


def test_read_corpus_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "contexts.txt"
    path.write_text(
        "# a comment line\n"
        "\n"
        "H x y   # trailing note\n"
        "\\x.H x\n"
    )
    entries = read_corpus(path)
    assert [e.text for e in entries] == ["H x y", "\\x.H x"]
    assert entries[0].free_vars == ("x", "y")
    assert entries[0].term == term("H x y")
    assert entries[1].free_vars == ()


def test_read_corpus_resolves_named_constants(tmp_path):
    path = tmp_path / "contexts.txt"
    path.write_text("H Omega\n")
    [entry] = read_corpus(path)
    assert entry.term == App(H, OMEGA)


def test_corpus_lines_drop_comments_and_blanks_lazily():
    def lines():
        yield "x  # a comment\n"
        yield "   \n"
        yield "# only a comment\n"
        yield " y z \n"
        raise AssertionError("read past the line asked for")

    assert [text for text, _, _ in islice(corpus_lines(lines()), 2)] == ["x", "y z"]


# ---------- the lifting lemma check ----------


def lift_row(corpus):
    """The ``lifted_j_traces_replay`` row of the equivalence checks."""
    report = lemma_suite(corpus, groups=["equivalence"])
    return next(r for r in report.results if r.name == "lifted_j_traces_replay")


def record_j_steps(monkeypatch):
    """The terms the suite asks ``j_step`` to contract, in order; the
    suite runs in this process, so that every call is seen."""
    asked = []

    def recording(t):
        asked.append(t)
        return j_step(t)

    monkeypatch.setattr("lambdah.equivalence.j_step", recording)
    _on_cpus(monkeypatch, 1)
    return asked


def test_the_lift_check_carries_a_wrap_past_an_appended_argument(monkeypatch):
    asked = record_j_steps(monkeypatch)
    row = lift_row([term("H x y", ("x", "y"))])
    assert (row.checked, row.skipped, row.failed) == (1, 0, 0)
    # the step, then the step with W = I appended; no drop to peel off
    assert asked == [term("H x y", ("x", "y")), term("H x y I", ("x", "y"))]


def test_the_lift_check_turns_a_drop_into_a_wrap_onto_the_argument(monkeypatch):
    asked = record_j_steps(monkeypatch)
    row = lift_row([term("H x", ("x",))])
    assert (row.checked, row.skipped, row.failed) == (1, 0, 0)
    # H x I -> x (H I), so W became H W, and one drop takes H I back to I
    assert asked == [term("H x", ("x",)), term("H x I", ("x",)), term("H I")]


def test_the_lift_check_collects_one_h_per_drop(monkeypatch):
    asked = record_j_steps(monkeypatch)
    row = lift_row([term("H (H x)", ("x",))])
    assert (row.checked, row.skipped, row.failed) == (1, 0, 0)
    assert asked == [
        term("H (H x)", ("x",)),
        term("H (H x) I", ("x",)),
        term("H x", ("x",)),
        term("H x (H I)", ("x",)),
        term("H (H I)"),
        term("H I"),
    ]


def test_the_lift_check_peels_the_collected_hs_off_again(monkeypatch):
    # a j_step that gets only the drop of H I wrong, which no step of the
    # trace of H x asks for
    monkeypatch.setattr(
        "lambdah.equivalence.j_step", lambda t: H if t == App(H, I) else j_step(t)
    )
    row = lift_row([term("H x", ("x",))])
    assert (row.checked, row.failed) == (1, 1)
    assert row.failures == ["H v0: H^1 I does not drop to I"]


def test_the_lift_check_skips_steps_under_a_binder_prefix():
    row = lift_row([term("\\z.H z")])
    assert (row.checked, row.skipped, row.failed) == (0, 1, 0)


def test_the_lift_check_holds_on_an_enumerated_corpus():
    row = lift_row(enumerate_terms(6, free_vars=1))
    assert (row.checked, row.skipped, row.failed) == (55, 395, 0)


def _with_trace(change):
    """``run`` whose traces pass through ``change``."""

    def mutant(t, strategy, fuel, *, keep_trace=False):
        out = run(t, strategy, fuel, keep_trace=keep_trace)
        if not out.trace:
            return out
        return dataclasses.replace(out, trace=tuple(change(list(out.trace))))

    return mutant


def _swap_kinds(trace):
    other = {StepKind.J_WRAP: StepKind.J_DROP, StepKind.J_DROP: StepKind.J_WRAP}
    return [dataclasses.replace(e, kind=other.get(e.kind, e.kind)) for e in trace]


def _replace_first(**change):
    return lambda trace: [dataclasses.replace(trace[0], **change)] + trace[1:]


def _step_past_the_end(trace):
    return trace + [dataclasses.replace(trace[-1], before=trace[-1].after)]


def _drop_does_nothing(t):
    return t if not spine(t)[2] else j_step(t)


def test_replay_rejects_a_non_j_step(monkeypatch):
    monkeypatch.setattr(
        "lambdah.equivalence.run", _with_trace(_replace_first(kind=StepKind.T))
    )
    row = lift_row([term("H x y", ("x", "y"))])
    assert (row.checked, row.failed) == (1, 1)
    assert row.failures == ["H v0 v1: entry 0: t should be j_wrap"]


def test_lift_validates_the_trace_before_lifting(monkeypatch):
    asked = record_j_steps(monkeypatch)
    monkeypatch.setattr(
        "lambdah.equivalence.run", _with_trace(_replace_first(kind=StepKind.T))
    )
    row = lift_row([term("H x", ("x",))])
    assert row.failed == 1
    # the t entry is refused before its step is contracted or lifted
    assert asked == []


@pytest.mark.parametrize(
    "attr, mutant, problem",
    [
        pytest.param("run", _with_trace(_swap_kinds), "should be j_", id="kinds-swapped"),
        pytest.param("j_step", _drop_does_nothing, "J-contraction", id="drop-does-nothing"),
        pytest.param(
            "run", _with_trace(lambda trace: trace[1:]), "does not chain", id="first-entry-lost"
        ),
        pytest.param(
            "run", _with_trace(_replace_first(after=H)), "J-contraction", id="fabricated-after"
        ),
        pytest.param(
            "run", _with_trace(_replace_first(kind=StepKind.T)), "t should be j_", id="t-entry"
        ),
        pytest.param(
            "run",
            _with_trace(_step_past_the_end),
            "not an applied H",
            id="step-past-the-end",
        ),
        pytest.param("j_step", i_step, "does not lift", id="j-step-as-i-step"),
    ],
)
def test_the_lift_check_fails_on_a_mutant(attr, mutant, problem, monkeypatch):
    monkeypatch.setattr(f"lambdah.equivalence.{attr}", mutant)
    row = lift_row(enumerate_terms(6, free_vars=1))
    assert row.failed > 0
    assert problem in row.failures[0]


# ---------- the invariant suite ----------


def test_lemma_suite_is_green_on_an_enumerated_corpus():
    report = lemma_suite(enumerate_terms(6, free_vars=1), fuel=100, max_t=30)
    assert report.ok
    assert len(report.results) == 16
    assert {r.group for r in report.results} == {"extraction", "machines", "equivalence"}
    assert all(r.checked > 0 for r in report.results)
    assert all(r.failures == [] for r in report.results)


def test_lemma_suite_group_filter():
    report = lemma_suite(enumerate_terms(3, free_vars=1), groups=["extraction"])
    assert len(report.results) == 6
    assert all(r.group == "extraction" for r in report.results)


def test_lemma_suite_rejects_an_unknown_group():
    # a misspelt group would select no check, and an empty report is ok
    with pytest.raises(ValueError, match="unknown check group: extration"):
        lemma_suite([H], groups=["extration", "machines"])


def _drop_outer_binder(t):
    image = extract(t)
    return image.body if image.__class__ is Abs else image


def _last_argument_unextracted(t):
    return App(extract(t.fun), t.arg) if t.__class__ is App else extract(t)


def _keep_one_h_of_a_leading_tower(t):
    if t.__class__ is Tower and t.height > 1:
        return Tower(1, extract(t.base))
    return extract(t)


_set_abs_holds_tower = lambdah.terms._set_abs_holds_tower


def _abs_without_holds_tower(node, flag):
    _set_abs_holds_tower(node, False)


@pytest.mark.parametrize(
    "target, mutant, failed",
    [
        pytest.param(
            "equivalence.extract", lambda t: t, (0, 0, 113, 186, 99, 125), id="identity"
        ),
        pytest.param(
            "equivalence.extract",
            _drop_outer_binder,
            (121, 153, 95, 0, 0, 0),
            id="outer-binder-dropped",
        ),
        pytest.param(
            "equivalence.extract",
            _last_argument_unextracted,
            (5, 19, 55, 49, 5, 19),
            id="last-argument-unextracted",
        ),
        pytest.param(
            "equivalence.extract",
            _keep_one_h_of_a_leading_tower,
            (5, 5, 13, 9, 5, 5),
            id="one-h-of-a-leading-tower-kept",
        ),
        pytest.param(
            "terms._set_abs_holds_tower",
            _abs_without_holds_tower,
            (0, 0, 55, 116, 47, 62),
            id="abs-drops-holds-tower",
        ),
    ],
)
def test_the_extraction_checks_fail_on_a_mutant(target, mutant, failed, monkeypatch):
    # failures of each extraction check, in registry order: idempotent,
    # collapse, substitution, pair congruence, image shape, no applied H;
    # every check fails on some mutant, so none of them passes vacuously
    monkeypatch.setattr(f"lambdah.{target}", mutant)
    report = lemma_suite(enumerate_terms(6, free_vars=1), groups=["extraction"])
    assert tuple(r.failed for r in report.results) == failed


@pytest.mark.parametrize(
    "copy_images, substitutions",
    [(False, 1456), (True, 3346)],
    ids=["images-by-identity", "images-as-equal-copies"],
)
def test_the_substitution_check_drops_only_probes_that_compare_a_call_with_itself(
    copy_images, substitutions, monkeypatch
):
    # Where a body and a probe are their own images, both sides of the
    # probe are extract(substitute(body, value)).  Five of the six probes
    # are their own images, and so are most small bodies, so the check
    # skips most probes; the skip is taken by identity, so images that
    # are only equal copies bring every probe back.  The row is the same.
    # The count includes extract_pair_congruence's two calls per body.
    _on_cpus(monkeypatch, 1)  # so that every call is made in this process
    calls = []
    real_substitute = lambdah.equivalence.substitute

    def counting(body, value):
        calls.append(body)
        return real_substitute(body, value)

    monkeypatch.setattr("lambdah.equivalence.substitute", counting)
    if copy_images:
        monkeypatch.setattr(
            "lambdah.equivalence.extract", lambda t: copy.deepcopy(extract(t))
        )
    report = lemma_suite(enumerate_terms(6, free_vars=1), groups=["extraction"])
    row = next(r for r in report.results if r.name == "extract_commutes_with_substitution")
    assert (row.checked, row.skipped, row.failed) == (239, 211, 0)
    assert len(calls) == substitutions


def _drop_one_level_more(head, n, wrap, stack):
    # an i-step or j_drop that takes one level more than it counts, where
    # the tower has one to spare
    if wrap:
        stack[-1] = Tower(n, stack[-1])
        return Tower(head.height - n, head.base)
    return Tower(max(head.height - n - 1, 0), head.base)


def _wrap_the_base(head, n, wrap, stack):
    # a j_wrap that puts its H's around the tower's base, not around the
    # next argument
    if wrap:
        stack[-1] = Tower(n, head.base)
    return Tower(head.height - n, head.base)


@pytest.mark.parametrize(
    "lower, failed",
    [
        pytest.param(_drop_one_level_more, (8, 0, 8, 0, 0, 0, 16), id="one-level-more"),
        pytest.param(_wrap_the_base, (0, 20, 0, 20, 0, 0, 0), id="wrap-the-base"),
    ],
)
def test_the_machine_checks_fail_on_a_mutant(lower, failed, monkeypatch):
    # failures of each machines check, in registry order: i-step, j-step,
    # pure I, pure J, paired t-steps, application solvability, traced
    # runs.  Extraction erases a lost H, so only the i-step's size test
    # sees the extra level; a wrap that loses the next argument moves
    # the image, which the j-step check sees
    monkeypatch.setattr("lambdah.machines._lower", lower)
    report = lemma_suite(enumerate_terms(6, free_vars=1), groups=["machines"])
    assert tuple(r.failed for r in report.results) == failed


def _wrap_the_last_argument(head, n, wrap, stack):
    # a j_wrap that moves its H's onto the last argument, not the next one
    if wrap:
        stack[0] = Tower(n, stack[0])
    return Tower(head.height - n, head.base)


def test_only_the_lift_check_sees_a_wrap_onto_the_last_argument(monkeypatch):
    # extraction erases an H wherever it lands, so no image check can see
    # where the wrap put it; the lift check appends an argument, which
    # then is the last one, and sees the H land on it
    monkeypatch.setattr("lambdah.machines._lower", _wrap_the_last_argument)
    report = lemma_suite(enumerate_terms(6, free_vars=1), fuel=100, max_t=30)
    assert {r.name: r.failed for r in report.results if r.failed} == {
        "lifted_j_traces_replay": 16
    }


def _wrap_one_h(head, n, wrap, stack):
    # a tower contraction that drops n levels but wraps only one H
    if wrap:
        stack[-1] = Tower(1, stack[-1])
    return Tower(head.height - n, head.base)


def _take_one_level(head, n, wrap, stack):
    # a contraction that takes one level while run counts n aux steps
    if wrap:
        stack[-1] = Tower(1, stack[-1])
    return Tower(head.height - 1, head.base)


@pytest.mark.parametrize(
    "lower, max_size, failed",
    [(_wrap_one_h, 7, 2), (_take_one_level, 5, 2)],
    ids=["one-h-per-tower", "one-level-per-contraction"],
)
def test_only_the_trace_check_sees_a_whole_tower_contraction_go_wrong(
    monkeypatch, lower, max_size, failed
):
    # a traced run takes one level per contraction, where both mutants
    # act as the real one; extraction erases the lost H's, and the other
    # checks trace their runs or read untraced ones only by their images,
    # t-steps and verdicts
    monkeypatch.setattr("lambdah.machines._lower", lower)
    report = lemma_suite(enumerate_terms(max_size), fuel=100, max_t=30)
    assert {r.name: r.failed for r in report.results if r.failed} == {
        "traced_runs_match_untraced": failed
    }


def test_lemma_suite_caps_recorded_failures_at_four(monkeypatch):
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    report = lemma_suite(enumerate_terms(6, free_vars=1), groups=["extraction"])
    bad = next(r for r in report.results if r.name == "extract_no_applied_h")
    assert bad.failed > 4
    assert len(bad.failures) == 4


def test_lemma_suite_records_exceptions_as_failures(monkeypatch):
    def boom(t):
        raise RuntimeError("stubbed out")

    monkeypatch.setattr("lambdah.equivalence.extract", boom)
    report = lemma_suite([term("H x")], groups=["extraction"])
    assert not report.ok
    first = report.results[0]
    assert first.failed == 1
    assert "RuntimeError" in first.failures[0]


# ---------- the suite's worker processes ----------


def _mixed_corpus():
    corpus = list(enumerate_terms(6, free_vars=1))
    corpus += islice(term_stream(0, 12, free_vars=2), 50)
    return corpus


def _on_cpus(monkeypatch, cpus):
    """Let lemma_suite see an affinity mask of ``cpus`` CPUs."""
    monkeypatch.setattr(
        "os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


@pytest.mark.parametrize("broken", [False, True], ids=["green", "identity-extract"])
def test_lemma_suite_reports_the_same_on_one_two_and_three_cpus(broken, monkeypatch):
    if broken:
        monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    corpus = _mixed_corpus()
    reports = []
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        reports.append(lemma_suite(corpus))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].ok is not broken
    if broken:
        # the first of the eight blocks holds fewer than four of this
        # check's failures, so its first four come from more than one block
        name = "lockstep_images_agree"
        first_block = lemma_suite(corpus[: len(corpus) // 8], groups=["equivalence"])
        assert next(r for r in first_block.results if r.name == name).failed < 4
        whole = next(r for r in reports[0].results if r.name == name)
        assert whole.failed > 4 and len(whole.failures) == 4


def _recording_wraps(monkeypatch):
    """Record every wrap_applied_h output that lemma_suite draws."""
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(wrap_applied_h(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr("lambdah.equivalence.wrap_applied_h", recording)
    _on_cpus(monkeypatch, 1)  # so that every draw is made in this process
    return recorded


def test_lemma_suite_draws_from_a_generator_of_each_check_and_block(monkeypatch):
    recorded = _recording_wraps(monkeypatch)
    corpus = _mixed_corpus()
    lemma_suite(corpus, seed=7)
    probes = lambdah.equivalence._PROBES
    cuts = [len(corpus) * k // 8 for k in range(9)]
    replay = []
    for k in range(8):
        rng = random.Random(f"7 extract_pair_congruence {k}")
        for t in corpus[cuts[k] : cuts[k + 1]]:
            if isinstance(t, Abs):
                replay.append(wrap_applied_h(t.body, rng))
                replay.append(wrap_applied_h(probes[rng.randrange(len(probes))], rng))
    for k in range(8):
        rng = random.Random(f"7 paired_t_steps_preserve_image {k}")
        for t in corpus[cuts[k] : cuts[k + 1]]:
            if spine(t)[1].__class__ is Abs:
                replay.append(wrap_applied_h(t, rng, protect_head=True))
    assert recorded == replay


def test_a_check_draws_the_same_whichever_groups_run(monkeypatch):
    # the extraction group's pair congruence check draws too, and does
    # not move the draws of paired_t_steps_preserve_image
    recorded = _recording_wraps(monkeypatch)
    corpus = _mixed_corpus()
    lemma_suite(corpus, groups=["machines"])
    alone = list(recorded)
    assert alone
    recorded.clear()
    lemma_suite(corpus)
    assert recorded[-len(alone) :] == alone


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("interrupted", [False, True], ids=["children-exit", "interrupted"])
def test_lemma_suite_leaves_no_process_behind(interrupted, monkeypatch):
    corpus = _mixed_corpus()
    _on_cpus(monkeypatch, 1)
    expected = lemma_suite(corpus)
    _on_cpus(monkeypatch, 3)
    assert lemma_suite(corpus) == expected
    _no_child_left()
    me = os.getpid()
    real = lambdah.equivalence._extract_idempotent

    def stubbed(t):
        # a child that takes this check dies, so the parent runs it too
        if os.getpid() != me:
            os._exit(3)
        if interrupted:
            raise KeyboardInterrupt
        return real(t)

    monkeypatch.setattr("lambdah.equivalence._extract_idempotent", stubbed)
    if interrupted:
        with pytest.raises(KeyboardInterrupt):
            lemma_suite(corpus)
    else:
        assert lemma_suite(corpus) == expected
    _no_child_left()


@pytest.mark.parametrize(
    "cpus, cpu_count, children",
    [(64, 64, 7), (None, 3, 2), (None, None, 0)],
    ids=["mask-of-64", "no-mask-3-cpus", "no-mask-unknown"],
)
def test_lemma_suite_forks_a_child_for_each_cpu_but_one_up_to_seven(
    cpus, cpu_count, children, monkeypatch
):
    corpus = _mixed_corpus()
    _on_cpus(monkeypatch, 1)
    expected = lemma_suite(corpus)
    if cpus is None:  # a platform without an affinity call
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
    else:
        _on_cpus(monkeypatch, cpus)
    monkeypatch.setattr("os.cpu_count", lambda: cpu_count)
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr("os.fork", counting_fork)
    assert lemma_suite(corpus) == expected
    assert len(forked) == children
    _no_child_left()
