"""Equivalence tests: lockstep runs, theorem rows, trace lifting, suite."""

import json
import os
import random
from itertools import islice

import pytest

import lambdah.equivalence

from lambdah.equivalence import (
    AgreementRow,
    BothHnf,
    BothRunning,
    Diverged,
    EMismatch,
    InvalidTrace,
    LiftWitness,
    agreement_row_json,
    agreement_tally,
    lemma_suite,
    lift_j_trace,
    lockstep,
    read_corpus,
    replay_j_trace,
    theorem_check,
)
from lambdah.gen import enumerate_terms, term_stream, wrap_applied_h
from lambdah.machines import (
    FuelExhausted,
    Hnf,
    Overflow,
    StepKind,
    Strategy,
    TraceEntry,
    j_step,
    run,
)
from lambdah.syntax import parse_term
from lambdah.terms import I, OMEGA, Abs, App, H, Term, Var, apply_args, size, spine
from oracles import state_budget


def term(text, frees=None):
    return parse_term(text, free_vars=frees)[0]


def j_trace(text, frees=None):
    out = run(term(text, frees), Strategy.JT, 0, keep_trace=True)
    assert isinstance(out, Hnf)
    return out.trace


# ---------- lockstep ----------


def test_lockstep_without_h_is_plain_head_reduction_twice():
    report = lockstep(term("(\\x.x) y"), 10)
    assert report.verdict == BothHnf()
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
    assert report.verdict == BothHnf()
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
    assert report.verdict == BothRunning()
    assert report.t_steps_i == report.t_steps_j == 5
    assert len(report.checkpoints) == 5
    assert all(cp.equal for cp in report.checkpoints)


def test_lockstep_ends_both_running_when_a_side_outgrows_the_budget():
    # the J side doubles its head H chain at every t-step; the I side
    # just drops the H and loops on Omega.  The aborted step gets no
    # checkpoint, every completed one compares equal.
    with state_budget(64):
        report = lockstep(term("H (\\x.x x) (\\x.x x)"), 100)
    assert report.verdict == BothRunning()
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
            return FuelExhausted(out.result, out.t_steps, out.trace, out.aux_steps)
        return out

    monkeypatch.setattr("lambdah.equivalence.run", jt_never_halts)
    report = lockstep(term("H (\\x.x) y"), 10)
    assert report.verdict == Diverged(1)
    assert (report.t_steps_i, report.t_steps_j) == (1, 1)
    assert (report.aux_steps_i, report.aux_steps_j) == (1, 2)
    [cp] = report.checkpoints
    assert (cp.t_step_index, cp.image_i, cp.image_j, cp.equal) == (1, Var(0), Var(0), True)


def test_lockstep_reports_diverged_when_the_running_side_outgrows_the_budget():
    # at t-step 1 the I side settles to an hnf; the J side's state is
    # over the budget with a burst still pending
    with state_budget(13):
        report = lockstep(term("H H (\\x.x x (\\y.H)) H"), 10)
    assert report.verdict == Diverged(1)
    assert (report.t_steps_i, report.t_steps_j) == (1, 1)
    assert (report.aux_steps_i, report.aux_steps_j) == (4, 3)
    assert report.checkpoints == ()
    assert lockstep(term("H H (\\x.x x (\\y.H)) H"), 10).verdict == BothHnf()


def test_lockstep_over_budget_input_takes_no_steps():
    tower = H
    for _ in range(20):
        tower = App(H, tower)
    with state_budget(10):
        report = lockstep(tower, 10)
    assert report.verdict == BothRunning()
    assert report.t_steps_i == report.t_steps_j == 0
    assert report.checkpoints == ()


def test_lockstep_images_agree_on_enumerated_terms():
    for t in enumerate_terms(5, free_vars=1):
        report = lockstep(t, 30)
        assert not isinstance(report.verdict, (Diverged, EMismatch)), t


def test_lockstep_flags_mismatched_final_images_if_extraction_is_broken(monkeypatch):
    # with the eraser stubbed out the settled states differ by a literal H
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    report = lockstep(term("H x y"), 10)
    assert report.verdict == EMismatch(0)  # both sides settle straight to hnf
    assert report.checkpoints == ()


def test_lockstep_flags_a_checkpoint_mismatch_if_extraction_is_broken(monkeypatch):
    # one t-step in, the J-side still carries an (H _) wrapper on an argument
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    report = lockstep(term("H (\\x.x) y z"), 10)
    assert report.verdict == EMismatch(1)
    assert not report.checkpoints[-1].equal


# ---------- theorem rows ----------


def test_theorem_row_for_an_applied_h_context():
    row = theorem_check(term("H w"), 50)
    assert row.agree and row.definite
    assert row.bridge_i_ok and row.bridge_j_ok
    assert row.verdict_i.t_steps == 1  # I w -> w
    assert row.verdict_j.t_steps == 4  # J w unfolds, wraps, and lands on w (H ...)
    assert isinstance(row.verdict_it, Hnf) and isinstance(row.verdict_jt, Hnf)


def test_theorem_row_for_the_bare_constant():
    row = theorem_check(H, 50)
    assert row.agree and row.definite
    assert row.verdict_i.t_steps == 0  # I is already in head normal form
    assert row.verdict_j.t_steps == 3  # J needs three unfolding steps
    assert row.verdict_it == Hnf(H, 0, 0, None)


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
    with state_budget(512):
        row = theorem_check(term("H (\\x.x x) (\\x.x x)"), 50)
    assert isinstance(row.verdict_jt, Overflow)
    assert isinstance(row.verdict_j, FuelExhausted)
    assert row.agree
    assert row.bridge_j_ok
    assert not row.definite


def test_an_overflowed_machine_side_does_not_fail_its_bridge():
    # H x (\y. y y .. y) with 2,100 applications: both machines stop with
    # Overflow before their first burst, while both substitutions reach
    # a head normal form, so the machine sides are unknown, not wrong
    u = App(App(H, Var(0)), Abs(apply_args(Var(0), [Var(0)] * 2100)))
    assert size(u) == 4206
    row = theorem_check(u, 10)
    assert isinstance(row.verdict_it, Overflow)
    assert isinstance(row.verdict_jt, Overflow)
    assert row.definite and row.agree
    assert row.bridge_i_ok and row.bridge_j_ok
    report = lemma_suite([u], groups=["equivalence"])
    by_name = {r.name: r for r in report.results}
    assert by_name["context_agreement"].checked == 1
    assert by_name["context_agreement"].ok


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


# ---------- replaying and lifting J-traces ----------


def test_replay_accepts_machine_traces():
    for t in enumerate_terms(6, free_vars=1):
        out = run(t, Strategy.JT, 0, keep_trace=True)
        replay_j_trace(out.trace)  # must not raise


def test_replay_rejects_a_non_j_step():
    entry = TraceEntry(StepKind.T, term("(\\x.x) y"), term("y"), 0)
    with pytest.raises(InvalidTrace, match="not a J-step"):
        replay_j_trace([entry])


def test_replay_rejects_broken_chaining():
    first = j_trace("H x y")[0]
    second = j_trace("H w")[0]
    with pytest.raises(InvalidTrace, match="chain"):
        replay_j_trace([first, second])


def test_replay_rejects_a_head_that_is_not_an_applied_h():
    entry = TraceEntry(StepKind.J_DROP, Var(0), Var(0), 0)
    with pytest.raises(InvalidTrace, match="applied H"):
        replay_j_trace([entry])


def test_replay_rejects_a_kind_that_does_not_match_the_arity():
    before = term("H x")
    entry = TraceEntry(StepKind.J_WRAP, before, j_step(before), 0)
    with pytest.raises(InvalidTrace, match="should be j_drop"):
        replay_j_trace([entry])


def test_replay_rejects_a_fabricated_after_term():
    entry = TraceEntry(StepKind.J_DROP, term("H x"), term("y", ("x", "y")), 0)
    with pytest.raises(InvalidTrace, match="J-contraction"):
        replay_j_trace([entry])


def test_lift_with_no_arguments_is_the_identity():
    trace = j_trace("H x y")
    witness = lift_j_trace(trace, ())
    assert witness.lifted == tuple(trace)
    assert witness.primed_args == ()
    assert witness.residuals == ()


def test_lift_carries_a_wrap_step_past_an_appended_argument():
    frees = ("x", "y", "w")
    trace = j_trace("H x y", frees)  # H x y -> x (H y), a wrap
    w = term("w", frees)
    witness = lift_j_trace(trace, (w,))
    [entry] = witness.lifted
    assert entry.kind is StepKind.J_WRAP
    assert entry.before == term("H x y w", frees)
    assert entry.after == term("x (H y) w", frees)
    assert witness.primed_args == (w,)  # no drops, so nothing to undo
    assert witness.residuals == ((),)


def test_lift_turns_a_drop_into_a_wrap_onto_the_first_argument():
    frees = ("x", "w")
    trace = j_trace("H x", frees)  # H x -> x, a drop
    w = term("w", frees)
    witness = lift_j_trace(trace, (w,))
    [entry] = witness.lifted
    assert entry.kind is StepKind.J_WRAP
    assert entry.before == term("H x w", frees)
    assert entry.after == term("x (H w)", frees)
    assert witness.primed_args == (App(H, w),)
    assert witness.residuals == ((TraceEntry(StepKind.J_DROP, App(H, w), w, 0),),)


def test_lift_accumulates_one_wrapper_per_drop():
    frees = ("x", "w")
    trace = j_trace("H (H x)", frees)  # two consecutive drops
    assert [e.kind for e in trace] == [StepKind.J_DROP, StepKind.J_DROP]
    w = term("w", frees)
    witness = lift_j_trace(trace, (w,))
    assert witness.primed_args == (App(H, App(H, w)),)
    assert [e.kind for e in witness.lifted] == [StepKind.J_WRAP, StepKind.J_WRAP]
    assert witness.lifted[0].before == term("H (H x) w", frees)
    assert witness.lifted[1].after == term("x (H (H w))", frees)
    assert len(witness.residuals[0]) == 2


def test_lift_keeps_later_arguments_untouched():
    frees = ("x", "w", "u")
    trace = j_trace("H x", frees)
    w, u = term("w", frees), term("u", frees)
    witness = lift_j_trace(trace, (w, u))
    assert witness.primed_args == (App(H, w), u)
    assert witness.residuals[1] == ()
    assert witness.lifted[0].after == term("x (H w) u", frees)


def test_lift_rejects_steps_taken_under_a_binder():
    trace = j_trace("\\z.H z")
    assert spine(trace[0].before)[0] == 1
    lift_j_trace(trace, ())  # fine while nothing is appended
    with pytest.raises(InvalidTrace, match="binder prefix"):
        lift_j_trace(trace, (I,))


def test_lift_validates_the_trace_before_lifting():
    entry = TraceEntry(StepKind.T, term("(\\x.x) y"), term("y"), 0)
    with pytest.raises(InvalidTrace):
        lift_j_trace([entry], (I,))


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


def test_lemma_suite_reports_counterexamples_when_extraction_is_broken(monkeypatch):
    # identity is idempotent, so only the shape checks notice the stub
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    report = lemma_suite(enumerate_terms(5, free_vars=1), groups=["extraction"])
    assert not report.ok
    by_name = {r.name: r for r in report.results}
    assert not by_name["extract_no_applied_h"].ok
    assert not by_name["extract_image_shape"].ok
    assert by_name["extract_idempotent"].ok


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
        # the first of three blocks holds fewer than four of this check's
        # failures, so its first four come from more than one block
        name = "lockstep_images_agree"
        first_block = lemma_suite(corpus[: len(corpus) // 3], groups=["equivalence"])
        assert next(r for r in first_block.results if r.name == name).failed < 4
        whole = next(r for r in reports[0].results if r.name == name)
        assert whole.failed > 4 and len(whole.failures) == 4


def test_lemma_suite_draws_from_one_rng_in_sequential_order(monkeypatch):
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(wrap_applied_h(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr("lambdah.equivalence.wrap_applied_h", recording)
    _on_cpus(monkeypatch, 1)  # so that every draw is made in this process
    corpus = _mixed_corpus()
    lemma_suite(corpus, seed=7)
    rng = random.Random(7)
    probes = lambdah.equivalence._PROBES
    replay = []
    for t in corpus:  # extract_pair_congruence
        if isinstance(t, Abs):
            replay.append(wrap_applied_h(t.body, rng))
            replay.append(wrap_applied_h(probes[rng.randrange(len(probes))], rng))
    for t in corpus:  # paired_t_steps_preserve_image
        if spine(t)[1].__class__ is Abs:
            replay.append(wrap_applied_h(t, rng, protect_head=True))
    assert recorded == replay


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
