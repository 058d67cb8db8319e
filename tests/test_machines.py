"""Machine tests: step rules, strategies, fuel and burst-bound accounting."""

import dataclasses
import json
import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdah import machines
from lambdah.cli import main
from lambdah.extraction import extract
from lambdah.gen import enumerate_terms, term_stream, wrap_applied_h
from lambdah.machines import (
    MAX_STATE,
    AuxCapExceeded,
    FuelExhausted,
    Hnf,
    Overflow,
    StepError,
    StepKind,
    Strategy,
    i_step,
    j_step,
    run,
    t_step,
    trace_json,
)
from lambdah.syntax import format_term, parse_term
from lambdah.terms import (
    G,
    I,
    J,
    OMEGA,
    Abs,
    App,
    H,
    Tower,
    Var,
    Y,
    apply_args,
    size,
    spine,
    subst_const_h,
    substitute,
)
from oracles import (
    count_h_and_apps,
    finished_burst,
    gen_weights,
    reference_run,
    state_budget,
)


def term(text, frees=None):
    return parse_term(text, free_vars=frees)[0]


def step_text(fn, text):
    t, names = parse_term(text)
    return format_term(fn(t), names)


# ---------- single steps ----------


def test_t_step_contracts_the_head_redex():
    assert step_text(t_step, "(\\x.x) y") == "y"
    assert t_step(OMEGA) == OMEGA


def test_t_step_works_under_binders_and_keeps_arguments():
    t, _ = parse_term("\\z.(\\x.x) z y")
    assert t_step(t) == parse_term("\\z.z y", ("y",))[0]


def test_t_step_rejects_hnf_and_applied_h():
    with pytest.raises(StepError, match="not a beta redex"):
        t_step(term("\\x.x"))
    with pytest.raises(StepError, match="not a beta redex"):
        t_step(term("H x"))


def test_i_step_drops_the_head_h():
    assert step_text(i_step, "H x") == "x"
    assert step_text(i_step, "H x y z") == "x y z"
    assert i_step(term("\\z.H z")) == term("\\z.z")


def test_i_step_shrinks_by_exactly_two_nodes():
    for t in enumerate_terms(6, free_vars=1):
        if isinstance(spine(t)[1], Tower):
            assert size(i_step(t)) == size(t) - 2


def test_i_step_rejects_bare_h_and_variables():
    with pytest.raises(StepError, match="not an applied H"):
        i_step(H)
    with pytest.raises(StepError, match="not an applied H"):
        i_step(term("x y"))


def test_j_step_wraps_the_second_argument():
    assert step_text(j_step, "H x y") == "x (H y)"
    assert step_text(j_step, "H x y z") == "x (H y) z"


def test_j_step_drops_on_a_single_argument():
    assert step_text(j_step, "H x") == "x"
    assert j_step(term("\\z.H z")) == term("\\z.z")


def test_j_step_rejects_bare_h():
    with pytest.raises(StepError, match="not an applied H"):
        j_step(H)


def test_i_and_j_steps_preserve_the_extraction_image():
    for t in enumerate_terms(6, free_vars=1):
        if isinstance(spine(t)[1], Tower):
            assert extract(i_step(t)) == extract(t)
            assert extract(j_step(t)) == extract(t)


# ---------- the machine ----------


def test_run_returns_hnf_immediately_on_a_normal_form():
    out = run(term("\\x.x"), Strategy.T_HEAD, 10)
    assert out == Hnf(Abs(Var(0)), 0, 0, None)


def test_run_it_machine_interleaves_i_and_t_steps():
    # H (\x.x) y: one i-step exposes the redex, one t-step finishes
    out = run(term("H (\\x.x) y"), Strategy.IT, 10)
    assert isinstance(out, Hnf)
    assert out.result == Var(0)
    assert out.t_steps == 1
    assert out.aux_steps == 1


def test_run_jt_machine_on_the_same_term():
    # j-wrap gives (\x.x) (H y), the t-step gives H y, then j-drop
    out = run(term("H (\\x.x) y"), Strategy.JT, 10, keep_trace=True)
    assert isinstance(out, Hnf)
    assert out.result == Var(0)
    assert out.t_steps == 1
    assert out.aux_steps == 2
    assert [e.kind for e in out.trace] == [StepKind.J_WRAP, StepKind.T, StepKind.J_DROP]


def test_run_fuel_counts_t_steps_only():
    # H H H x needs aux steps but no t-steps, so fuel 0 still finishes
    out = run(term("H H H x"), Strategy.IT, 0)
    assert isinstance(out, Hnf)
    assert out.t_steps == 0


def test_run_fuel_exhaustion_reports_unknown_not_unsolvable():
    out = run(OMEGA, Strategy.T_HEAD, 1000)
    assert isinstance(out, FuelExhausted)
    assert out.t_steps == 1000
    # omega steps to itself, so the last term is omega again
    assert out.last == OMEGA


def test_run_pure_strategies_stop_when_head_is_not_applied_h():
    # the pure I and J runs are IT and JT at fuel 0
    out = run(term("H x ((\\y.y) z)"), Strategy.IT, 0)
    assert isinstance(out, Hnf)
    assert format_term(out.result, ("x", "z")) == "x ((\\y.y) z)"
    # a pure run does not take the waiting t-step: it is out of fuel
    t = term("(\\x.x) (H y)")
    assert run(t, Strategy.JT, 0) == FuelExhausted(t, 0, 0, None)


def test_run_pure_j_terminates_within_h_times_a():
    for t in enumerate_terms(6, free_vars=1):
        h, a = count_h_and_apps(t)
        out = run(t, Strategy.JT, 0)
        assert finished_burst(out) and out.aux_steps <= h * a, t


# H H .. H w with n Hs: the head H wraps the n - 1 others in turn, so
# the burst takes n + (n - 1) + .. + 1 = n(n + 1)/2 j-steps
H_100_W = "H " * 100 + "w"


def test_a_long_j_burst_is_legal():
    t = term(H_100_W)
    for fuel in (0, 1):
        assert run(t, Strategy.JT, fuel) == Hnf(Var(0), 0, 5050)


# the pure J run is jt at fuel 0
@pytest.mark.parametrize("fuel", [["--fuel", "0"], []], ids=["j", "jt"])
def test_a_long_j_burst_is_legal_on_the_command_line(capsys, fuel):
    assert main(["reduce", H_100_W, "--strategy", "jt", *fuel]) == 0
    assert capsys.readouterr().out == "hnf (t_steps=0, aux_steps=5050)\nw\n"


h_leaves = st.sampled_from([H, H, Var(0), Var(1)])


@st.composite
def deep_h_terms(draw):
    # one long spine grown by binders, applications and H wrappers
    t = draw(h_leaves)
    for step in draw(st.lists(st.sampled_from("bfah"), max_size=300)):
        if step == "b":
            t = Abs(t)
        elif step == "f":
            t = App(t, draw(h_leaves))
        elif step == "a":
            t = App(draw(h_leaves), t)
        else:
            t = App(H, t)
    return t


wide_h_terms = st.recursive(
    h_leaves,
    lambda sub: st.one_of(
        st.builds(Abs, sub), st.builds(App, sub, sub), st.builds(App, st.just(H), sub)
    ),
    max_leaves=100,
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(deep_h_terms(), wide_h_terms))
def test_pure_bursts_stay_within_their_proven_bounds(t):
    h, a = count_h_and_apps(t)
    out = run(t, Strategy.JT, 0)
    assert finished_burst(out) and out.aux_steps <= h * a
    out = run(t, Strategy.IT, 0)
    assert finished_burst(out) and out.aux_steps <= h


def test_a_burst_that_outruns_its_bound_raises(monkeypatch):
    # a contraction that leaves the head in place never ends a burst, so
    # only the guard stops it, after size**2 // 4 steps
    monkeypatch.setattr(machines, "_lower", lambda head, n, wrap, stack: head)
    for text in ("H x", "H x y", "\\z.H H z"):
        t = term(text)
        cap = size(t) ** 2 // 4
        for strategy, fuel in product((Strategy.IT, Strategy.JT), (0, 1)):
            message = rf"^{cap} consecutive [ij]-steps \(cap {cap}\) from "
            with pytest.raises(AuxCapExceeded, match=message):
                run(t, strategy, fuel)


def test_run_is_deterministic():
    for t in islice(term_stream(8, 15, free_vars=2), 100):
        assert run(t, Strategy.IT, 50) == run(t, Strategy.IT, 50)
        assert run(t, Strategy.JT, 50) == run(t, Strategy.JT, 50)


def test_trace_chains_and_counts_t_steps():
    out = run(term("H (\\x.x x) (H y)"), Strategy.IT, 20, keep_trace=True)
    assert isinstance(out, Hnf)
    previous = None
    seen_t = 0
    for entry in out.trace:
        if previous is not None:
            assert entry.before == previous
        if entry.kind is StepKind.T:
            seen_t += 1
        assert entry.t_steps == seen_t
        previous = entry.after
    assert seen_t == out.t_steps


def test_trace_json_schema():
    out = run(term("H (\\x.x) y"), Strategy.JT, 10, keep_trace=True)
    record = json.loads(next(trace_json(out.trace, ("y",))))
    assert record == {
        "kind": "j_wrap",
        "before": "H (\\x.x) y",
        "after": "(\\x.x) (H y)",
        "t_steps": 0,
    }


def test_trace_json_chains_each_after_into_the_next_before():
    out = run(term("H (\\x.x) y"), Strategy.JT, 10, keep_trace=True)
    records = [json.loads(line) for line in trace_json(out.trace, ("y",))]
    assert [r["kind"] for r in records] == ["j_wrap", "t", "j_drop"]
    for previous, record in zip(records, records[1:]):
        assert record["before"] == previous["after"]
    assert records[-1]["after"] == "y"
    # an entry that does not chain is formatted on its own
    lone = json.loads(next(trace_json(out.trace[1:], ("y",))))
    assert lone["before"] == "(\\x.x) (H y)"


def test_every_outcome_reports_its_aux_steps():
    def aux_in_trace(out):
        return sum(1 for e in out.trace if e.kind is not StepKind.T)

    kinds = set()
    terms = list(enumerate_terms(6, free_vars=2))
    for budget in (MAX_STATE, 8):
        with state_budget(budget):
            for t, strategy, fuel in product(terms, (Strategy.IT, Strategy.JT), (0, 1, 3)):
                out = run(t, strategy, fuel, keep_trace=True)
                assert out.aux_steps == aux_in_trace(out), (t, strategy, fuel, budget)
                kinds.add(type(out))
    assert kinds == {Hnf, FuelExhausted}
    # no term of size 6 outgrows a budget of 8 within three t-steps; the
    # doubler outgrows 64 five t-steps in
    with state_budget(64):
        out = run(term(DOUBLER), Strategy.JT, 100, keep_trace=True)
    assert isinstance(out, Overflow)
    assert out.aux_steps == aux_in_trace(out) > 0


# ---------- the state budget ----------

# H applied to a self-applicator twice is the worst case for JT: the
# wrap burst moves the whole chain of head Hs onto the argument, and the
# beta step then duplicates that argument, so the chain doubles at every
# t-step.  Each burst stays within its bound; the growth is across bursts.
DOUBLER = "H (\\x.x x) (\\x.x x)"


def test_jt_overflow_on_a_doubling_h_chain():
    out = run(term(DOUBLER), Strategy.JT, 100, keep_trace=True)
    assert isinstance(out, Overflow)
    # 2^11 head Hs is the first chain over the default budget
    assert out.t_steps == 11
    assert size(out.last) > MAX_STATE
    assert out.trace[-1].after == out.last


def test_explicit_state_budget_stops_sooner():
    with state_budget(64):
        out = run(term(DOUBLER), Strategy.JT, 100)
    assert isinstance(out, Overflow)
    assert out.t_steps == 5
    assert size(out.last) == 73


def test_state_budget_spares_runs_that_stay_small():
    t = term("H (\\x.x) w", frees=["w"])
    with state_budget(50):
        small = run(t, Strategy.JT, 10)
    assert small == run(t, Strategy.JT, 10)


def test_over_budget_input_overflows_before_any_step():
    tower = H
    for _ in range(20):
        tower = App(H, tower)
    with state_budget(10):
        assert run(tower, Strategy.JT, 0) == Overflow(tower, 0, 0, None)


def test_t_only_reduction_ignores_the_state_budget():
    with state_budget(1):
        out = run(OMEGA, Strategy.T_HEAD, 10)
    assert isinstance(out, FuelExhausted)
    assert out.t_steps == 10


# ---------- the unwound machine against the reference driver ----------


def outcome_text(driver, *args, **kwargs):
    """repr of the outcome, or the text of the raised cap error."""
    try:
        return repr(driver(*args, **kwargs))
    except AuxCapExceeded as exc:
        return f"AuxCapExceeded: {exc}"


def assert_trace_chains_by_identity(t, out):
    """Each traced state is one object: the input starts the chain, each
    ``after`` is the next ``before``, and the outcome holds the last."""
    final = out.result if isinstance(out, Hnf) else out.last
    previous = t
    for entry in out.trace:
        assert entry.before is previous
        previous = entry.after
    assert final is previous


def test_run_matches_the_reference_driver_on_every_small_term():
    terms = list(enumerate_terms(6, free_vars=2))
    for budget in (MAX_STATE, 8, 13):
        with state_budget(budget):
            for t, strategy, fuel in product(terms, Strategy, (0, 1, 3)):
                args = (t, strategy, fuel)
                for keep_trace in (False, True):
                    assert outcome_text(run, *args, keep_trace=keep_trace) == outcome_text(
                        reference_run, *args, keep_trace=keep_trace
                    ), (t, strategy, fuel, budget, keep_trace)
                assert_trace_chains_by_identity(t, run(*args, keep_trace=True))


def test_the_state_budget_counts_every_node_of_the_unwound_state():
    # budgets either side of the input's size: the first burst overflows
    # exactly when the whole state, binders and applications included,
    # is over the budget
    overflows = 0
    for t in enumerate_terms(6, free_vars=2):
        for strategy, fuel in product((Strategy.IT, Strategy.JT), (0, 3)):
            for budget in (size(t) - 1, size(t)):
                args = (t, strategy, fuel)
                with state_budget(budget):
                    text = outcome_text(run, *args)
                    assert text == outcome_text(reference_run, *args)
                overflows += text.startswith("Overflow")
    assert overflows > 0


def test_run_matches_the_reference_driver_on_the_duplicator():
    u = term(DOUBLER)
    with state_budget(64):
        for strategy in Strategy:
            for keep_trace in (False, True):
                args = (u, strategy, 100)
                assert outcome_text(run, *args, keep_trace=keep_trace) == outcome_text(
                    reference_run, *args, keep_trace=keep_trace
                )
        out = run(u, Strategy.JT, 100, keep_trace=True)
    assert isinstance(out, Overflow)
    assert_trace_chains_by_identity(u, out)


@st.composite
def towered_terms(draw):
    """A random term with H-wrappers placed by ``wrap_applied_h``, each
    of its towers then raised to a drawn height from 1 to 40."""
    seed = draw(st.integers(0, 2**32 - 1))
    base = next(term_stream(seed, draw(st.integers(2, 14)), free_vars=2))
    with gen_weights(density=draw(st.sampled_from((0.2, 0.5, 0.8)))):
        wrapped = wrap_applied_h(base, random.Random(seed))
    heights = st.integers(1, 40)

    def raised(t):
        if isinstance(t, Tower):
            return Tower(draw(heights), raised(t.base))
        if isinstance(t, App):
            return App(raised(t.fun), raised(t.arg))
        if isinstance(t, Abs):
            return Abs(raised(t.body))
        return t

    return raised(wrapped)


@settings(max_examples=150, deadline=None)
@given(towered_terms(), st.sampled_from((MAX_STATE, 300)))
def test_whole_tower_contractions_match_the_level_at_a_time_reference(t, budget):
    # the repr spells the outcome class, both step counts, the final
    # state and every trace entry
    with state_budget(budget):
        for strategy in Strategy:
            for keep_trace in (False, True):
                args = (t, strategy, 30)
                assert outcome_text(run, *args, keep_trace=keep_trace) == outcome_text(
                    reference_run, *args, keep_trace=keep_trace
                )


def test_jt_takes_the_duplicators_doubling_tower_in_one_contraction():
    # after k t-steps JT holds (\x.x x) (H^(2^k) (\y.y y)), 2^(k+1) + 9
    # nodes, with 2^k aux steps behind it; each burst is one contraction,
    # where taking one level at a time would take 2^60 steps
    u = term(DOUBLER)
    with state_budget(2**70):
        # at fuel 16 a contraction that takes fewer levels than it counts
        # shows at once, where at fuel 60 it would take 2^60 levels
        out = run(u, Strategy.JT, 16)
        assert (out.t_steps, out.aux_steps) == (16, 2**16)
        assert size(out.last) == 2**17 + 9
        out = run(u, Strategy.JT, 60)
    assert isinstance(out, FuelExhausted)
    assert (out.t_steps, out.aux_steps) == (60, 2**60)
    assert size(out.last) == 2**61 + 9
    with state_budget(10**7):
        out = run(u, Strategy.JT, 23)
    assert isinstance(out, Overflow)
    assert (out.t_steps, out.aux_steps) == (23, 4_194_304)


# ---------- a recurring state jumps to the fuel boundary ----------

# Runs that come back to a state they held before a t-step: Omega with
# period 1, H Omega w, H (Y I) and its J reading with period 3, and the
# H-duplicator, which under IT and JT takes one j_drop or i-step per
# t-step.  Which cycles hold equal states that are not the same objects
# at the snapshot depends on where the snapshots land; here it is the
# I reading of the H-duplicator, with period 2.
H_DUPLICATOR = term("(\\x.H (x x)) (\\x.H (x x))")
CYCLES = {
    "Omega": OMEGA,
    "H Omega w": App(App(H, OMEGA), Var(0)),
    "H (Y I)": App(H, App(Y, I)),
    "(H (Y I))[J/H]": subst_const_h(App(H, App(Y, I)), J),
    "H-duplicator": H_DUPLICATOR,
    "H-duplicator[I/H]": subst_const_h(H_DUPLICATOR, I),
}


def allow_substitutions(monkeypatch, limit):
    """From here on ``run`` fails at its ``limit``-th substitution, so a
    run that misses its jump fails at once rather than taking 10**12
    steps."""
    calls = 0

    def counted(body, value):
        nonlocal calls
        calls += 1
        assert calls < limit, f"{limit} substitutions and no jump"
        return substitute(body, value)

    monkeypatch.setattr(machines, "substitute", counted)


@pytest.mark.parametrize("name", CYCLES)
def test_a_cycle_jump_matches_the_reference_driver(name):
    t = CYCLES[name]
    for strategy, fuel in product(Strategy, range(997, 1004)):
        args = (t, strategy, fuel)
        assert outcome_text(run, *args) == outcome_text(reference_run, *args), args


def test_a_jump_counts_the_aux_steps_of_every_period():
    for strategy, fuel in product((Strategy.IT, Strategy.JT), (997, 1003, 10**12)):
        out = run(H_DUPLICATOR, strategy, fuel)
        assert isinstance(out, FuelExhausted) and out.aux_steps == out.t_steps == fuel


@pytest.mark.parametrize("name", CYCLES)
def test_a_cycle_jumps_to_the_fuel_boundary(monkeypatch, name):
    for strategy in Strategy:
        allow_substitutions(monkeypatch, 20)
        out = run(CYCLES[name], strategy, 10**12)
        if not isinstance(out, Hnf):
            assert isinstance(out, FuelExhausted) and out.t_steps == 10**12, strategy


def test_a_traced_cycle_lists_every_step():
    for strategy in Strategy:
        out = run(OMEGA, strategy, 50, keep_trace=True)
        assert isinstance(out, FuelExhausted) and len(out.trace) == 50


def test_growing_states_take_every_step():
    # the duplicator's J side and its JT run never repeat a state
    u = term(DOUBLER)
    for t in (u, subst_const_h(u, J)):
        for strategy in Strategy:
            args = (t, strategy, 300)
            assert outcome_text(run, *args) == outcome_text(reference_run, *args)


def test_an_outcome_without_a_step_holds_the_input_itself():
    for text in ("\\x.x", "(\\x.x) y", "H y"):
        t = term(text)
        for strategy in Strategy:
            with state_budget(1):
                out = run(t, strategy, 0)
            assert (out.result if isinstance(out, Hnf) else out.last) is t


@pytest.mark.parametrize("keep_trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "text, strategy, fuel, budget, cls",
    [
        ("H (\\x.x) y", Strategy.IT, 10, MAX_STATE, Hnf),
        ("(\\x.x x) (\\x.x x)", Strategy.T_HEAD, 3, MAX_STATE, FuelExhausted),
        (DOUBLER, Strategy.JT, 100, 64, Overflow),
    ],
    ids=["hnf", "fuel-exhausted", "overflow"],
)
def test_an_outcome_built_by_run_keeps_its_dataclass_contract(
    text, strategy, fuel, budget, cls, keep_trace
):
    # run sets the slots of its records directly; each must still be the
    # record its constructor builds, and as frozen.  Every outcome class
    # lists its counts and trace in one order after its term.
    for outcome_cls in (Hnf, FuelExhausted, Overflow):
        names = [f.name for f in dataclasses.fields(outcome_cls)]
        assert names[1:] == ["t_steps", "aux_steps", "trace"], outcome_cls
    with state_budget(budget):
        out = run(term(text), strategy, fuel, keep_trace=keep_trace)
        untraced = run(term(text), strategy, fuel)
    assert out.__class__ is cls
    assert (out.trace is not None) is keep_trace
    for record in (out, *(out.trace or ())):
        fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        built = record.__class__(**fields)
        assert record == built and built == record
        assert record.__class__(*fields.values()) == record
        assert hash(record) == hash(built)
        assert repr(record) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.t_steps = 0
    assert dataclasses.replace(out, trace=None) == untraced


def test_single_steps_match_the_reference_driver():
    # at fuel 0, IT and JT take auxiliary steps only
    steps = {
        Strategy.T_HEAD: (1, t_step),
        Strategy.IT: (0, i_step),
        Strategy.JT: (0, j_step),
    }
    for t in enumerate_terms(6, free_vars=2):
        for strategy, (fuel, step) in steps.items():
            first = reference_run(t, strategy, fuel, keep_trace=True).trace
            if first:
                assert step(t) == first[0].after, (t, strategy)


def h_tower(n, t):
    for _ in range(n):
        t = App(H, t)
    return t


def test_an_i_burst_over_a_long_spine():
    # H H .. H x with 20,000 arguments: every i-step drops one, and the
    # machine never rebuilds the spine it has not reached
    t = apply_args(H, [H] * 19999 + [Var(0)])
    with state_budget(10**6):
        assert run(t, Strategy.IT, 0) == Hnf(Var(0), 0, 20000)


def test_a_j_wrap_burst_over_a_long_spine():
    # H^n y a2 .. an with n = 20,000: n j_wraps move the whole tower onto
    # a2, each on a spine of 20,000 arguments, to reach y (H^n a2) a3 .. an
    n = 20000
    rest = [Var(2 + k % 3) for k in range(n - 1)]
    with state_budget(10**6):
        out = run(apply_args(h_tower(n, Var(0)), rest), Strategy.JT, 0)
    assert isinstance(out, Hnf) and out.aux_steps == n
    _, head, args = spine(out.result)
    assert head == Var(0)
    assert args[-2::-1] == rest[1:]
    wrapped, height = args[-1], 0
    while isinstance(wrapped, App) and wrapped.fun is H:
        wrapped, height = wrapped.arg, height + 1
    assert (wrapped, height) == (rest[0], n)


# ---------- J unfolds whole ----------

# J M N reaches M (J N) in five t-steps, J M reaches \z. M (J z) in four
# and bare J reaches \y z. y (J z) in three; an untraced run with the
# fuel for them takes them as one contraction.
UNFOLDINGS = {
    "J x y": (5, "x (J y)"),
    "J x": (4, "\\z. x (J z)"),
    "J": (3, "\\y z. y (J z)"),
}


@pytest.mark.parametrize("text", UNFOLDINGS)
def test_j_unfolds_in_a_fixed_number_of_t_steps(text):
    steps, result = UNFOLDINGS[text]
    t, names = parse_term(text)
    out = run(t, Strategy.T_HEAD, 100)
    assert isinstance(out, Hnf)
    assert out.t_steps == steps
    assert out.result == parse_term(result, names)[0]


@pytest.mark.parametrize("text", UNFOLDINGS)
def test_j_short_of_fuel_for_its_unfolding_steps_one_at_a_time(text):
    steps, _ = UNFOLDINGS[text]
    t = term(text)
    for strategy in Strategy:
        args = (t, strategy, steps - 1)
        assert outcome_text(run, *args) == outcome_text(reference_run, *args)


def test_unfoldings_match_the_reference_driver_on_small_terms_beside_j():
    for t in enumerate_terms(5, free_vars=2):
        for u in (subst_const_h(t, J), App(t, J), App(App(J, t), H), App(App(H, J), t)):
            for strategy, fuel in product(Strategy, (*range(8), 40)):
                args = (u, strategy, fuel)
                assert outcome_text(run, *args) == outcome_text(reference_run, *args), args


def test_the_duplicators_j_side_unfolds_without_substituting(monkeypatch):
    # step by step it takes 3,972 substitutions
    allow_substitutions(monkeypatch, 100)
    out = run(subst_const_h(term(DOUBLER), J), Strategy.T_HEAD, 2000)
    assert isinstance(out, FuelExhausted) and out.t_steps == 2000


@pytest.mark.parametrize("k", range(1, 13))
def test_a_chain_of_js_matches_the_reference_driver(k):
    # J^k x N .. unfolds to x (J^k N) .. in 5k t-steps, which an untraced
    # run takes as one contraction; at every fuel short of the chain's
    # end, and past it, it stops where the step-by-step run stops.  A
    # traced run is compared as a record, field by field: at k = 12 the
    # reprs of the two drivers' traces would spell about 10**9 characters
    for base, n in product((Var(3), term("\\v.v")), range(4)):
        t = subst_const_h(apply_args(h_tower(k, base), [Var(i) for i in range(n)]), J)
        for strategy, fuel in product(Strategy, (*range(5 * k + 7), 300)):
            args = (t, strategy, fuel)
            where = (format_term(t), strategy, fuel)
            assert outcome_text(run, *args) == outcome_text(reference_run, *args), where
            traced = run(*args, keep_trace=True)
            assert traced == reference_run(*args, keep_trace=True), where


@pytest.mark.parametrize("fuel", [2000, 200_000])
def test_the_duplicators_j_side_settles_a_head_per_chain_not_per_j(monkeypatch, fuel):
    # one J per contraction settles the head after every J of the chains
    # this run builds: 409 spine calls at fuel 2,000 and 40,017 at
    # 200,000; a chain per contraction makes 21 and 38
    t = subst_const_h(term(DOUBLER), J)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return spine(*args)

    monkeypatch.setattr(machines, "spine", counted)
    out = run(t, Strategy.T_HEAD, fuel)
    assert isinstance(out, FuelExhausted) and out.t_steps == fuel
    assert calls <= 64


def test_a_j_spelled_out_reduces_like_j():
    spelled = term("(\\z f.f (z z f)) (\\z f.f (z z f)) (\\x y z.y (x z))")
    assert spelled == J and spelled is not J
    for text in ("H x y", "H x", "H", "H (H (H x)) y z", DOUBLER):
        u = term(text)
        for strategy, fuel in product(Strategy, (3, 4, 5, 300)):
            assert run(subst_const_h(u, spelled), strategy, fuel) == run(
                subst_const_h(u, J), strategy, fuel
            )


# ---------- solvability ----------


def test_solvable_identity():
    out = run(term("\\x.x"), Strategy.T_HEAD, 10)
    assert isinstance(out, Hnf)


def test_solvable_omega_is_unknown():
    assert isinstance(run(OMEGA, Strategy.T_HEAD, 500), FuelExhausted)


def test_solvable_identity_applied_to_omega_is_unknown():
    # head reduction unfolds the argument forever
    assert isinstance(run(App(I, OMEGA), Strategy.T_HEAD, 500), FuelExhausted)


# ---------- the named combinators ----------


def test_combinators_match_their_surface_definitions():
    assert I == term("\\x.x")
    assert G == term("\\x y z.y (x z)")
    assert Y == term("(\\z f.f (z z f)) (\\z f.f (z z f))")
    assert J == App(Y, G)
    assert OMEGA == term("(\\x.x x) (\\x.x x)")


def test_j_head_reduces_to_an_eta_layer():
    # three t-steps unfold the fixed point once:
    #   J = Y G ->t (\f.f (Y' Y' f)) G ->t G (Y G) ->t \y z.y (Y G z)
    # an hnf with two binders whose head is the outer binder
    out = run(J, Strategy.T_HEAD, 50)
    assert isinstance(out, Hnf)
    assert out.t_steps == 3
    binders, head, args = spine(out.result)
    assert binders == 2
    assert head == Var(1)
    assert len(args) == 1


def test_y_is_a_fixed_point_combinator():
    # Y f ->t (\g.g (Y g)) f ->t f (Y f): two t-steps reach the unfolding
    f = Var(0)
    out = run(App(Y, f), Strategy.T_HEAD, 2)
    assert isinstance(out, Hnf)
    assert out.t_steps == 2
    assert out.result == App(f, App(Y, f))
