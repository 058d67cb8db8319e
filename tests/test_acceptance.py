"""Acceptance suite: the eight headline properties at full scale.

Corpora: every closed term of size <= 6 (exhaustive, 184 terms), 10,000
seeded random terms of size <= 25 drawn with h_weight 0.5, and a curated
file of contexts placing H at the head, under binders, and inside
arguments.  All counts below are frozen: the generators are pure
functions of their seeds, so a changed count means changed behaviour.

Each test prints one PASS line with its scale and timing; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The curated
context sweep dominates the runtime (about a minute) because one
divergent context unfolds J into linearly growing states.
"""

import time
from itertools import islice
from pathlib import Path

import pytest

from lambdah.equivalence import (
    Diverged,
    EMismatch,
    lockstep,
    read_corpus,
)
from lambdah.extraction import ShapeViolation, classify, extract
from lambdah.gen import GenConfig, enumerate_terms, term_stream
from lambdah.machines import (
    I,
    J,
    OMEGA,
    FuelExhausted,
    Hnf,
    Strategy,
    i_step,
    j_step,
    run,
)
from lambdah.syntax import format_term, parse_term
from lambdah.terms import (
    Abs,
    App,
    H,
    Tower,
    Var,
    apply_args,
    size,
    spine,
    subst_const_h,
    substitute,
)
from oracles import (
    application_spine,
    count_h_and_apps,
    count_terms,
    finished_burst,
    oracle_substitute,
)

SEED = 7
LOCKSTEP_SEED = 11
RANDOM_COUNT = 10_000
RANDOM_SIZE = 25
H_WEIGHT = 0.5

CONTEXT_FILE = Path(__file__).parent / "data" / "contexts.txt"

PROBES = (I, H, Abs(H), App(H, H), Abs(Abs(Var(1))), Abs(App(Var(0), H)))


@pytest.fixture(scope="module")
def closed6():
    return list(enumerate_terms(6))


@pytest.fixture(scope="module")
def random_corpus():
    cfg = GenConfig(
        seed=SEED, max_size=RANDOM_SIZE, free_vars=2, h_weight=H_WEIGHT
    )
    return list(islice(term_stream(cfg), RANDOM_COUNT))


@pytest.fixture(scope="module")
def corpus(closed6, random_corpus):
    return closed6 + random_corpus


def test_extraction_laws_hold_at_scale(corpus):
    start = time.monotonic()
    bad = []
    for t in corpus:
        image = extract(t)
        if extract(image) != image:
            bad.append(("idempotence", format_term(t)))
        base, args = application_spine(t)
        for split in range(len(args)):
            operator = apply_args(base, args[:split])
            rebuilt = apply_args(
                extract(operator), [extract(a) for a in args[split:]]
            )
            if extract(rebuilt) != image:
                bad.append(("collapse", format_term(t)))
                break
        if isinstance(t, Abs):
            for value in PROBES:
                lhs = extract(substitute(t.body, value))
                rhs = extract(substitute(extract(t.body), extract(value)))
                if lhs != rhs:
                    bad.append(("substitution", format_term(t)))
                    break
        try:
            classify(image)
        except ShapeViolation:
            bad.append(("shape", format_term(t)))
    elapsed = time.monotonic() - start
    assert len(corpus) == 184 + RANDOM_COUNT
    assert bad == []
    assert elapsed < 60.0
    print(f"PASS extraction laws: {len(corpus)} terms, 0 counterexamples, {elapsed:.1f}s")


def test_single_aux_steps_preserve_the_image(corpus):
    checked = 0
    for t in corpus:
        if not isinstance(spine(t)[1], Tower):
            continue
        checked += 1
        image = extract(t)
        assert extract(i_step(t)) == image, format_term(t)
        assert extract(j_step(t)) == image, format_term(t)
    assert checked == 2017  # applied-H terms in the frozen corpus
    print(f"PASS step invariance: {checked} applied-H terms, I and J steps image-stable")


def test_pure_strategies_terminate_within_their_caps(corpus):
    i_steps = j_steps = 0
    for t in corpus:
        # the pure I and J runs are IT and JT at fuel 0; each I-step
        # removes exactly two nodes, so at most size // 2 of them
        out = run(t, Strategy.IT, 0, keep_trace=True)
        assert finished_burst(out) and out.aux_steps <= size(t) // 2, format_term(t)
        for entry in out.trace:
            assert size(entry.after) == size(entry.before) - 2, format_term(t)
        i_steps += out.aux_steps
        h, a = count_h_and_apps(t)
        out = run(t, Strategy.JT, 0)
        assert finished_burst(out) and out.aux_steps <= h * a, format_term(t)
        j_steps += out.aux_steps
    print(
        f"PASS termination: {len(corpus)} terms, {i_steps} I-steps all shrinking, "
        f"{j_steps} J-steps, each run within h*a"
    )


def test_lockstep_runs_agree_at_every_checkpoint():
    cfg = GenConfig(
        seed=LOCKSTEP_SEED, max_size=RANDOM_SIZE, free_vars=2, h_weight=H_WEIGHT
    )
    checkpoints = stepped = 0
    for t in islice(term_stream(cfg), 1000):
        report = lockstep(t, 100)
        assert not isinstance(report.verdict, EMismatch), format_term(t)
        assert not isinstance(report.verdict, Diverged), format_term(t)
        assert all(cp.equal for cp in report.checkpoints), format_term(t)
        checkpoints += len(report.checkpoints)
        if report.t_steps_i:
            stepped += 1
    assert stepped == 585  # frozen: over half the runs take t-steps
    assert checkpoints == 1011
    print(
        f"PASS lockstep: 1000 runs, {checkpoints} checkpoints all image-equal, "
        "0 mismatches, 0 one-sided halts"
    )


def test_machine_verdicts_bridge_to_substituted_runs(closed6):
    fuel = 500
    solved_rows = 0
    for u in closed6:
        verdict_it = run(u, Strategy.IT, fuel)
        verdict_i = run(subst_const_h(u, I), Strategy.T_HEAD, fuel)
        assert isinstance(verdict_it, Hnf) == isinstance(verdict_i, Hnf), format_term(u)
        verdict_jt = run(u, Strategy.JT, fuel)
        verdict_j = run(subst_const_h(u, J), Strategy.T_HEAD, fuel * 20)
        assert isinstance(verdict_jt, Hnf) == isinstance(verdict_j, Hnf), format_term(u)
        solved_rows += isinstance(verdict_i, Hnf)
    # every closed term of size <= 6 is solvable, so nothing is vacuous
    assert solved_rows == len(closed6) == 184
    print("PASS bridges: 184 closed contexts, machine and substituted verdicts equal")


def test_curated_contexts_never_disagree():
    entries = read_corpus(CONTEXT_FILE)
    texts = {e.text for e in entries}
    # the families the corpus must cover
    assert {"H", "H w", "H Omega", "\\x.H x", "H (\\x.x x) (\\x.x x)"} <= texts
    assert {"H (H w)", "H (H (H w))"} <= texts  # nested
    assert {"x (H w)", "\\x.x (H x)"} <= texts  # H inside arguments
    assert len(entries) >= 30

    start = time.monotonic()
    definite = unknown = disagreements = 0
    for e in entries:
        verdict_i = run(subst_const_h(e.term, I), Strategy.T_HEAD, 10_000)
        verdict_j = run(subst_const_h(e.term, J), Strategy.T_HEAD, 10_000)
        if isinstance(verdict_i, Hnf) != isinstance(verdict_j, Hnf):
            disagreements += 1
        elif isinstance(verdict_i, Hnf):
            definite += 1
        else:
            unknown += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert (definite, unknown) == (29, 4)  # only the divergent rows stay unknown
    print(
        f"PASS curated contexts: {len(entries)} contexts, {definite} definite, "
        f"{unknown} both-unknown, 0 disagreements, {elapsed:.0f}s"
    )


def test_reduction_anchors():
    out = run(J, Strategy.T_HEAD, 50)
    assert isinstance(out, Hnf)
    assert out.t_steps == 3
    binders, head, _ = spine(out.result)
    assert binders == 2
    assert head == Var(1)  # the outermost of the two binders

    om = run(OMEGA, Strategy.T_HEAD, 1000)
    assert isinstance(om, FuelExhausted)
    assert om.t_steps == 1000

    t, names = parse_term("H x y")
    assert format_term(extract(t), names) == "x y"
    print("PASS anchors: J head-normalises to its two-binder form, Omega does not, "
          "extract(H x y) = x y")


def test_syntax_and_substitution_infrastructure():
    per_size: dict[int, int] = {}
    for t in enumerate_terms(6):
        per_size[size(t)] = per_size.get(size(t), 0) + 1
    assert [per_size[n] for n in range(1, 7)] == [count_terms(n, 0) for n in range(1, 7)]
    assert [per_size[n] for n in range(1, 7)] == [1, 2, 4, 12, 38, 127]

    round_trips = oracle_checks = 0
    for t in enumerate_terms(8):
        text = format_term(t)
        again, names = parse_term(text)
        assert names == () and again == t, text
        round_trips += 1
        if isinstance(t, App) and isinstance(t.fun, Abs):
            assert substitute(t.fun.body, t.arg) == oracle_substitute(
                t.fun.body, t.arg
            ), text
            oracle_checks += 1
    assert round_trips == 2411
    assert oracle_checks == 392
    print(
        f"PASS infrastructure: {round_trips} print/parse round trips, "
        f"{oracle_checks} substitutions equal the naive oracle, counts match"
    )
