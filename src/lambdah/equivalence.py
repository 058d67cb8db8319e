"""Equivalence checking between the I-flavoured and J-flavoured machines.

The central claim mechanised here: a term with the head constant H in it
behaves the same whether H is run by dropping it (I-steps, the identity
reading) or by pushing it inward one argument at a time (J-steps, the
unbounded eta-expansion reading).  Concretely,

  * ``lockstep`` runs the IT and JT machines side by side, pausing after
    each t-step, and compares the extraction images of the two states;
  * ``theorem_check`` compares plain head reduction of U[I/H] against
    U[J/H];
  * ``lemma_suite`` evaluates every step-level invariant over a corpus,
    the bridges from the IT and JT machines on U to those two sides
    among them, and reports counterexamples.

A run that exhausts its fuel or outgrows the state budget is reported
as "unknown", never as a verdict of unsolvability.  Even so, an
agreement row says "disagree" whenever one substituted side reaches a
head normal form and the other does not, including when the other only
ran out of fuel; ``theorem_check`` spells this out.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import takewhile
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .extraction import extract
from .gen import wrap_applied_h
from .machines import (
    Hnf,
    MachineOutcome,
    Overflow,
    StepKind,
    Strategy,
    i_step,
    j_step,
    run,
    t_step,
)
from .syntax import ParseError, format_term, parse_term
from .terms import (
    Abs,
    App,
    ConstH,
    H,
    I,
    J,
    Term,
    Tower,
    Var,
    apply_args,
    size,
    spine,
    subst_const_h,
    substitute,
)


# ---------- lockstep comparison ----------


@dataclass(frozen=True, slots=True)
class BothHnf:
    pass


@dataclass(frozen=True, slots=True)
class BothRunning:
    pass


@dataclass(frozen=True, slots=True)
class Diverged:
    step: int


@dataclass(frozen=True, slots=True)
class EMismatch:
    step: int


LockstepVerdict = BothHnf | BothRunning | Diverged | EMismatch


@dataclass(frozen=True, slots=True)
class Checkpoint:
    t_step_index: int
    image_i: Term
    image_j: Term
    equal: bool


@dataclass(frozen=True, slots=True)
class LockstepReport:
    input: Term
    checkpoints: tuple[Checkpoint, ...]
    verdict: LockstepVerdict
    t_steps_i: int
    t_steps_j: int
    aux_steps_i: int
    aux_steps_j: int


def _final_state(out: MachineOutcome) -> Term:
    return out.result if out.__class__ is Hnf else out.last


@dataclass(slots=True)
class _Side:
    """One machine of a lockstep run, paused between t-steps with its
    eager burst of I- or J-steps already taken."""

    strategy: Strategy
    state: Term
    t_steps: int = 0
    aux_steps: int = 0
    done: bool = False

    def advance(self, fuel: int) -> bool:
        """Take up to ``fuel`` t-steps, each with the burst it exposes;
        fuel 0 takes only the pending burst.  False if the state
        outgrew the budget."""
        out = run(self.state, self.strategy, fuel)
        self.t_steps += out.t_steps
        self.aux_steps += out.aux_steps
        self.done = isinstance(out, Hnf)
        self.state = _final_state(out)
        return not isinstance(out, Overflow)


def lockstep(u: Term, max_t: int) -> LockstepReport:
    """Run IT and JT on ``u`` in lockstep, comparing extraction images
    after each paired t-step.

    States are compared once each machine has taken its eager burst of
    I- or J-steps; those bursts do not move the image, so this checks
    the same equality as pausing immediately after the t-step.  When one
    machine halts, the other gets the rest of the ``max_t`` budget.  A
    side that outgrows the state budget ends the run with the same
    verdicts as running out of paired steps.  The bursts need no budget
    of their own: ``machines.run`` bounds each one by a proof.
    """
    side_i = _Side(Strategy.IT, u)
    side_j = _Side(Strategy.JT, u)
    checkpoints: list[Checkpoint] = []
    fits = side_i.advance(0) and side_j.advance(0)
    equal = True
    while fits and equal and not (side_i.done or side_j.done) and side_i.t_steps < max_t:
        fits = side_i.advance(1) and side_j.advance(1)
        if fits:
            image_i, image_j = extract(side_i.state), extract(side_j.state)
            equal = image_i == image_j
            checkpoints.append(Checkpoint(side_i.t_steps, image_i, image_j, equal))
    verdict: LockstepVerdict
    if not equal:
        verdict = EMismatch(side_i.t_steps)
    elif side_i.done and side_j.done:
        same = extract(side_i.state) == extract(side_j.state)
        verdict = BothHnf() if same else EMismatch(side_i.t_steps)
    elif side_i.done or side_j.done:
        halted, going = (side_i, side_j) if side_i.done else (side_j, side_i)
        if fits:
            going.advance(max_t - going.t_steps)
        verdict = BothHnf() if going.done else Diverged(halted.t_steps)
    else:
        verdict = BothRunning()
    return LockstepReport(
        u,
        tuple(checkpoints),
        verdict,
        side_i.t_steps,
        side_j.t_steps,
        side_i.aux_steps,
        side_j.aux_steps,
    )


# ---------- theorem harness ----------


@dataclass(frozen=True, slots=True)
class AgreementRow:
    context: Term
    verdict_i: MachineOutcome  # head reduction of context[I/H]
    verdict_j: MachineOutcome  # head reduction of context[J/H]

    @property
    def agree(self) -> bool:
        return isinstance(self.verdict_i, Hnf) == isinstance(self.verdict_j, Hnf)

    @property
    def definite(self) -> bool:
        return isinstance(self.verdict_i, Hnf) and isinstance(self.verdict_j, Hnf)


# Head reduction of U[J/H] simulates each J-step of the machine by a
# short burst of t-steps (unfolding the fixed point), so that side gets
# this many times the fuel.  20 is a guess.  The bursts themselves are
# exact: ``machines.run`` takes J's unfoldings as 5 t-steps with two or
# more arguments, 4 with one and 3 with none, and ROADMAP item 1 builds
# on those constants the exact equations that replace the ratio.  The
# curated-corpus benchmark's reference pins an unknown J row to exactly
# ``fuel * 20`` steps until a benchmark-only change loosens that pin.
_J_FUEL_RATIO = 20


def theorem_check(u: Term, fuel: int) -> AgreementRow:
    """Head reduction of U[I/H] and of U[J/H] for one context.

    The U[J/H] side receives ``_J_FUEL_RATIO`` times the fuel.
    ``agree`` compares the two verdicts: it holds when both sides reach
    a head normal form or both run out of fuel.  A side that runs out of
    fuel while the other reaches one is therefore reported as a
    disagreement, although running out of fuel alone says nothing about
    solvability.  Both-unknown rows are tallied separately in reports.
    The IT and JT machines on U itself, the proof's device, are run by
    the ``context_agreement`` check of ``lemma_suite``.
    """
    return AgreementRow(
        u,
        run(subst_const_h(u, I), Strategy.T_HEAD, fuel),
        run(subst_const_h(u, J), Strategy.T_HEAD, fuel * _J_FUEL_RATIO),
    )


def verdict_word(outcome: MachineOutcome) -> str:
    return "hnf" if isinstance(outcome, Hnf) else "unknown"


def agreement_row_json(row: AgreementRow, free_vars: Sequence[str] = ()) -> str:
    return json.dumps(
        {
            "context": format_term(row.context, free_vars),
            "verdict_I": verdict_word(row.verdict_i),
            "verdict_J": verdict_word(row.verdict_j),
            "agree": row.agree,
            "t_steps_I": row.verdict_i.t_steps,
            "t_steps_J": row.verdict_j.t_steps,
        }
    )


def agreement_tally(rows: Sequence[AgreementRow]) -> dict[str, int]:
    """The counts a corpus report ends with, in text and in JSON."""
    return {
        "contexts": len(rows),
        "definite": sum(1 for r in rows if r.definite),
        "both_unknown": sum(
            1
            for r in rows
            if not isinstance(r.verdict_i, Hnf) and not isinstance(r.verdict_j, Hnf)
        ),
        "disagreements": sum(1 for r in rows if not r.agree),
    }


# ---------- corpus files ----------


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    text: str
    free_vars: tuple[str, ...]
    term: Term


def corpus_lines(lines: Iterable[str]) -> Iterator[tuple[str, Term, tuple[str, ...]]]:
    """The contexts of a corpus file, one per line, read lazily, each as
    its text, term and free variables: '#' starts a comment and blank
    lines are ignored.  A ParseError names the line of the file and the
    column in that line."""
    for number, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if text:
            try:
                term, names = parse_term(text)
            except ParseError as exc:
                indent = len(raw) - len(raw.lstrip())
                raise ParseError(exc.message, number, exc.col + indent) from None
            yield text, term, names


def read_corpus(path: str | os.PathLike) -> list[CorpusEntry]:
    """The contexts of the corpus file at ``path`` (``corpus_lines``).
    The uppercase names I, J, Y, G and Omega expand to their combinators."""
    with open(path, encoding="utf-8") as fh:
        return [CorpusEntry(text, names, term) for text, term, names in corpus_lines(fh)]


# ---------- invariant suite ----------


_SKIP = object()

_PROBES: tuple[Term, ...] = (
    I,
    H,
    Abs(H),
    App(H, H),
    Abs(Abs(Var(1))),
    Abs(App(Var(0), H)),
)
_PROBE_IMAGES = tuple(extract(value) for value in _PROBES)


@dataclass(slots=True)
class CheckResult:
    name: str
    group: str
    checked: int = 0
    skipped: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True, slots=True)
class SuiteReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _extract_idempotent(t: Term):
    image = extract(t)
    return None if extract(image) == image else format_term(t)


def _extract_collapse(t: Term):
    # split a tower one H at a time, as an application like any other
    base, args = t, []
    while isinstance(base, App):
        args.append(base.arg)
        base = base.fun
    if not args:
        return _SKIP
    args.reverse()
    image = extract(t)
    for split in range(len(args)):
        operator = apply_args(base, args[:split])
        rebuilt = apply_args(extract(operator), [extract(a) for a in args[split:]])
        if extract(rebuilt) != image:
            return f"{format_term(t)} split at {split}"
    return None


def _extract_substitution(t: Term):
    if not isinstance(t, Abs):
        return _SKIP
    body = t.body
    body_image = extract(body)
    for value, value_image in zip(_PROBES, _PROBE_IMAGES):
        if body_image is body and value_image is value:
            # both sides would be this one call on these very objects
            continue
        lhs = extract(substitute(body, value))
        rhs = extract(substitute(body_image, value_image))
        if lhs != rhs:
            return f"{format_term(t)} with {format_term(value)}"
    return None


def _extract_shape(t: Term):
    # the head of an image is a variable, an abstraction or a bare H
    return format_term(t) if spine(extract(t))[1].__class__ is Tower else None


def _extract_no_applied_h(t: Term):
    # a walk of the image, not its ``holds_tower`` flag: extraction reads
    # that flag, so a fault in it would hide here too
    return format_term(t) if _census(extract(t))[2] else None


def _make_pair_congruence(rng: random.Random) -> Callable:
    def check(t: Term):
        if not isinstance(t, Abs):
            return _SKIP
        left_body = t.body
        right_body = wrap_applied_h(left_body, rng)
        value = _PROBES[rng.randrange(len(_PROBES))]
        wrapped_value = wrap_applied_h(value, rng)
        lhs = extract(substitute(left_body, value))
        rhs = extract(substitute(right_body, wrapped_value))
        if lhs != rhs:
            return f"{format_term(t)} with {format_term(value)}"
        return None

    return check


def _i_step_invariant(t: Term):
    if spine(t)[1].__class__ is not Tower:
        return _SKIP
    stepped = i_step(t)
    if size(stepped) != size(t) - 2:
        return f"{format_term(t)}: size {size(t)} -> {size(stepped)}"
    if extract(stepped) != extract(t):
        return f"{format_term(t)}: image moved"
    return None


def _j_step_invariant(t: Term):
    if spine(t)[1].__class__ is not Tower:
        return _SKIP
    stepped = j_step(t)
    if extract(stepped) != extract(t):
        return f"{format_term(t)}: image moved"
    return None


def _census(t: Term) -> tuple[int, int, int]:
    """The H-nodes h, applications a and towers of a term, a tower of
    height n counting n H's and n applications.  A J-burst from the term
    takes at most h * a steps (proved in ``machines.run``)."""
    h = a = towers = 0
    todo = [t]
    while todo:
        node = todo.pop()
        cls = node.__class__
        if cls is App:
            a += 1
            todo.append(node.fun)
            todo.append(node.arg)
        elif cls is Abs:
            todo.append(node.body)
        elif cls is ConstH:
            h += 1
        elif cls is Tower:
            h += node.height
            a += node.height
            towers += 1
            todo.append(node.base)
    return h, a, towers


def _pure_i_terminates(t: Term):
    out = run(t, Strategy.IT, 0, keep_trace=True)
    # each I-step removes two nodes and at least one is left
    if out.aux_steps > size(t) // 2:
        return f"{format_term(t)}: {out.aux_steps} I-steps from {size(t)} nodes"
    for entry in out.trace:
        if size(entry.after) != size(entry.before) - 2:
            return f"{format_term(t)}: non-shrinking I-step"
    return None


def _pure_j_terminates(t: Term):
    out = run(t, Strategy.JT, 0, keep_trace=True)
    h, a, _ = _census(t)
    if out.aux_steps > h * a:
        return f"{format_term(t)}: {out.aux_steps} J-steps, more than h * a = {h * a}"
    for entry in out.trace:
        if extract(entry.after) != extract(entry.before):
            return f"{format_term(t)}: image moved"
    return None


def _make_paired_t_step(rng: random.Random) -> Callable:
    def check(t: Term):
        if spine(t)[1].__class__ is not Abs:
            return _SKIP
        partner = wrap_applied_h(t, rng, protect_head=True)
        if spine(partner)[1].__class__ is not Abs:
            return _SKIP
        if extract(t_step(t)) != extract(t_step(partner)):
            return f"{format_term(t)} vs {format_term(partner)}"
        return None

    return check


def _make_application_solvability(fuel: int) -> Callable:
    def check(t: Term):
        if t.fv:
            return _SKIP
        first = run(t, Strategy.T_HEAD, fuel)
        if not isinstance(first, Hnf):
            return _SKIP
        bigger = 2 * fuel + 100
        for value in (I, H):
            whole = run(App(t, value), Strategy.T_HEAD, bigger)
            via_hnf = run(App(first.result, value), Strategy.T_HEAD, bigger)
            if isinstance(whole, Hnf) != isinstance(via_hnf, Hnf):
                return f"{format_term(t)} applied to {format_term(value)}"
        return None

    return check


def _make_trace_agreement(fuel: int) -> Callable:
    # an untraced run takes whole towers, J's unfoldings and the cycle
    # jump in one contraction each, a traced one step by step; both
    # must end alike, and running twice shows state leaked between calls
    def check(t: Term):
        for strategy in (Strategy.IT, Strategy.JT):
            traced = run(t, strategy, fuel, keep_trace=True)
            untraced = run(t, strategy, fuel)
            if (
                traced.__class__ is not untraced.__class__
                or traced.t_steps != untraced.t_steps
                or traced.aux_steps != untraced.aux_steps
                or _final_state(traced) != _final_state(untraced)
                or untraced.trace is not None
            ):
                return f"{format_term(t)} under {strategy.value}"
        return None

    return check


def _make_lockstep(max_t: int) -> Callable:
    def check(t: Term):
        report = lockstep(t, max_t)
        match report.verdict:
            case EMismatch(step):
                return f"{format_term(t)}: image mismatch at t-step {step}"
            case Diverged(step):
                return f"{format_term(t)}: one side halted at t-step {step}"
            case BothHnf() if report.t_steps_i != report.t_steps_j:
                return (
                    f"{format_term(t)}: t-step counts differ "
                    f"({report.t_steps_i} vs {report.t_steps_j})"
                )
        return None

    return check


def _make_context_agreement(fuel: int) -> Callable:
    def check(t: Term):
        row = theorem_check(t, fuel)
        if not row.agree:
            return f"{format_term(t)}: substitution verdicts disagree"
        # The IT and JT machines on t itself bridge to the substituted
        # sides, which agree: each reaches a head normal form exactly when
        # they do.  A machine that outgrew the state budget is unknown, so
        # it neither confirms nor refutes its side.
        for strategy, letter in ((Strategy.IT, "I"), (Strategy.JT, "J")):
            machine = run(t, strategy, fuel)
            if isinstance(machine, Overflow) or isinstance(machine, Hnf) == row.definite:
                continue
            return f"{format_term(t)}: {letter}T machine disagrees with {letter}-substitution"
        return None

    return check


def _lift_replays(t: Term):
    """The lifting lemma on the JT burst from ``t``: a J-step sequence
    survives appending an argument W.  A wrap lifts unchanged, and a
    drop H U -> U becomes the wrap H U W -> U (H W), so W collects one
    H per drop, and as many drops peel them off again.

    Each step before the first one under a binder prefix (where no
    argument can be appended at the head) must chain from the state
    before it, be the J-step of its head tower, and lift past W,
    starting from W = I."""
    out = run(t, Strategy.JT, 0, keep_trace=True)
    steps = list(takewhile(lambda entry: not spine(entry.before)[0], out.trace))
    if not steps:
        return _SKIP
    previous, w, drops = t, I, 0
    for i, entry in enumerate(steps):
        _, head, args = spine(entry.before)
        kind = StepKind.J_WRAP if args else StepKind.J_DROP
        lifted_w = App(H, w) if kind is StepKind.J_DROP else w
        if entry.before != previous:
            problem = "does not chain with the previous state"
        elif head.__class__ is not Tower:
            problem = "head is not an applied H"
        elif entry.kind is not kind:
            problem = f"{entry.kind.value} should be {kind.value}"
        elif j_step(entry.before) != entry.after:
            problem = "after-term is not the J-contraction"
        elif j_step(App(entry.before, w)) != App(entry.after, lifted_w):
            problem = "the step does not lift past an argument"
        else:
            previous, w = entry.after, lifted_w
            drops += kind is StepKind.J_DROP
            continue
        return f"{format_term(t)}: entry {i}: {problem}"
    for _ in range(drops):
        w = j_step(w)
    return None if w == I else f"{format_term(t)}: H^{drops} I does not drop to I"


# The most processes that share the suite, and the number of contiguous
# blocks that every check's corpus is cut into.  The blocks are the same
# for any number of processes, so a block's tally and draws are too.
# Each process costs a fork and about 14 MB of resident memory, much of
# it shared with the caller.  The bound also keeps the task ids, all
# written to one pipe before any process reads them, within the 4,096
# bytes that are the least a Linux pipe holds: 16 checks in 8 blocks
# make 128 ids, 256 bytes.
_MAX_JOBS = 8


def _tally(fn: Callable, terms: Sequence[Term]) -> tuple[int, int, int, list[str]]:
    """Checked, skipped and failed counts of one check over ``terms``,
    with the first four failures."""
    checked = skipped = failed = 0
    failures: list[str] = []
    for t in terms:
        try:
            outcome = fn(t)
        except Exception as exc:  # a violation surfacing as an error
            outcome = f"{format_term(t)}: {type(exc).__name__}: {exc}"
        if outcome is _SKIP:
            skipped += 1
            continue
        checked += 1
        if outcome is not None:
            failed += 1
            if len(failures) < 4:
                failures.append(outcome)
    return checked, skipped, failed, failures


def _run_tasks(count: int, run_task: Callable[[int], tuple], jobs: int) -> list[tuple]:
    """``[run_task(i) for i in range(count)]``, shared by up to ``jobs``
    processes: the caller and forked children.

    Every process reads task ids from one pipe until it is empty, which
    balances the load without guessing costs.  A child sends its results
    back with ``marshal`` (so they must be plain data) and ends with
    ``os._exit``.  A task whose result does not come back, because a
    child died or could not be forked, is run by the caller; where
    ``os.fork`` is missing the caller runs them all.  No child outlives
    the call.
    """
    import marshal
    import signal

    queue, queue_w = os.pipe()
    os.write(queue_w, b"".join(i.to_bytes(2, "little") for i in range(count)))
    os.close(queue_w)

    def drain() -> dict[int, tuple]:
        mine = {}
        while ident := os.read(queue, 2):
            i = int.from_bytes(ident, "little")
            mine[i] = run_task(i)
        return mine

    children: list[tuple[int, BinaryIO]] = []
    try:
        for _ in range(min(jobs, count) - 1 if hasattr(os, "fork") else 0):
            back, back_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(back)
                os.close(back_w)
                break
            if pid == 0:
                try:
                    with open(back_w, "wb") as out:
                        marshal.dump(drain(), out)
                finally:
                    os._exit(0)
            os.close(back_w)
            children.append((pid, open(back, "rb")))
        done = drain()
        for _, back_r in children:
            try:
                done.update(marshal.loads(back_r.read()))
            except (EOFError, ValueError):  # the child died before it wrote them all
                pass
        return [done[i] if i in done else run_task(i) for i in range(count)]
    finally:
        os.close(queue)
        for pid, back_r in children:
            back_r.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def lemma_suite(
    corpus: Iterable[Term],
    *,
    seed: int = 0,
    fuel: int = 300,
    max_t: int = 50,
    groups: Sequence[str] | None = None,
) -> SuiteReport:
    """Evaluate every extraction, step, and equivalence invariant over a
    corpus.  A raised violation (a burst past its cap) is recorded as a
    failure on the offending term rather than aborting the sweep.

    One process per CPU that this one may use (its affinity mask, as
    ``taskset`` sets it), at most eight, shares the work.  A check's row,
    its counts, failures and their order, is the same for any number of
    them and whichever ``groups`` run beside it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    jobs = min(cpus, _MAX_JOBS)
    terms = list(corpus)
    every = {"extraction", "machines", "equivalence"}
    wanted = set(groups) if groups else every
    if wanted - every:
        raise ValueError(f"unknown check group: {', '.join(sorted(wanted - every))}")
    checks: list[tuple[str, str, Callable]] = [
        ("extract_idempotent", "extraction", _extract_idempotent),
        ("extract_application_collapse", "extraction", _extract_collapse),
        ("extract_commutes_with_substitution", "extraction", _extract_substitution),
        ("extract_pair_congruence", "extraction", _make_pair_congruence),
        ("extract_image_shape", "extraction", _extract_shape),
        ("extract_no_applied_h", "extraction", _extract_no_applied_h),
        ("i_step_shrinks_and_preserves_image", "machines", _i_step_invariant),
        ("j_step_preserves_image", "machines", _j_step_invariant),
        ("pure_i_terminates", "machines", _pure_i_terminates),
        ("pure_j_terminates", "machines", _pure_j_terminates),
        ("paired_t_steps_preserve_image", "machines", _make_paired_t_step),
        ("application_solvability", "machines", _make_application_solvability(fuel)),
        ("traced_runs_match_untraced", "machines", _make_trace_agreement(fuel)),
        ("lockstep_images_agree", "equivalence", _make_lockstep(max_t)),
        ("context_agreement", "equivalence", _make_context_agreement(fuel)),
        ("lifted_j_traces_replay", "equivalence", _lift_replays),
    ]
    checks = [check for check in checks if check[1] in wanted]
    # Task i is check i // _MAX_JOBS over block i % _MAX_JOBS.  A check
    # that draws gets a generator of its own in each block, seeded by a
    # str (hashed with SHA-512, the same on every Python version), so its
    # draws depend on neither the processes nor the other checks.
    cuts = [len(terms) * k // _MAX_JOBS for k in range(_MAX_JOBS + 1)]

    def run_task(i: int) -> tuple:
        c, k = divmod(i, _MAX_JOBS)
        name, _, check = checks[c]
        if check in (_make_pair_congruence, _make_paired_t_step):
            check = check(random.Random(f"{seed} {name} {k}"))
        return _tally(check, terms[cuts[k] : cuts[k + 1]])

    results = [CheckResult(name, group) for name, group, _ in checks]
    done = _run_tasks(len(checks) * _MAX_JOBS, run_task, jobs)
    for i, (checked, skipped, failed, failures) in enumerate(done):
        result = results[i // _MAX_JOBS]
        result.checked += checked
        result.skipped += skipped
        result.failed += failed
        result.failures += failures[: 4 - len(result.failures)]
    return SuiteReport(tuple(results))
