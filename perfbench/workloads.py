"""The three workloads: their inputs, one pass each, and the output checks.

A pass runs the ``lambdah`` command in process through
``lambdah.cli.entry`` with ``sys.argv`` set and stdout captured, so it
pays exactly the set-up a user's invocation pays.  The capture notes
when each output line ends; the time between consecutive lines is the
time the command spent on the item that line reports.

Each workload checks its first pass against ``reference`` (code that
shares nothing with lambdah) or against a property the method must
have; later passes must print the same bytes as the checked one.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
CONTEXTS = ROOT / "tests" / "data" / "contexts.txt"
WORK = ROOT / "perfbench" / "work"


class _LineClock(io.StringIO):
    """A stdout stand-in that records when each line is completed."""

    def __init__(self) -> None:
        super().__init__()
        self.line_ends: list[float] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        for _ in range(s.count("\n")):
            self.line_ends.append(time.perf_counter())
        return n


@dataclass
class Invocation:
    code: int
    out: str
    seconds: float
    line_seconds: list[float]  # time from the previous line end to each line end


def invoke(argv: list[str], stdin_text: str | None = None) -> Invocation:
    from lambdah import cli

    clock = _LineClock()
    saved = sys.argv, sys.stdout, sys.stdin
    sys.argv = ["lambdah", *argv]
    sys.stdout = clock
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    start = time.perf_counter()
    try:
        cli.entry()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        end = time.perf_counter()
        sys.argv, sys.stdout, sys.stdin = saved
    marks = [start, *clock.line_ends]
    gaps = [b - a for a, b in zip(marks, marks[1:])]
    return Invocation(code, clock.getvalue(), end - start, gaps)


@dataclass
class Pass:
    seconds: float
    item_seconds: list[float]  # per-item times, when the output shows them
    items: int
    outputs: tuple[str, ...]
    codes: tuple[int, ...]
    extra: dict = field(default_factory=dict)


# ---------- curated-corpus ----------


class CuratedCorpus:
    """``lambdah corpus FILE --fuel 100 --json`` over the curated contexts,
    in an order drawn from the seed."""

    name = "curated-corpus"
    fuel = 100
    j_fuel = 100 * 20  # the command's default --j-fuel-ratio

    def __init__(self, seed: int) -> None:
        lines = []
        for raw in CONTEXTS.read_text(encoding="utf-8").splitlines():
            text, _, comment = raw.partition("#")
            if text.strip():
                lines.append((text.strip(), "diverges" in comment))
        random.Random(seed).shuffle(lines)
        self.entries = lines
        WORK.mkdir(parents=True, exist_ok=True)
        self.path = WORK / f"contexts-seed{seed}.txt"
        body = "".join(
            f"{text}{'  # diverges' if div else ''}\n" for text, div in lines
        )
        self.path.write_text(body, encoding="utf-8")

    def run_pass(self) -> Pass:
        r = invoke(["corpus", str(self.path), "--fuel", str(self.fuel), "--json"])
        rows = len(self.entries)
        return Pass(r.seconds, r.line_seconds[:rows], rows, (r.out,), (r.code,))

    def check(self, p: Pass) -> list[str]:
        problems: list[str] = []
        if p.codes != (0,):
            problems.append(f"exit status {p.codes[0]}")
        lines = p.outputs[0].splitlines()
        if len(lines) != len(self.entries) + 1:
            return problems + [f"{len(lines)} output lines for {len(self.entries)} contexts"]
        rows = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])
        if summary.get("contexts") != len(self.entries) or summary.get("disagreements") != 0:
            problems.append(f"summary {summary}")
        beta = 0
        for (text, diverges), row in zip(self.entries, rows):
            beta += row["t_steps_I"] + row["t_steps_J"]
            if row["agree"] is not True:
                problems.append(f"{text}: reported as a disagreement")
            context = ref.parse(text, ref.BUILTINS)
            unknown_both = row["verdict_I"] == "unknown" and row["verdict_J"] == "unknown"
            if unknown_both != diverges:
                problems.append(f"{text}: both unknown is {unknown_both}, file says {diverges}")
            for side, value, fuel in (("I", "I", self.fuel), ("J", "J", self.j_fuel)):
                verdict, steps = row[f"verdict_{side}"], row[f"t_steps_{side}"]
                if verdict == "unknown":
                    if steps != fuel:
                        problems.append(f"{text}: {side} side stopped after {steps} of {fuel}")
                    if side == "I":
                        # cheap on this side; the J side of a duplicator is not
                        hnf, _, _ = ref.head_reduce(ref.subst_h(context, ref.BUILTINS[value]), fuel)
                        if hnf:
                            problems.append(f"{text}: I side reaches an hnf")
                    continue
                hnf, ref_steps, _ = ref.head_reduce(ref.subst_h(context, ref.BUILTINS[value]), fuel)
                if verdict != "hnf" or not hnf or ref_steps != steps:
                    problems.append(
                        f"{text}: {side} side {verdict}({steps}), reference "
                        f"{'hnf' if hnf else 'unknown'}({ref_steps})"
                    )
        self.beta_steps = beta
        return problems


# ---------- check-suite ----------


class CheckSuite:
    """``lambdah check --max-size 8`` with the random portion pinned to its
    defaults (150 terms, seed 0, size 12).  The seed does not reach this
    workload: random portions at other seeds can contain a term whose
    J side runs for tens of seconds (see the README)."""

    name = "check-suite"
    argv = ["check", "--max-size", "8", "--count", "150", "--random-size", "12", "--seed", "0"]

    def __init__(self, seed: int) -> None:
        self.terms = ref.count_up_to(8, free=1) + 150

    def run_pass(self) -> Pass:
        r = invoke(self.argv)
        # the suite prints its table only at the end: every term gets the mean
        return Pass(r.seconds, [], self.terms, (r.out,), (r.code,))

    def check(self, p: Pass) -> list[str]:
        problems: list[str] = []
        if p.codes != (0,):
            problems.append(f"exit status {p.codes[0]}")
        lines = p.outputs[0].splitlines()
        if len(lines) != 18 or lines[0].split() != ["check", "checked", "skipped", "failed"]:
            return problems + [f"unexpected table of {len(lines)} lines"]
        names = set()
        for line in lines[1:17]:
            name, checked, skipped, failed = line.split()
            names.add(name)
            if int(failed) != 0:
                problems.append(f"{name}: {failed} failures")
            if int(checked) + int(skipped) != self.terms:
                problems.append(f"{name}: {checked} checked + {skipped} skipped != {self.terms}")
        if len(names) != 16:
            problems.append(f"{len(names)} distinct checks")
        if lines[17] != f"ok: 16 checks over {self.terms} terms":
            problems.append(f"last line {lines[17]!r}")
        return problems


# ---------- trace-roundtrip ----------


class TraceRoundtrip:
    """``lambdah reduce "H (\\a.a a) (\\b.b b)" --strategy jt --trace``, then
    ``lambdah fmt -`` over the printed states.  The seed picks the two
    binder names and the order in which the states are read back."""

    name = "trace-roundtrip"
    budget = 4096  # the machine's default state budget

    def __init__(self, seed: int) -> None:
        a, b = random.Random(seed).sample("abcdefghijklmnopqrstuvwxyz", 2)
        self.term = f"H (\\{a}.{a} {a}) (\\{b}.{b} {b})"
        self.seed = seed

    def run_pass(self) -> Pass:
        r = invoke(["reduce", self.term, "--strategy", "jt", "--trace"])
        lines = r.out.splitlines()
        states = [line.split(None, 1)[1] for line in lines[:-2]] + lines[-1:]
        order = list(range(len(states)))
        random.Random(self.seed).shuffle(order)
        text = "".join(states[i] + "\n" for i in order)
        f = invoke(["fmt", "-"], stdin_text=text)
        # the budget message line reports no state
        printed = r.line_seconds[:-2] + r.line_seconds[-1:]
        return Pass(
            r.seconds + f.seconds,
            printed + f.line_seconds,
            len(printed) + len(f.line_seconds),
            (r.out, f.out),
            (r.code, f.code),
            {"fmt_input": text},
        )

    def check(self, p: Pass) -> list[str]:
        problems: list[str] = []
        if p.codes != (0, 0):
            problems.append(f"exit statuses {p.codes}")
        trace_out, fmt_out = p.outputs
        if fmt_out != p.extra["fmt_input"]:
            problems.append("fmt did not reproduce the printed states byte for byte")
        lines = trace_out.splitlines()
        entries = [tuple(line.split(None, 1)) for line in lines[:-2]]
        t_steps = sum(1 for kind, _ in entries if kind == "t")
        if lines[-2] != f"state outgrew the budget after {t_steps} t-steps":
            problems.append(f"budget line {lines[-2]!r} after {t_steps} t lines")
        if not entries or lines[-1] != entries[-1][1]:
            problems.append("the final state is not the last traced state")
        parsed = [(kind, ref.parse(state)) for kind, state in entries]
        problems += ref.check_jt_trace(ref.parse(self.term), parsed, self.budget)
        return problems


WORKLOADS = {w.name: w for w in (CuratedCorpus, CheckSuite, TraceRoundtrip)}
