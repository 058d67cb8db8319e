"""Command line interface.

    lambdah fmt FILE                 reformat a file of terms
    lambdah extract TERM             print the extraction image
    lambdah reduce TERM              run a head machine (t: head reduction)
    lambdah lockstep TERM            IT vs JT comparison
    lambdah check                    invariant suite over generated corpora
    lambdah corpus FILE              context agreement report

Term arguments use the surface grammar; the uppercase names I, J, Y, G
and Omega expand to the built-in combinators.  Exit status: 0 on
success, 1 when a property is violated or verdicts disagree, 2 on usage
or parse errors and on a file that cannot be read.  Output for a given
invocation is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from .equivalence import (
    LockstepVerdict,
    agreement_row_json,
    agreement_tally,
    corpus_lines,
    lemma_suite,
    lockstep,
    read_corpus,
    theorem_check,
    verdict_word,
)
from .extraction import extract
from .gen import enumerate_terms, term_stream
from .machines import (
    AuxCapExceeded,
    Hnf,
    Overflow,
    Strategy,
    run,
    trace_json,
)
from .syntax import ParseError, format_term, parse_term


# ---------- subcommands ----------


def _cmd_fmt(args) -> int:
    source = sys.stdin if args.file == "-" else open(args.file, encoding="utf-8")
    try:
        for _, term, names in corpus_lines(source):
            print(format_term(term, names))
    finally:
        if source is not sys.stdin:  # the caller's stdin stays open
            source.close()
    return 0


def _cmd_extract(args) -> int:
    term, names = parse_term(args.term)
    print(format_term(extract(term), names))
    return 0


def _cmd_reduce(args) -> int:
    term, names = parse_term(args.term)
    strategy = Strategy(args.strategy)
    outcome = run(term, strategy, args.fuel, keep_trace=args.trace)
    if args.trace and outcome.trace:
        if args.json:
            for line in trace_json(outcome.trace, names):
                print(line)
        else:
            for entry in outcome.trace:
                print(f"{entry.kind.value:6} {format_term(entry.after, names)}")
    if isinstance(outcome, Hnf):
        final, word = outcome.result, "hnf"
        header = f"hnf (t_steps={outcome.t_steps}, aux_steps={outcome.aux_steps})"
    elif isinstance(outcome, Overflow):
        final, word = outcome.last, "overflow"
        header = f"state outgrew the budget after {outcome.t_steps} t-steps"
    else:
        final, word = outcome.last, "fuel_exhausted"
        header = f"fuel exhausted after {outcome.t_steps} t-steps"
    text = format_term(final, names)
    if args.json:
        record = {
            "outcome": word,
            "term": text,
            "t_steps": outcome.t_steps,
            "aux_steps": outcome.aux_steps,
        }
        print(json.dumps(record))
    else:
        print(header)
        print(text)
    return 0


def _cmd_lockstep(args) -> int:
    term, names = parse_term(args.term)
    report = lockstep(term, args.max_t)
    if args.json:
        for cp in report.checkpoints:
            print(
                json.dumps(
                    {
                        "t_step": cp.t_step_index,
                        "image_I": format_term(cp.image_i, names),
                        "image_J": format_term(cp.image_j, names),
                        "equal": cp.equal,
                    }
                )
            )
    else:
        for cp in report.checkpoints:
            mark = "==" if cp.equal else "!="
            print(
                f"t-step {cp.t_step_index}: {format_term(cp.image_i, names)} "
                f"{mark} {format_term(cp.image_j, names)}"
            )
    verdict, code = report.verdict, 1
    if verdict is LockstepVerdict.DIVERGED:
        word = f"diverged (one side halted at t-step {report.step})"
    elif verdict is LockstepVerdict.IMAGE_MISMATCH:
        word = f"image mismatch at t-step {report.step}"
    else:
        word, code = verdict.value, 0
    if args.json:
        print(
            json.dumps(
                {
                    "verdict": verdict.value,
                    "t_steps_I": report.t_steps_i,
                    "t_steps_J": report.t_steps_j,
                }
            )
        )
    else:
        print(f"verdict: {word} (t-steps {report.t_steps_i}/{report.t_steps_j})")
    return code


def _cmd_check(args) -> int:
    corpus = list(enumerate_terms(args.max_size, free_vars=1))
    stream = term_stream(args.seed, args.random_size, free_vars=2)
    corpus.extend(islice(stream, args.count))
    groups = None if args.suite == "all" else [args.suite]
    report = lemma_suite(
        corpus, seed=args.seed, fuel=args.fuel, max_t=args.max_t, groups=groups
    )
    name_width = max(len(r.name) for r in report.results)
    print(f"{'check':{name_width}}  checked  skipped  failed")
    for r in report.results:
        print(f"{r.name:{name_width}}  {r.checked:7}  {r.skipped:7}  {r.failed:6}")
        for failure in r.failures:
            print(f"    counterexample: {failure}")
    if report.ok:
        print(f"ok: {len(report.results)} checks over {len(corpus)} terms")
        return 0
    print("FAILED")
    return 1


def _cmd_corpus(args) -> int:
    entries = read_corpus(args.file)
    rows = []
    for entry in entries:
        row = theorem_check(entry.term, args.fuel)
        rows.append(row)
        if args.json:
            print(agreement_row_json(row, entry.free_vars))
        else:
            vi, vj = row.verdict_i, row.verdict_j
            flag = "agree" if row.agree else "DISAGREE"
            print(f"{entry.text}: I={verdict_word(vi)}({vi.t_steps}) "
                  f"J={verdict_word(vj)}({vj.t_steps}) {flag}")
    tally = agreement_tally(rows)
    if args.json:
        print(json.dumps(tally))
    else:
        print(
            f"{tally['contexts']} contexts, {tally['disagreements']} disagreements, "
            f"{tally['both_unknown']} both-unknown"
        )
    return 0 if all(r.agree for r in rows) else 1


# ---------- argument parsing ----------


def _nat(text: str) -> int:
    """A natural number, 0 included: every budget, size and count."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdah",
        description="head reduction workbench for lambda terms with the constant H",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fmt", help="reformat a file of terms (one per line)")
    p.add_argument("file", help="input path, or - for stdin")
    p.set_defaults(fn=_cmd_fmt)

    p = sub.add_parser("extract", help="print the extraction image of a term")
    p.add_argument("term")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("reduce", help="run a head machine on a term")
    p.add_argument("term")
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.IT.value,
        help="t, it, or jt (default it); with --fuel 0, it and jt are pure "
        "I- or J-reduction",
    )
    p.add_argument("--fuel", type=_nat, default=1000, help="t-step budget")
    p.add_argument("--trace", action="store_true", help="print every step")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("lockstep", help="compare the IT and JT machines")
    p.add_argument("term")
    p.add_argument("--max-t", type=_nat, default=100, help="paired t-step budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_lockstep)

    p = sub.add_parser("check", help="run the invariant suite over generated terms")
    p.add_argument(
        "--suite",
        choices=["all", "extraction", "machines", "equivalence"],
        default="all",
    )
    p.add_argument("--max-size", type=_nat, default=5, help="exhaustive portion bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_nat, default=150, help="random portion size")
    p.add_argument("--random-size", type=_nat, default=12, help="random term bound")
    p.add_argument("--fuel", type=_nat, default=300)
    p.add_argument("--max-t", type=_nat, default=50)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("corpus", help="context agreement report for a corpus file")
    p.add_argument("file")
    p.add_argument("--fuel", type=_nat, default=10000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the consumer of our output went away (head, less, ...); an
        # OSError, so it is caught before the one below
        return 0
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AuxCapExceeded as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # flush what remains into the void so the interpreter's own
        # shutdown flush does not complain a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
