"""End-to-end tests for the command line interface via main(argv)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lambdah
from lambdah.cli import entry, main
from lambdah.equivalence import LockstepReport, LockstepVerdict, read_corpus
from lambdah.syntax import format_term, parse_term
from oracles import state_budget


def lines(capsys):
    return capsys.readouterr().out.splitlines()


# ---------- term commands ----------


def test_extract_prints_the_image(capsys):
    assert main(["extract", "H x y"]) == 0
    assert lines(capsys) == ["x y"]


def test_extract_expands_builtin_combinator_names(capsys):
    assert main(["extract", "H I"]) == 0
    assert lines(capsys) == ["\\x.x"]


def test_reduce_reports_the_hnf_and_step_counts(capsys):
    assert main(["reduce", "H (\\x.x) y", "--strategy", "it"]) == 0
    assert lines(capsys) == ["hnf (t_steps=1, aux_steps=1)", "y"]


def test_reduce_trace_lists_every_step(capsys):
    assert main(["reduce", "H (\\x.x) y", "--strategy", "jt", "--trace"]) == 0
    assert lines(capsys) == [
        "j_wrap (\\x.x) (H y)",
        "t      H y",
        "j_drop y",
        "hnf (t_steps=1, aux_steps=2)",
        "y",
    ]


def test_reduce_json_on_fuel_exhaustion(capsys):
    assert main(["reduce", "Omega", "--strategy", "t", "--fuel", "5", "--json"]) == 0
    assert json.loads(lines(capsys)[0]) == {
        "outcome": "fuel_exhausted",
        "term": "(\\x.x x) (\\y.y y)",
        "t_steps": 5,
        "aux_steps": 0,
    }


def test_reduce_reports_overflow_on_unbounded_growth(capsys):
    # under jt the head H chain doubles at every t-step; the state
    # outgrows the budget long before the fuel runs out
    assert main(["reduce", "H (\\x.x x) (\\x.x x)", "--strategy", "jt"]) == 0
    out = lines(capsys)
    assert out[0] == "state outgrew the budget after 11 t-steps"
    assert len(out) == 2


def test_reduce_overflow_json(capsys):
    assert main(
        ["reduce", "H (\\x.x x) (\\x.x x)", "--strategy", "jt", "--json"]
    ) == 0
    record = json.loads(lines(capsys)[0])
    assert record["outcome"] == "overflow"
    assert record["t_steps"] == 11
    assert record["aux_steps"] == 1024


# ---------- lockstep ----------


def test_lockstep_prints_checkpoints_and_verdict(capsys):
    assert main(["lockstep", "H (\\x.x) y"]) == 0
    assert lines(capsys) == [
        "t-step 1: y == y",
        "verdict: both-hnf (t-steps 1/1)",
    ]


def test_lockstep_readme_transcript(capsys):
    assert main(["lockstep", "(\\f.H f (f H)) (\\y.y)"]) == 0
    assert lines(capsys) == [
        "t-step 1: (\\x.x) ((\\y.y) H) == (\\x.x) ((\\y.y) H)",
        "t-step 2: (\\x.x) H == (\\x.x) H",
        "t-step 3: H == H",
        "verdict: both-hnf (t-steps 3/3)",
    ]


@pytest.mark.parametrize(
    "options, report",
    [(["--json"], "lockstep-contexts.jsonl"), ([], "lockstep-contexts.txt")],
    ids=["json", "text"],
)
def test_lockstep_prints_the_committed_curated_reports(capsys, options, report):
    # every checkpoint and verdict of the curated contexts, as
    # `lambdah lockstep CONTEXT --max-t 20` prints them one after another
    data = Path(__file__).parent / "data"
    for entry in read_corpus(data / "contexts.txt"):
        assert main(["lockstep", entry.text, "--max-t", "20", *options]) == 0
    assert capsys.readouterr().out == (data / report).read_text(encoding="utf-8")


def test_lockstep_prints_the_verdicts_a_state_budget_reaches(capsys):
    # the duplicator's J side outgrows 64 nodes at its fifth t-step;
    # under 13 nodes the J side of the second term overflows right
    # after the I side halts
    image = "(\\x.x x) (\\y.y y)"
    with state_budget(64):
        assert main(["lockstep", "H (\\x.x x) (\\x.x x)"]) == 0
    assert lines(capsys) == [
        *(f"t-step {k}: {image} == {image}" for k in range(1, 5)),
        "verdict: both-running (t-steps 5/5)",
    ]
    with state_budget(13):
        assert main(["lockstep", "H H (\\x.x x (\\y.H)) H"]) == 1
        assert lines(capsys) == [
            "verdict: diverged (one side halted at t-step 1) (t-steps 1/1)"
        ]
        assert main(["lockstep", "H H (\\x.x x (\\y.H)) H", "--json"]) == 1
    assert lines(capsys) == [
        json.dumps({"verdict": "diverged", "t_steps_I": 1, "t_steps_J": 1})
    ]


def test_lockstep_json(capsys):
    assert main(["lockstep", "H (\\x.x) y", "--json"]) == 0
    first, last = (json.loads(line) for line in lines(capsys))
    assert first == {"t_step": 1, "image_I": "y", "image_J": "y", "equal": True}
    assert last == {"verdict": "both-hnf", "t_steps_I": 1, "t_steps_J": 1}


def test_lockstep_exit_code_on_a_bad_verdict(capsys, monkeypatch):
    # the comparison itself never fails on real input, so stub the report
    def fake(term, max_t):
        return LockstepReport((), LockstepVerdict.IMAGE_MISMATCH, 0, 0, 0, 0, 0)

    monkeypatch.setattr("lambdah.cli.lockstep", fake)
    assert main(["lockstep", "H x"]) == 1
    assert "image mismatch at t-step 0" in capsys.readouterr().out

    def fake_diverged(term, max_t):
        return LockstepReport((), LockstepVerdict.DIVERGED, 2, 3, 2, 0, 0)

    monkeypatch.setattr("lambdah.cli.lockstep", fake_diverged)
    assert main(["lockstep", "H x"]) == 1
    assert lines(capsys) == ["verdict: diverged (one side halted at t-step 2) (t-steps 3/2)"]


def test_lockstep_json_names_every_verdict(capsys, monkeypatch):
    # one JSON word per verdict, whatever the text line says after it,
    # and the enum reads each word back as its member
    cases = [
        (LockstepVerdict.BOTH_HNF, None, "both-hnf", 0),
        (LockstepVerdict.BOTH_RUNNING, None, "both-running", 0),
        (LockstepVerdict.DIVERGED, 2, "diverged", 1),
        (LockstepVerdict.IMAGE_MISMATCH, 0, "image-mismatch", 1),
    ]
    assert [verdict for verdict, *_ in cases] == list(LockstepVerdict)
    for verdict, step, word, code in cases:
        assert LockstepVerdict(word) is verdict
        monkeypatch.setattr(
            "lambdah.cli.lockstep",
            lambda term, max_t: LockstepReport((), verdict, step, 3, 2, 0, 0),
        )
        assert main(["lockstep", "H x", "--json"]) == code
        assert lines(capsys) == [
            json.dumps({"verdict": word, "t_steps_I": 3, "t_steps_J": 2})
        ]
        assert main(["lockstep", "H x"]) == code
        capsys.readouterr()


# ---------- fmt ----------


def test_fmt_normalises_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("H  x   y # note\n\n\\x . x\n"))
    assert main(["fmt", "-"]) == 0
    assert lines(capsys) == ["H x y", "\\x.x"]


def test_fmt_leaves_the_callers_stdin_open(capsys, monkeypatch):
    stdin = io.StringIO("H x\n")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["fmt", "-"]) == 0
    assert not stdin.closed
    assert lines(capsys) == ["H x"]


def test_fmt_reads_a_file(capsys, tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("(\\x.x) (H y)\n")
    assert main(["fmt", str(path)]) == 0
    assert lines(capsys) == ["(\\x.x) (H y)"]


def test_fmt_reads_back_every_state_of_a_jt_trace(capsys, monkeypatch):
    # the duplicator's JT states are mostly H-towers, 2.8 MB in all
    assert main(["reduce", "H (\\x.x x) (\\x.x x)", "--strategy", "jt", "--trace"]) == 0
    out = lines(capsys)
    assert len(out) == 1037
    assert out[-2] == "state outgrew the budget after 11 t-steps"
    states = "".join(line.split(None, 1)[1] + "\n" for line in out[:-2])
    monkeypatch.setattr("sys.stdin", io.StringIO(states))
    assert main(["fmt", "-"]) == 0
    assert capsys.readouterr().out == states


# ---------- check ----------


def test_check_runs_the_full_suite(capsys):
    code = main(
        ["check", "--max-size", "4", "--count", "10", "--random-size", "8",
         "--fuel", "100", "--max-t", "20"]
    )
    out = lines(capsys)
    assert code == 0
    assert out[0].split() == ["check", "checked", "skipped", "failed"]
    assert out[-1].startswith("ok: 16 checks over ")


def test_check_random_seed_with_a_growing_state(capsys):
    # seed 334 draws (\x.x x) (\y.H y y), whose J side in
    # context_agreement runs 6,000 t-steps on a state that keeps growing
    assert main(["check", "--max-size", "0", "--seed", "334"]) == 0
    assert lines(capsys)[-1] == "ok: 16 checks over 150 terms"


def test_check_suite_filter(capsys):
    code = main(["check", "--suite", "extraction", "--max-size", "3", "--count", "0"])
    assert code == 0
    assert lines(capsys)[-1].startswith("ok: 6 checks over ")


def test_check_prints_counterexamples_and_fails(capsys, monkeypatch):
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    code = main(["check", "--suite", "extraction", "--max-size", "4", "--count", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample:" in out
    assert out.rstrip().endswith("FAILED")


def test_check_prints_the_same_table_on_one_cpu_and_on_three(capsys, monkeypatch):
    # check uses every CPU the affinity mask allows, as `taskset` sets it
    monkeypatch.setattr("lambdah.equivalence.extract", lambda t: t)
    argv = ["check", "--max-size", "5", "--count", "20", "--fuel", "100"]
    outputs = []
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False
        )
        assert main(argv) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("counterexample:") > 4


def test_check_prints_the_committed_check_suite_table(capsys):
    # the benchmark's check-suite command; the benchmark's reference
    # checks only that each row's counts sum to the term count and that
    # nothing fails, so this pins each row's checked/skipped split
    argv = ["check", "--max-size", "8", "--count", "150", "--random-size", "12",
            "--seed", "0"]
    assert main(argv) == 0
    table = Path(__file__).parent / "data" / "check-suite.txt"
    assert capsys.readouterr().out == table.read_text(encoding="utf-8")


# ---------- corpus ----------


@pytest.mark.parametrize(
    "options, report",
    [(["--fuel", "100", "--json"], "contexts-fuel100.json"), ([], "contexts-report.txt")],
    ids=["fuel-100-json", "default-fuel"],
)
def test_corpus_prints_the_committed_curated_report(capsys, options, report):
    # the north-star command: every row's verdicts and step counts, so a
    # miscounted J unfolding shows even where the tally stays the same
    data = Path(__file__).parent / "data"
    assert main(["corpus", str(data / "contexts.txt"), *options]) == 0
    assert capsys.readouterr().out == (data / report).read_text(encoding="utf-8")


def test_corpus_report(capsys, tmp_path):
    path = tmp_path / "contexts.txt"
    path.write_text("H x\nH Omega  # never reaches hnf on either side\n")
    assert main(["corpus", str(path), "--fuel", "50"]) == 0
    assert lines(capsys) == [
        "H x: I=hnf(1) J=hnf(4) agree",
        "H Omega: I=unknown(50) J=unknown(1000) agree",
        "2 contexts, 0 disagreements, 1 both-unknown",
    ]


def test_corpus_json_report(capsys, tmp_path):
    path = tmp_path / "contexts.txt"
    path.write_text("H x\nH Omega\n")
    assert main(["corpus", str(path), "--fuel", "50", "--json"]) == 0
    rows = [json.loads(line) for line in lines(capsys)]
    assert rows[0] == {
        "context": "H x",
        "verdict_I": "hnf",
        "verdict_J": "hnf",
        "agree": True,
        "t_steps_I": 1,
        "t_steps_J": 4,
    }
    assert rows[-1] == {
        "contexts": 2,
        "definite": 1,
        "both_unknown": 1,
        "disagreements": 0,
    }


def test_corpus_reports_a_fuel_exhausted_side_as_a_disagreement(capsys, tmp_path):
    # I is at hnf already, while J = Y G needs t-steps to unfold the
    # fixed point; running out of fuel there is reported as DISAGREE,
    # not as unknown
    path = tmp_path / "contexts.txt"
    path.write_text("H\n")
    assert main(["corpus", str(path), "--fuel", "0"]) == 1
    assert lines(capsys) == [
        "H: I=hnf(0) J=unknown(0) DISAGREE",
        "1 contexts, 1 disagreements, 0 both-unknown",
    ]


def test_corpus_handles_a_diverging_duplicator(capsys, tmp_path):
    # the JT side of this row overflows its state budget; the report
    # still completes, with both substitution verdicts unknown
    path = tmp_path / "contexts.txt"
    path.write_text("H (\\x.x x) (\\x.x x)\n")
    assert main(["corpus", str(path), "--fuel", "50"]) == 0
    assert lines(capsys) == [
        "H (\\x.x x) (\\x.x x): I=unknown(50) J=unknown(1000) agree",
        "1 contexts, 0 disagreements, 1 both-unknown",
    ]


# ---------- exit codes on bad input ----------


def test_parse_error_exits_2(capsys):
    assert main(["extract", "(\\x.x"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["fmt", "corpus"])
def test_a_parse_error_in_a_file_names_its_line_and_column(command, capsys, tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("x\n# c\ny z\n \t(\\x.x  # open\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4, column 8: expected ')', found 'end of input'\n"
    )


def test_unknown_constant_exits_2(capsys):
    assert main(["extract", "H K"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_2(capsys):
    assert main(["corpus", "no/such/file.txt"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fmt_of_a_directory_exits_2(capsys, tmp_path):
    assert main(["fmt", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_corpus_of_a_directory_exits_2(capsys, tmp_path):
    assert main(["corpus", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["reduce", "x", "--strategy", "bogus"]) == 2
    # the J side's share of the fuel is fixed; a script that still sets
    # it fails loudly instead of running with another share
    assert main(["corpus", "contexts.txt", "--j-fuel-ratio", "1"]) == 2
    assert "unrecognized arguments: --j-fuel-ratio 1" in capsys.readouterr().err
    # head reduction alone is reduce --strategy t; a script that still
    # asks solvable fails loudly instead of finding another command
    assert main(["solvable", "Omega"]) == 2
    assert "invalid choice: 'solvable'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "x", "--fuel", "-1"],
        ["reduce", "x", "--fuel", "ten"],
        ["lockstep", "x", "--max-t", "-1"],
        # a false counterexample and exit status 1 before the check
        ["check", "--max-size", "1", "--count", "0", "--fuel", "-1"],
        ["check", "--max-size", "-1"],
        ["check", "--count", "-5"],
        ["check", "--random-size", "-1"],
        ["check", "--max-t", "-1"],
        ["corpus", "contexts.txt", "--fuel", "-1"],
    ],
)
def test_budgets_and_counts_take_only_non_negative_integers(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid non-negative int value: '{argv[-1]}'" in captured.err


def test_broken_pipe_is_not_an_error(monkeypatch):
    def raiser(args):
        raise BrokenPipeError

    monkeypatch.setattr("lambdah.cli._cmd_extract", raiser)
    assert main(["extract", "x"]) == 0


# ---------- console entry point ----------


def test_entry_exits_with_the_status_of_main(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lambdah", "extract", "H x y"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert lines(capsys) == ["x y"]


def test_the_module_form_runs_the_command(capsys):
    # python -m lambdah.cli is the console script: the same output and
    # the same exit status
    env = dict(os.environ)
    src = str(Path(lambdah.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["check", "--max-size", "1", "--count", "0"]

    def module(*args):
        return subprocess.run(
            [sys.executable, "-m", "lambdah.cli", *args],
            env=env,
            capture_output=True,
            text=True,
        )

    assert main(argv) == 0
    done = module(*argv)
    assert done.returncode == 0
    assert done.stdout == capsys.readouterr().out
    assert module("check", "--count", "-5").returncode == 2


def test_entry_runs_a_context_100000_deep_on_the_main_thread(
    capsys, monkeypatch, tmp_path
):
    n = 100_000
    nest = "y (" * (n - 1) + "y {})" + ")" * (n - 2)
    context = "(\\y." + nest.format("(H z)") + ") (\\x.x)"
    path = tmp_path / "deep.txt"
    path.write_text(context + "\n", encoding="utf-8")
    outputs = []
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for argv in (["extract", context], ["corpus", str(path), "--fuel", "5"]):
            monkeypatch.setattr(sys, "argv", ["lambdah", *argv])
            with pytest.raises(SystemExit) as exc:
                entry()
            assert exc.value.code == 0
            outputs.append(capsys.readouterr().out)
    finally:
        sys.setrecursionlimit(saved)
    image = format_term(*parse_term("(\\y." + nest.format("z") + ") (\\x.x)"))
    assert outputs[0] == image + "\n"
    assert outputs[1] == (
        f"{context}: I=unknown(5) J=unknown(100) agree\n"
        "1 contexts, 0 disagreements, 1 both-unknown\n"
    )
