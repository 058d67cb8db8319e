"""Parser and printer tests: grammar corners, errors, round-trips."""

import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdah import syntax
from lambdah.gen import enumerate_terms, term_stream, wrap_applied_h
from lambdah.machines import Strategy, run
from lambdah.syntax import (
    BUILTINS,
    ParseError,
    UnboundVariable,
    format_term,
    parse_term,
)
from lambdah.terms import OMEGA, Abs, App, H, Tower, Var
from oracles import REFERENCE_PIECE, REFERENCE_TOKEN, gen_weights


# ---------- parsing ----------


def test_parse_identity():
    assert parse_term("\\x.x")[0] == Abs(Var(0))


def test_parse_multi_binder_abstraction():
    # \x y.x (y x): body applications associate left, binders nest right
    t, _ = parse_term("\\x y.x (y x)")
    assert t == Abs(Abs(App(Var(1), App(Var(0), Var(1)))))


def test_parse_unicode_lambda():
    assert parse_term("λx.x")[0] == parse_term("\\x.x")[0]


def test_parse_application_is_left_associative():
    t, names = parse_term("a b c")
    assert names == ("a", "b", "c")
    assert t == App(App(Var(0), Var(1)), Var(2))


def test_parse_free_variables_declared_in_first_occurrence_order():
    t, names = parse_term("H x y")
    assert names == ("x", "y")
    assert t == App(App(H, Var(0)), Var(1))


def test_parse_abstraction_body_extends_right():
    assert parse_term("\\x.x y")[0] == Abs(App(Var(0), Var(1)))


def test_parse_comments_and_whitespace():
    text = "\\x.  x   # the identity\n"
    assert parse_term(text)[0] == Abs(Var(0))


def test_parse_shadowing_binds_innermost():
    assert parse_term("\\x.\\x.x")[0] == Abs(Abs(Var(0)))


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        pytest.param("x + y", "unexpected character '+'", 1, 3, id="unexpected-character"),
        pytest.param("²x", "unexpected character '²'", 1, 1, id="digit-first"),
        # a bad character anywhere is reported before any grammar error
        pytest.param("x ) ²", "unexpected character '²'", 1, 5, id="bad-character-first"),
        pytest.param("\\H.H", "expected binder name, found 'H'", 1, 2, id="binder"),
        pytest.param("λx y.λ", "expected binder name, found 'end of input'", 1, 7,
                     id="unicode-lambda-binder"),
        pytest.param("\\x y H", "expected '.', found 'H'", 1, 6, id="dot"),
        pytest.param("\\x.(x", "expected ')', found 'end of input'", 1, 6, id="rparen"),
        pytest.param("x  # note\n\n\t(y .", "expected ')', found '.'", 3, 5,
                     id="line-3-after-comment-and-tab"),
        # the end of input sits where a comment on the last line begins
        pytest.param("(x # open", "expected ')', found 'end of input'", 1, 4,
                     id="end-after-comment"),
        pytest.param("x \\y.y", "abstraction in argument position must be parenthesised",
                     1, 3, id="bare-abstraction-argument"),
        pytest.param("K x", "unknown constant 'K'", 1, 1, id="unknown-constant"),
        pytest.param("()", "expected a term, found ')'", 1, 2, id="term"),
        pytest.param("x )", "unexpected trailing input ')'", 1, 3, id="trailing-input"),
        # x² is one identifier, so the error is the trailing parenthesis
        pytest.param("λx².x² )", "unexpected trailing input ')'", 1, 8,
                     id="superscript-in-identifier"),
        # a run of closers or "H (" openers reads as one token, but an
        # error inside it points at the piece where the parse fails
        pytest.param("(x))", "unexpected trailing input ')'", 1, 4, id="closer-run"),
        pytest.param("H (H (x)))", "unexpected trailing input ')'", 1, 10,
                     id="closer-run-after-tower"),
        pytest.param("H (H (x)", "expected ')', found 'end of input'", 1, 9,
                     id="tower-left-open"),
        pytest.param("H (H ( )", "expected a term, found ')'", 1, 8, id="empty-tower"),
        pytest.param("H # c\n(H (x)) )", "unexpected trailing input ')'", 2, 9,
                     id="runs-across-a-comment"),
        pytest.param("\\H (x).x", "expected binder name, found 'H'", 1, 2,
                     id="tower-as-binder"),
    ],
)
def test_parse_error_reports_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"line {line}, column {col}: {message}",
        line,
        col,
    )


def test_parse_error_on_bare_abstraction_argument():
    # the grammar requires (\y.y) in argument position
    with pytest.raises(ParseError):
        parse_term("x \\y.y")


def test_parse_error_on_h_as_binder():
    with pytest.raises(ParseError):
        parse_term("\\H.H")


def test_parse_error_on_unknown_uppercase_name():
    with pytest.raises(ParseError):
        parse_term("K x")


def test_unbound_variable_is_reported_by_name():
    with pytest.raises(UnboundVariable) as err:
        parse_term("x y", free_vars=("x",))
    assert err.value.name == "y"
    assert str(err.value) == "unbound variable: y"


def test_syntax_errors_take_precedence_over_unbound_names():
    with pytest.raises(ParseError):
        parse_term("y )", free_vars=("x",))


def test_explicit_free_context_fixes_indices():
    t = parse_term("y x", free_vars=("x", "y"))[0]
    assert t == App(Var(1), Var(0))


def test_free_names_skips_bound_occurrences():
    assert parse_term("\\x.x y x z")[1] == ("y", "z")


def test_constants_are_spliced_in_as_they_are():
    t, names = parse_term("H Omega")
    assert names == ()
    assert t == App(H, OMEGA)
    assert t.arg is OMEGA


def test_every_builtin_is_closed_and_parses_to_itself():
    # the table is the only source of constants, so it alone must hold
    # closed terms, each spliced in by identity
    for name, value in BUILTINS.items():
        assert value.fv == 0, name
        t, names = parse_term(name)
        assert (t, names) == (value, ())
        assert t is value


def test_h_before_a_parenthesis_mid_application_is_an_argument():
    # the first "H (" of a run applies what precedes it to H
    t, names = parse_term("f H (x)")
    assert names == ("f", "x")
    assert t == App(App(Var(0), H), Var(1))
    assert parse_term("f H (H (x)) y")[0] == App(
        App(App(Var(0), H), App(H, Var(1))), Var(2)
    )


def test_a_word_that_starts_with_h_is_a_constant_not_a_tower():
    # "Hx" is one word, not H applied to x
    with pytest.raises(ParseError, match="unknown constant 'Hx'") as err:
        parse_term("Hx (y)")
    assert (err.value.line, err.value.col) == (1, 1)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("H" + " " * 10_000 + "x", id="spaces"),
        pytest.param("H" + "\n# a comment ( H (" * 10_000 + "\nx", id="comment-lines"),
    ],
)
def test_a_long_gap_after_h_tokenizes_in_linear_time(text):
    # a gap that backtracks exponentially takes seconds at 22 spaces
    start = time.perf_counter()
    t, names = parse_term(text)
    assert time.perf_counter() - start < 0.5
    assert (t, names) == (App(H, Var(0)), ("x",))


# pieces of text around H-towers, the printer's "H (" and ")" and
# comments weighted up; comments hold parentheses and H of their own,
# and one at the end of the text has no newline
_TOKEN_PIECES = (
    ["H (", ")", "# (H ( ))\n", "#)\n", "# H ("] * 4
    + ["H(", "H  (", "H\n(", "H", "(", " ", "  \t", "\n", "\r\n"]
    + ["x", "Hx", "y1", "\\", ".", "λ", "+", "²", "_"]
)


def _pieces(pattern: re.Pattern, text: str) -> list[tuple[str, int]]:
    """The tokens ``pattern`` finds in ``text`` with their offsets, each
    run split into its "H", "(" and ")" pieces."""
    pieces = []
    for m in pattern.finditer(text):
        token, start = m.group(1), m.start(1)
        if token[-1:] in ("(", ")"):
            for p in REFERENCE_PIECE.finditer(text, start, m.end(1)):
                pieces.append((p.group(1), p.start(1)))
        else:
            pieces.append((token, start))
    return pieces


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=40))
def test_token_pieces_match_the_reference_pattern(pieces):
    # a run in any spelling other than the printer's reads as single
    # pieces, at the offsets where the pattern with gaps inside runs
    # finds them
    text = "".join(pieces)
    assert _pieces(syntax._TOKEN, text) == _pieces(REFERENCE_TOKEN, text)


def test_a_run_of_printed_openers_then_a_long_gap_tokenizes_in_linear_time():
    # the literal openers stop at the gap, and the next match skips it
    n = 10_000
    text = "H (" * n + " " * n + "x" + ")" * n
    start = time.perf_counter()
    tokens = syntax._TOKEN.findall(text)
    t, names = parse_term(text)
    assert time.perf_counter() - start < 0.5
    assert tokens == ["H (" * n, "x", ")" * n, ""]
    assert (t, names) == (Tower(n, Var(0)), ("x",))


# the tokenizer's pattern when its opener run read one "H (" at a time
_SINGLE_OPENER_TOKEN = re.compile(
    syntax._SKIP + r"((?:H \()+|\)+|[\\λ.(]|[^\W_]+|[^ \t\r\n#]|\Z)"
)


def _tower_texts() -> list[str]:
    rng = random.Random(0)
    texts = []
    for n in range(1, 41):
        texts.append("H " + "(H " * (n - 1) + "x" + ")" * (n - 1))
        texts.append("H(" * n + "x" + ")" * n)
        openers = "".join(rng.choice(["H (", "H(", "H  ("]) for _ in range(n))
        texts.append("f " + openers + "x" + ")" * n)
    return texts


def test_openers_read_eight_at_a_time_give_the_single_opener_tokens():
    # the duplicator's JT states, as a trace-roundtrip reads them back
    duplicator = parse_term("H (\\a.a a) (\\b.b b)")[0]
    outcome = run(duplicator, Strategy.JT, 1000, keep_trace=True)
    states = [format_term(entry.after) for entry in outcome.trace]
    assert len(states) == 1035
    contexts = (Path(__file__).parent / "data" / "contexts.txt").read_text(
        encoding="utf-8"
    )
    for text in [*states, contexts, *_tower_texts()]:
        assert syntax._TOKEN.findall(text) == _SINGLE_OPENER_TOKEN.findall(text)


def test_a_run_that_mixes_spellings_builds_one_tower():
    openers = "H (H(H (\nH (# a comment ( H (\nH  (H\n("
    closers = "))\n) # a comment )\n)) )"
    assert parse_term(openers + "x" + closers)[0] == Tower(6, Var(0))


# ---------- printing ----------


def test_format_uses_minimal_parentheses():
    cases = [
        "\\x.x",
        "\\x y.x (y x)",
        "H x y",
        "x (y z)",
        "(\\x.x) y",
        "\\x.x (\\y.y) H",
        "x ((\\y.y) z)",
        # H-towers in top, operator and argument position, and under a binder
        "H (H (H x))",
        "H (H x) y",
        "f (H (H (\\x.x)))",
        "\\x.H (H x) (H (H H))",
        "H (H (x y)) (H (H (H (H z))))",
    ]
    for text in cases:
        t, names = parse_term(text)
        assert format_term(t, names) == text


def test_format_collapses_binder_prefix():
    assert format_term(Abs(Abs(Var(1)))) == "\\x y.x"


def test_format_avoids_declared_free_names_for_binders():
    # the binder must not shadow the free variable x it closes over
    t = Abs(App(Var(0), Var(1)))
    text = format_term(t, ("x",))
    assert text == "\\y.y x"


def test_format_names_undeclared_free_indices():
    assert format_term(App(Var(0), Var(2))) == "v0 v2"


@pytest.mark.parametrize(
    "declared", [("v1",), ("v2", "v2v"), ("x", "v3", "v2")], ids=["v1", "v2-v2v", "x-v3-v2"]
)
def test_a_synthetic_free_name_never_repeats_a_declared_one(declared):
    # a free index past the declared names prints as v{j}, lengthened
    # while that is declared, so every index keeps a name of its own
    t = App(App(App(App(Var(0), Var(1)), Var(2)), Var(3)), Abs(App(Var(0), Var(3))))
    text = format_term(t, declared)
    term, names = parse_term(text)
    assert term == t, text
    assert names[: len(declared)] == declared
    assert parse_term(text, names)[0] == t
    assert format_term(App(Var(0), Var(1)), ["v1"]) == "v1 v1v"


@pytest.mark.parametrize(
    "t, declared, bad",
    [
        # the combinator, the constant, an unknown constant, a word the
        # tokenizer reads as two tokens, two words, and a repeated name
        (App(Var(0), Abs(Var(1))), ["I"], "I"),
        (App(Var(0), Abs(Var(1))), ["H"], "H"),
        (App(Var(0), Abs(Var(1))), ["X"], "X"),
        (App(Var(0), Abs(Var(1))), ["_a"], "_a"),
        (App(Var(0), Abs(Var(1))), ["a b"], "a b"),
        (App(Var(0), Var(1)), ["x", "x"], "x"),
    ],
)
def test_format_rejects_a_declared_name_that_would_not_read_back(t, declared, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        format_term(t, declared)


@pytest.mark.parametrize("name", ["x1", "é"])
def test_format_takes_any_identifier_as_a_declared_name(name):
    t = App(Var(0), Abs(Var(1)))
    text = format_term(t, [name])
    assert text == f"{name} (\\x.{name})"
    assert parse_term(text, [name])[0] == t


def test_format_and_parse_are_inverse_on_enumerated_terms():
    for free in (0, 2):
        names = tuple(f"v{i}" for i in range(free))
        for t in enumerate_terms(6, free_vars=free):
            text = format_term(t, names)
            assert parse_term(text, names)[0] == t


def test_round_trip_on_random_terms():
    for i, t in zip(range(300), term_stream(9, 30, free_vars=3)):
        names = tuple(f"v{i}" for i in range(t.fv))
        text = format_term(t, names)
        assert parse_term(text, names)[0] == t


# gaps that may stand between two tokens of printed text; comments hold
# parentheses and H, which must not count towards a run
_GAPS = ["", " ", "  \t", "\n", "\r\n ", " # (H ( ))\n", "#)\n"]
_PRINTED_TOKEN = re.compile(r"[\\.()]|[^\W_]+")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.4, 0.9),
    data=st.data(),
)
def test_towers_round_trip_through_any_spacing(seed, density, data):
    # dense (H _) wrappers put towers in operator, argument and top
    # position and under binders; the text is then re-spaced at token
    # boundaries, which must not change the term it reads as
    base = next(term_stream(seed, 16, free_vars=2))
    with gen_weights(density=density):
        t = wrap_applied_h(base, random.Random(seed))
    names = tuple(f"v{i}" for i in range(t.fv))
    text = format_term(t, names)
    assert parse_term(text, names)[0] == t
    tokens = _PRINTED_TOKEN.findall(text)
    assert "".join(tokens) == text.replace(" ", "")
    gaps = data.draw(st.lists(st.sampled_from(_GAPS), min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    pieces = []
    for i, token in enumerate(tokens):
        gap = gaps[i]
        if not gap and i and tokens[i - 1][-1].isalnum() and token[0].isalnum():
            gap = " "  # two words need a gap between them
        pieces += (gap, token)
    pieces.append(gaps[-1])
    assert parse_term("".join(pieces), names)[0] == t


def test_format_names_are_deterministic():
    t = parse_term("\\x y.x (y x)")[0]
    assert format_term(t) == format_term(t)


# ---------- deep terms ----------

DEPTH = 100_000


@pytest.fixture
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def _nested_binders() -> str:
    raw = "".join(f"\\x{i}." for i in range(1, DEPTH + 1)) + "x1 x2"
    text = format_term(*parse_term(raw))
    assert text.startswith("\\x y z w u s t a b c x1 y1 ")
    assert text.endswith(".x y")
    return text


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(_nested_binders, id="nested-binders"),
        pytest.param(lambda: " ".join(["x"] * DEPTH), id="left-nested-application"),
        pytest.param(
            lambda: "H (" * (DEPTH - 1) + "H x" + ")" * (DEPTH - 1),
            id="right-nested-chain",
        ),
    ],
)
def test_deep_terms_round_trip_without_recursion(build, default_recursion_limit):
    # compare texts: term equality is itself recursive
    text = build()
    assert format_term(*parse_term(text)) == text


def test_a_tower_a_million_high_round_trips_quickly():
    tower = Tower(1_000_000, Var(0))
    text = format_term(tower, ("x",))
    start = time.perf_counter()
    t, names = parse_term(text)
    assert time.perf_counter() - start < 2
    assert (t, names) == (tower, ("x",))


@pytest.mark.parametrize(
    "opener, closer",
    [
        pytest.param("H(", ")", id="no-space"),
        pytest.param("H (", " )", id="spaced-closers"),
        pytest.param("H\n(", ")", id="newline"),
    ],
)
def test_a_tower_in_another_spelling_parses_to_one_tower(
    opener, closer, default_recursion_limit
):
    # read as single "H", "(" and ")" tokens, it builds the same tower
    # as the printer's spelling, and prints in that spelling
    n = DEPTH
    start = time.perf_counter()
    t, names = parse_term(opener * n + "x" + closer * n)
    assert time.perf_counter() - start < 2
    assert (t, names) == (Tower(n, Var(0)), ("x",))
    assert format_term(t, names) == "H " + "(H " * (n - 1) + "x" + ")" * (n - 1)
