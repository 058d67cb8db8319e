"""Extraction tests: the erasure clauses, image shapes, invariants."""

import random
from itertools import islice

import pytest

from lambdah.extraction import (
    EShape,
    ShapeViolation,
    classify,
    extract,
)
from lambdah.gen import GenConfig, enumerate_terms, wrap_applied_h
from lambdah.syntax import format_term, parse_term
from lambdah.terms import Abs, App, H, Var, substitute
from oracles import pair_stream


def term(text, frees=None):
    return parse_term(text, free_vars=frees)[0]


def image(text):
    t, names = parse_term(text)
    return format_term(extract(t), names)


# ---------- defining clauses ----------


def test_extract_fixes_variables_and_bare_h():
    assert extract(Var(0)) == Var(0)
    assert extract(H) == H


def test_extract_goes_under_binders():
    assert image("\\x.x") == "\\x.x"


def test_extract_erases_applied_h():
    assert image("H x y") == "x y"


def test_extract_erases_nested_head_h():
    # H (H x) is H applied once, and after erasure its first argument
    # H x is again an applied H, erased in turn: \x.H (H x) -> \x.x
    assert image("\\x.H (H x)") == "\\x.x"


def test_extract_keeps_h_in_argument_position():
    assert image("\\x.x H") == "\\x.x H"
    assert image("x H y") == "x H y"


def test_extract_erasure_follows_the_operator_spine():
    # (H x) y is the same application spine as H x y, so the H at the
    # base of the spine is erased even though the immediate operator of
    # the outer application is (H x), not H
    assert image("(H x) y") == "x y"
    assert image("H (H x) y") == "x y"


def test_extract_distributes_over_non_h_applications():
    assert image("(\\x.x) (H y)") == "(\\x.x) y"


def test_extract_is_idempotent_on_enumerated_terms():
    for t in enumerate_terms(6, free_vars=1):
        e = extract(t)
        assert extract(e) == e


# ---------- image shapes ----------


def test_classify_bare_h():
    assert classify(extract(H)) == EShape.LAMBDA_H


def test_classify_head_variable():
    assert classify(extract(term("\\x.x y"))) == EShape.LAMBDA_VAR_APPS


def test_classify_head_redex():
    assert classify(extract(term("(\\x.x) y"))) == EShape.LAMBDA_REDEX_APPS


def test_classify_rejects_applied_h():
    with pytest.raises(ShapeViolation) as exc:
        classify(term("H x (\\y.y)"))
    assert str(exc.value) == (
        "applied H at the head of an extraction image: H v0 (\\x.x)"
    )


def test_every_image_classifies_without_violation():
    for t in enumerate_terms(6, free_vars=1):
        classify(extract(t))


def test_images_have_no_applied_h_anywhere():
    # H survives extraction only as an argument, never as an operator,
    # at any depth of the image
    assert term("H x").holds_tower
    assert term("\\x.x (H y z)").holds_tower
    assert not term("\\x.x H").holds_tower
    for t in enumerate_terms(6, free_vars=1):
        assert not extract(t).holds_tower


# ---------- interaction with substitution ----------


def test_extract_commutes_with_substitution():
    # extracting after substituting equals substituting the extractions
    # and extracting once more
    probes = [term("\\x.x"), H, term("H H"), term("\\x.H x")]
    bodies = [t.body for t in enumerate_terms(6, free_vars=0) if isinstance(t, Abs)]
    for body in bodies:
        for value in probes:
            lhs = extract(substitute(body, value))
            rhs = extract(substitute(extract(body), extract(value)))
            assert lhs == rhs, (body, value)


def test_application_collapse_identity():
    # E(T U1 .. Un) = E(E(T) E(U1) .. E(Un)) on a worked instance:
    # T = \x.H x, U1 = H y gives E(T U1) = (\x.x) y either way
    t = term("(\\x.H x) (H y)")
    collapsed = extract(App(extract(term("\\x.H x")), extract(term("H y", ("y",)))))
    assert extract(t) == collapsed
    assert format_term(extract(t), ("y",)) == "(\\x.x) y"


# ---------- equal-image pairs ----------


def test_wrapping_any_subterm_with_applied_h_preserves_the_image():
    rng = random.Random(5)
    for t in enumerate_terms(5, free_vars=1):
        wrapped = wrap_applied_h(t, rng, density=0.5)
        assert extract(wrapped) == extract(t)


def test_pair_stream_yields_equal_image_pairs():
    cfg = GenConfig(seed=11, max_size=14, free_vars=2)
    for left, right in islice(pair_stream(cfg), 200):
        assert extract(left) == extract(right)
