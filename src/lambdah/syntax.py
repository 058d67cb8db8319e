"""Surface syntax: parsing and printing of lambda terms.

Grammar::

    term  := abs | app
    abs   := ("\\" | "λ") ident+ "." term
    app   := atom atom*
    atom  := ident | "H" | "(" term ")"
    ident := lowercase letter, then letters or digits

Application is left associative and an abstraction body extends as far
right as possible, so an abstraction used as an operator or argument
must be parenthesised.  "H" is reserved for the head constant and is
not a valid identifier or binder.  "#" starts a comment that runs to
the end of the line.

``parse_term`` reads text straight into a nameless term in one left to
right pass, and ``format_term`` prints a nameless term straight back;
there is no named intermediate tree.  A name resolves to its innermost
binder, and a free name to index depth + i, where i is its position in
the declared free variables.  Other uppercase words name the closed
terms of ``BUILTINS``, spliced in where the word appears.  The printer
emits minimal parentheses, uses backslash for lambda, and draws binder
names from a fixed supply, so printing then re-parsing is the identity
on nameless terms.  Both directions keep their work on explicit stacks,
so the depth of a term is bounded by memory, not by the recursion limit.

Both directions also know the H-tower ``H (H (.. (H M)))``, the shape
that the J reading of H builds and a JT trace prints over and over.
The tokenizer reads a run of "H (" openers or of ")" closers, spelt as
the printer writes them, back to back, as one token.  The parser pushes
a run of n openers as two frames: the first opener, which applies the
application to its left to H (so "f H (x)" still reads "(f H) x"), and
a count for the other n - 1, each of whose left is H.  A run of closers
that ends such a count builds one ``Tower`` node for all its levels,
and the printer emits a tower's "(H " openers and its ")" closers as
one string each.  Any other spelling reads as single "H", "(" and ")"
tokens, which build the same tower, because ``App(H, x)`` is one.
Errors still point at the piece of a run where the parse fails.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, Sequence

from .terms import G, I, J, OMEGA, Abs, App, H, Term, Tower, Var, Y

# the uppercase names that a term may use
BUILTINS = {"I": I, "J": J, "Y": Y, "G": G, "Omega": OMEGA}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UnboundVariable(Exception):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


# ---------- tokenizer ----------

# Whitespace and comments.  A comment runs to the end of its line, and
# the lookahead says so, so a gap splits into skips in exactly one way.
# Every match starts with a maximal skip, after which some token always
# matches, so the skip never backtracks.  The plain
# (?:[ \t\r\n]+|#[^\n]*)* would match the same, but it takes two to five
# times as long over a gap full of comments.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"

# Each match skips a gap, then captures one token: a run of "H (" openers
# or of ")" closers as the printer spells them, pieces back to back and
# matched as plain literals, a lambda or other punctuation mark, a word
# (letters and digits, the class of str.isalnum), any other single
# character, or the empty string once, at the end of the text.  A run
# holds len(token) // 3 openers or len(token) closers.
_TOKEN = re.compile(_SKIP + r"((?:H \()+|\)+|[\\λ.(]|[^\W_]+|[^ \t\r\n#]|\Z)")

# Token kinds.  The first five are the tokens an atom can start with.
_IDENT, _CONSTH, _UPPER, _HRUN, _LPAREN, _LAMBDA, _DOT, _RPAREN, _EOF, _BAD = range(10)

_PUNCTUATION = {
    "\\": _LAMBDA,
    "λ": _LAMBDA,
    ".": _DOT,
    "(": _LPAREN,
    "H": _CONSTH,
    "": _EOF,
}


def _word_kind(word: str) -> int:
    c = word[0]
    if not c.isalpha():  # a digit, or a character outside the grammar
        return _BAD
    return _IDENT if c.islower() else _UPPER


def _error(text: str, index: int, message: str, piece: int = 0) -> ParseError:
    """A ParseError located at token ``index`` of ``text``, or at its
    ``piece``-th piece if the token is a run of closers, one character
    each.

    Positions are recovered only here, by scanning again.  Columns count
    characters from 1; the end of input sits where a comment on the last
    line begins, if there is one.
    """
    start = next(islice(_TOKEN.finditer(text), index, None)).start(1) + piece
    line_start = text.rfind("\n", 0, start) + 1
    if start == len(text):
        comment = text.find("#", line_start)
        if comment != -1:
            start = comment
    return ParseError(message, text.count("\n", 0, start) + 1, start - line_start + 1)


def _first(token: str) -> str:
    """A token as a message names it: a run by its first piece."""
    return token[0] if len(token) > 1 and token[-1] in "()" else token


def _quote(token: str) -> str:
    return repr(_first(token) or "end of input")


# ---------- parser ----------

_OUTERMOST = object()  # the frame of the whole text


def parse_term(
    text: str, free_vars: Sequence[str] | None = None
) -> tuple[Term, tuple[str, ...]]:
    """Parse text straight to a nameless term.

    When ``free_vars`` is None the free identifiers are declared
    implicitly in first-occurrence order; the declaration actually used
    is returned alongside the term so output can reuse the same names.
    Syntax errors raise ParseError, and a name that is neither bound nor
    declared raises UnboundVariable once the whole text has parsed.
    """
    tokens = _TOKEN.findall(text)
    kinds = dict(_PUNCTUATION)
    for word in set(tokens).difference(kinds):
        last = word[-1]
        if last == "(":
            kinds[word] = _HRUN
        elif last == ")":
            kinds[word] = _RPAREN
        else:
            kinds[word] = _word_kind(word)
    ks = list(map(kinds.__getitem__, tokens))
    if _BAD in ks:
        # the first character outside the grammar wins over any other error
        i = ks.index(_BAD)
        raise _error(text, i, f"unexpected character {tokens[i][0]!r}")

    implicit = free_vars is None
    free: dict[str, int] = {}
    if not implicit:
        free_vars = tuple(free_vars)
        for i, name in enumerate(free_vars):
            free.setdefault(name, i)
    scope: dict[str, list[int]] = {}  # binder name -> depths, innermost last
    depth = 0
    unbound: str | None = None
    # Pending work, innermost last: a list of binder names for an
    # abstraction whose body is being read; for an open parenthesis, the
    # application to its left (None if it starts one); or a count n for
    # n nested "H (" openers, each of whose left is H.  The text itself
    # is the outermost frame.
    frames: list = [_OUTERMOST]
    pos = 0
    k = ks[0]
    while True:
        # a term starts here: first its binder groups
        while k == _LAMBDA:
            pos += 1
            k = ks[pos]
            if k != _IDENT:
                raise _error(
                    text, pos, f"expected binder name, found {_quote(tokens[pos])}"
                )
            names = []
            while k == _IDENT:
                name = tokens[pos]
                names.append(name)
                scope.setdefault(name, []).append(depth)
                depth += 1
                pos += 1
                k = ks[pos]
            if k != _DOT:
                raise _error(text, pos, f"expected '.', found {_quote(tokens[pos])}")
            frames.append(names)
            pos += 1
            k = ks[pos]
        # then an application, one atom at a time
        acc = None
        while True:
            if k == _IDENT:
                name = tokens[pos]
                binders = scope.get(name)
                if binders:
                    t = Var(depth - binders[-1] - 1)
                else:
                    i = free.get(name)
                    if i is None:
                        if implicit:
                            i = free[name] = len(free)
                        else:
                            unbound = unbound or name
                            i = 0
                    t = Var(depth + i)
            elif k == _CONSTH:
                t = H
            elif k == _HRUN:
                # the first opener applies the application so far to H,
                # as "f H (x)" reads "(f H) x"; the rest are one frame
                frames.append(H if acc is None else App(acc, H))
                n = len(tokens[pos]) // 3
                if n > 1:
                    frames.append(n - 1)
                pos += 1
                k = ks[pos]
                break
            elif k == _LPAREN:
                frames.append(acc)
                pos += 1
                k = ks[pos]
                break
            elif k == _UPPER:
                t = BUILTINS.get(tokens[pos])
                if t is None:
                    raise _error(text, pos, f"unknown constant {tokens[pos]!r}")
            else:
                raise _error(text, pos, f"expected a term, found {_quote(tokens[pos])}")
            acc = t if acc is None else App(acc, t)
            pos += 1
            k = ks[pos]
            # no further atom: the application ends, and so do the
            # abstractions around it, up to a run of closing parentheses
            while k > _LPAREN:
                if k == _LAMBDA:
                    raise _error(
                        text, pos, "abstraction in argument position must be parenthesised"
                    )
                t = acc
                closers = len(tokens[pos]) if k == _RPAREN else 0
                closed = 0
                while True:
                    left = frames.pop()
                    while left.__class__ is list:
                        for name in left:
                            t = Abs(t)
                            scope[name].pop()
                            depth -= 1
                        left = frames.pop()
                    if left is _OUTERMOST:
                        if k != _EOF:
                            raise _error(
                                text,
                                pos,
                                f"unexpected trailing input {_first(tokens[pos])!r}",
                                closed,
                            )
                        if unbound is not None:
                            raise UnboundVariable(unbound)
                        names = tuple(free) if implicit else free_vars
                        return t, names
                    if k != _RPAREN:
                        raise _error(text, pos, f"expected ')', found {_quote(tokens[pos])}")
                    if left.__class__ is int:  # close up to `left` H levels at once
                        n = closers - closed
                        if n < left:
                            frames.append(left - n)
                        else:
                            n = left
                        closed += n
                        t = Tower(n, t)
                    else:
                        closed += 1
                        if left is not None:
                            t = App(left, t)
                    if closed == closers:
                        break
                acc = t
                pos += 1
                k = ks[pos]


# ---------- printer ----------


_BINDER_LETTERS = "xyzwustabc"  # no "v": synthetic free names are v0, v1, ...


def _binder_names(avoid: set[str]) -> Iterator[str]:
    for name in _BINDER_LETTERS:
        if name not in avoid:
            yield name
    suffix = 1
    while True:
        for letter in _BINDER_LETTERS:
            name = f"{letter}{suffix}"
            if name not in avoid:
                yield name
        suffix += 1


# where a subterm sits, which decides its parentheses
_TOP, _FUN, _ARG = range(3)


def format_term(t: Term, free_vars: Sequence[str] = ()) -> str:
    """Print a term.  Free index depth + i takes the i-th declared name, or
    a synthetic ``v{i}`` beyond the declared list.  Binder names are drawn
    from a fixed supply in pre-order, skipping the declared names, so the
    text re-parses to exactly ``t``.
    """
    free = list(free_vars)
    supply = _binder_names(set(free))
    env: list[str] = []  # names of the binders in scope, innermost last
    out: list[str] = []
    # Work, next item last: a string to emit, a count of binders whose
    # scope ends, or a (term, position) pair to print.
    todo: list = [(t, _TOP)]
    while todo:
        item = todo.pop()
        cls = item.__class__
        if cls is str:
            out.append(item)
            continue
        if cls is int:
            del env[-item:]
            continue
        t, where = item
        cls = t.__class__
        if cls is App:
            if where == _ARG:
                out.append("(")
                todo.append(")")
            todo.append((t.arg, _ARG))
            todo.append(" ")
            todo.append((t.fun, _FUN))
        elif cls is Var:
            i = t.index
            if i < len(env):
                out.append(env[-1 - i])
            else:
                j = i - len(env)
                out.append(free[j] if j < len(free) else f"v{j}")
        elif cls is Abs:
            params = []
            while t.__class__ is Abs:
                params.append(next(supply))
                t = t.body
            env.extend(params)
            if where != _TOP:
                out.append("(")
                todo.append(")")
            out.append("\\" + " ".join(params) + ".")
            todo.append(len(params))
            todo.append((t, _TOP))
        elif cls is Tower:
            # H (H (.. (H M))): each level but the first is an argument,
            # so the tower prints as one opening and one closing string
            n = t.height
            if where == _ARG:
                out.append("(H " * n)
                todo.append(")" * n)
            else:
                out.append("H " + "(H " * (n - 1))
                todo.append(")" * (n - 1))
            todo.append((t.base, _ARG))
        else:
            out.append("H")
    return "".join(out)
