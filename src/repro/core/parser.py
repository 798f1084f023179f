"""A Prolog-style concrete syntax for programs, rules, facts, and queries.

The paper presents programs in Prolog style ("Read '<-' as 'if'")::

    goal(Z) <- p(a, Z).
    p(X, Y) <- p(X, U), q(U, V), p(V, Y).
    p(X, Y) <- r(X, Y).

This module parses that syntax (accepting both ``<-`` and ``:-`` as the rule
arrow), plus ground facts (``r(a, b).``) and interactive queries
(``?- p(a, Z).``).  A query is desugared into a rule for the distinguished
predicate ``goal`` whose arguments are the query's free variables in order of
first occurrence, exactly as in Section 1.

Lexical conventions
-------------------
* Variables start with an uppercase letter or ``_``.
* Constants are lowercase identifiers, (signed) integers, or quoted strings.
* ``%`` and ``#`` start a comment running to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .atoms import Atom, trusted_atom
from .program import Program
from .rules import GOAL_PREDICATE, Rule
from .terms import Constant, Term, Variable

__all__ = [
    "ParseError",
    "parse_term",
    "parse_atom",
    "parse_rule",
    "parse_program",
    "parse_query",
    "query_to_rule",
]


class ParseError(ValueError):
    """Raised on malformed input, with line/column context."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<arrow><-|:-)
  | (?P<query>\?-)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<period>\.(?!\d))
  | (?P<int>-?\d+)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<squote>'(?:[^'\\]|\\.)*')
  | (?P<dquote>"(?:[^"\\]|\\.)*")
    """,
    re.VERBOSE,
)


#: One ground-fact clause, tried only at a clause boundary: the whitespace
#: and *whole* comments before it (the lookahead keeps a comment from ending
#: early and exposing a fact written inside it), then ``name(arg, ...).``
#: with every argument a signed integer or a lowercase name.  Anything else
#: -- quotes, variables, a rule arrow, a comment or line break inside the
#: atom, a malformed fact -- fails to match and goes to the full grammar.
_FACT_ARG = r"(?:-?[0-9]+|[a-z][A-Za-z0-9_]*)"
_FACT_RE = re.compile(
    rf"""(?:\s|[%\#][^\n]*(?![^\n]))*
    ([a-z][A-Za-z0-9_]*)[ \t]*\([ \t]*
    ({_FACT_ARG}(?:[ \t]*,[ \t]*{_FACT_ARG})*)
    [ \t]*\)[ \t]*\.(?!\d)""",
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


class _Lexer:
    """Tokens of one source string, lexed on demand from any position.

    The line/column state is a function of the position alone (one line
    per newline before it), so a caller may skip text it consumed itself
    -- the ground-fact shortcut -- and lexing resumes with exact positions.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self._line, self._line_start, self._counted = 1, 0, 0

    def tokens(self, position: int, clause: bool = False) -> tuple[list[_Token], int]:
        """Tokens from ``position`` to the end, or (``clause``) through the next period.

        Returns the tokens and the position after them.  Raises
        :class:`ParseError` on a character no token starts with.  The
        grammar consumes a period only as a clause's last token, so one
        clause's tokens never run past its first period.
        """
        source = self.source
        newlines = source.count("\n", self._counted, position)
        if newlines:
            self._line += newlines
            self._line_start = source.rfind("\n", self._counted, position) + 1
        line, line_start = self._line, self._line_start
        tokens: list[_Token] = []
        while position < len(source):
            m = _TOKEN_RE.match(source, position)
            if m is None:
                raise ParseError(
                    f"unexpected character {source[position]!r}", line, position - line_start + 1
                )
            kind = m.lastgroup or ""
            text = m.group()
            if kind not in ("ws", "comment"):
                tokens.append(_Token(kind, text, line, position - line_start + 1))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = position + text.rfind("\n") + 1
            position = m.end()
            if clause and kind == "period":
                break
        self._line, self._line_start, self._counted = line, line_start, position
        return tokens, position


def _tokenize(source: str) -> list[_Token]:
    return _Lexer(source).tokens(0)[0]


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    def _peek(self) -> _Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            last = self._tokens[-1] if self._tokens else _Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        self._pos += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found {token.text!r}", token.line, token.column)
        return token

    def expect_end(self) -> None:
        token = self._peek()
        if token is not None:
            raise ParseError(f"trailing input {token.text!r}", token.line, token.column)

    # ------------------------------------------------------------------
    def term(self) -> Term:
        token = self._next()
        if token.kind == "var":
            return Variable(token.text)
        if token.kind == "int":
            return Constant(int(token.text))
        if token.kind == "name":
            return Constant(token.text)
        if token.kind in ("squote", "dquote"):
            body = token.text[1:-1]
            body = body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")
            return Constant(body)
        raise ParseError(f"expected a term, found {token.text!r}", token.line, token.column)

    def atom(self) -> Atom:
        token = self._next()
        if token.kind not in ("name", "var"):
            raise ParseError(
                f"expected a predicate name, found {token.text!r}", token.line, token.column
            )
        if token.kind == "var":
            raise ParseError(
                f"predicate names must be lowercase, found {token.text!r}",
                token.line,
                token.column,
            )
        predicate = token.text
        args: list[Term] = []
        nxt = self._peek()
        if nxt is not None and nxt.kind == "lparen":
            self._next()
            args.append(self.term())
            while True:
                sep = self._next()
                if sep.kind == "rparen":
                    break
                if sep.kind != "comma":
                    raise ParseError(
                        f"expected ',' or ')', found {sep.text!r}", sep.line, sep.column
                    )
                args.append(self.term())
        return Atom(predicate, tuple(args))

    def atom_list(self) -> list[Atom]:
        atoms = [self.atom()]
        while (tok := self._peek()) is not None and tok.kind == "comma":
            self._next()
            atoms.append(self.atom())
        return atoms

    def clause(self) -> tuple[str, Rule | list[Atom]]:
        """Parse one statement; returns ('rule', Rule) or ('query', [Atom...])."""
        token = self._peek()
        assert token is not None
        if token.kind == "query":
            self._next()
            body = self.atom_list()
            self._expect("period")
            return ("query", body)
        head = self.atom()
        nxt = self._peek()
        if nxt is not None and nxt.kind == "arrow":
            self._next()
            body = self.atom_list()
            self._expect("period")
            return ("rule", Rule(head, tuple(body)))
        self._expect("period")
        return ("rule", Rule(head))


def parse_term(source: str) -> Term:
    """Parse a single term (variable or constant)."""
    parser = _Parser(_tokenize(source))
    result = parser.term()
    parser.expect_end()
    return result


def parse_atom(source: str) -> Atom:
    """Parse a single atom such as ``p(X, a, 3)``."""
    parser = _Parser(_tokenize(source))
    result = parser.atom()
    parser.expect_end()
    return result


def parse_rule(source: str) -> Rule:
    """Parse one rule or fact, e.g. ``p(X,Y) <- e(X,Y).`` or ``e(a,b).``."""
    parser = _Parser(_tokenize(source))
    kind, payload = parser.clause()
    if kind != "rule" or not isinstance(payload, Rule):
        raise ParseError("expected a rule, found a query", 1, 1)
    parser.expect_end()
    return payload


def parse_query(source: str) -> tuple[Atom, ...]:
    """Parse a query body such as ``anc(a, Z), p(Z)``, with an optional final period.

    Raises :class:`ParseError` on anything after the body (and its period),
    so ``t(1, Z) garbage`` or ``t(1, Z). t(2, Z)`` is refused rather than
    answered as ``t(1, Z)``.
    """
    parser = _Parser(_tokenize(source))
    atoms = parser.atom_list()
    token = parser._peek()
    if token is not None and token.kind == "period":
        parser._next()
    parser.expect_end()
    return tuple(atoms)


def query_to_rule(body: Sequence[Atom]) -> Rule:
    """Desugar ``?- body`` into ``goal(Vars...) <- body`` (Section 1).

    The goal's arguments are the distinct variables of the query body in
    order of first occurrence, so every binding the user asked about is
    reported.
    """
    seen: list[Variable] = []
    for atom_ in body:
        for var in atom_.variables():
            if var not in seen:
                seen.append(var)
    head = Atom(GOAL_PREDICATE, tuple(seen))
    return Rule(head, tuple(body))


def parse_program(source: str, validate: bool = True) -> Program:
    """Parse a whole program: rules, facts, and ``?-`` queries.

    Ground bodyless clauses become EDB facts; everything else becomes an IDB
    rule; queries are desugared via :func:`query_to_rule`.

    A clause that :data:`_FACT_RE` matches -- a plain ground fact, the bulk
    of any EDB -- is built straight from the match: one :class:`Atom`, one
    args tuple and one :class:`Constant` per argument, exactly what the
    grammar builds, with no tokens and no :class:`Rule`.  The match already
    guarantees what ``Atom``'s checks test, so :func:`trusted_atom` skips
    them.  Every other clause is lexed and parsed alone, from the same
    position, by the full grammar, so every error comes from that grammar
    with its exact line and column.
    """
    rules: list[Rule] = []
    facts: list[Atom] = []
    lexer = _Lexer(source)
    match_fact = _FACT_RE.match
    position = 0
    while True:
        while (m := match_fact(source, position)) is not None:
            args = [
                Constant(arg if arg[0] >= "a" else int(arg))
                for arg in map(str.strip, m[2].split(","))
            ]
            facts.append(trusted_atom(m[1], tuple(args)))
            position = m.end()
        tokens, position = lexer.tokens(position, clause=True)
        if not tokens:
            break
        parser = _Parser(tokens)
        try:
            kind, payload = parser.clause()
        except ParseError:
            # A character no token starts with, anywhere in the source,
            # is reported before any grammar error.
            lexer.tokens(position)
            raise
        if kind == "query":
            assert isinstance(payload, list)
            rules.append(query_to_rule(payload))
        else:
            assert isinstance(payload, Rule)
            if payload.is_fact and payload.head.is_ground():
                facts.append(payload.head)
            else:
                rules.append(payload)
    # A ground bodyless clause whose predicate is also defined by rules is an
    # IDB unit rule, not an EDB fact — Section 1 keeps the two vocabularies
    # disjoint ("no positive occurrence of a predicate that appears in the
    # EDB" among the rules).
    defined = {r.head.predicate for r in rules}
    edb_facts = [f for f in facts if f.predicate not in defined]
    for fact in facts:
        if fact.predicate in defined:
            rules.append(Rule(fact))
    return Program(rules, edb_facts, validate=validate)
