"""Property-based tests for the parser and printers.

Round trips through the printers, and the ground-fact shortcut of
``parse_program`` against the full grammar on randomly laid-out programs.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.parser import (
    ParseError,
    _Parser,
    _tokenize,
    parse_program,
    parse_rule,
    query_to_rule,
)
from repro.core.program import Program, ProgramError
from repro.core.rules import Rule
from repro.core.terms import Constant, Variable

variables = st.sampled_from([Variable(n) for n in ("X", "Y", "Z", "Uv", "W2")])
constants = st.sampled_from(
    [Constant("a"), Constant("bob"), Constant(0), Constant(42), Constant(-3)]
)
terms = st.one_of(variables, constants)
predicates = st.sampled_from(["p", "q", "edge", "r2"])


@st.composite
def atoms(draw, allow_nullary=True):
    arity = draw(st.integers(0 if allow_nullary else 1, 3))
    return Atom(draw(predicates), tuple(draw(terms) for _ in range(arity)))


@st.composite
def safe_rules(draw):
    body = tuple(draw(atoms()) for _ in range(draw(st.integers(1, 3))))
    body_vars = sorted(
        {v for a in body for v in a.variable_set()}, key=lambda v: v.name
    )
    head_arity = draw(st.integers(0, min(3, len(body_vars)) if body_vars else 0))
    head_args = tuple(body_vars[:head_arity])
    return Rule(Atom("h", head_args), body)


class TestRoundTrips:
    @settings(max_examples=200)
    @given(safe_rules())
    def test_rule_print_parse_roundtrip(self, rule):
        assert parse_rule(str(rule)) == rule

    @settings(max_examples=100)
    @given(st.lists(safe_rules(), min_size=1, max_size=5))
    def test_program_roundtrip(self, rules):
        # h-heads only; no facts. Print and reparse the whole program.
        program = Program(rules, [], validate=False)
        reparsed = parse_program(str(program), validate=False)
        assert set(reparsed.rules) == set(rules)

    @settings(max_examples=200)
    @given(atoms(allow_nullary=False))
    def test_ground_fact_roundtrip(self, atom_):
        if not atom_.is_ground():
            return
        program = parse_program(f"{atom_}.", validate=False)
        assert list(program.facts) == [atom_]

    @settings(max_examples=200)
    @given(safe_rules())
    def test_parse_is_stable(self, rule):
        # parse(print(parse(print(r)))) == parse(print(r))
        once = parse_rule(str(rule))
        twice = parse_rule(str(once))
        assert once == twice


# ----------------------------------------------------------------------
# The ground-fact shortcut against the full grammar
# ----------------------------------------------------------------------
def full_grammar(source):
    """``parse_program``'s result through the token stream alone: the oracle."""
    parser = _Parser(_tokenize(source))
    rules, facts = [], []
    while parser._peek() is not None:
        kind, payload = parser.clause()
        if kind == "query":
            rules.append(query_to_rule(payload))
        elif payload.is_fact and payload.head.is_ground():
            facts.append(payload.head)
        else:
            rules.append(payload)
    defined = {r.head.predicate for r in rules}
    rules += [Rule(f) for f in facts if f.predicate in defined]
    return Program(rules, [f for f in facts if f.predicate not in defined], validate=False)


def outcome(parse, source):
    """``(rules, facts)`` or the error as ``(message, line, column)``."""
    try:
        program = parse(source)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("program", program.rules, program.facts)


EDB = ["e", "f", "edge2"]
IDB = ["p", "anc"]
names = st.sampled_from(["a", "bob", "x1", "aB_9", "e", "zZ"])
# Quoted constants may hold anything a clause boundary is made of.
quoted = st.text(alphabet="ab .,()%#\n", max_size=6).map(lambda s: ("quoted", s))
values = st.one_of(st.integers(-(10**6), 10**6), names, quoted)
#: Between two tokens: nothing, blanks, line breaks, or a comment to end of line.
gaps = st.sampled_from(["", " ", "\t", "  ", "\n", "\r\n", " \n\t", " % c,.\n", "# e(1).\n"])
#: After a clause: a line break or a mid-line comment, then optional blank
#: lines and own-line comments.
tails = st.sampled_from(["\n", "\r\n", " ", "", "  % done.\n", "\t# e(9).\r\n", "\n\n% own line\n"])


def render_value(value):
    if isinstance(value, tuple):
        return f"'{value[1]}'"
    return str(value)


def constant(value):
    return Constant(value[1] if isinstance(value, tuple) else value)


@st.composite
def ground_atoms(draw, predicates):
    """A ground atom and its text, laid out with random gaps."""
    predicate = draw(st.sampled_from(predicates))
    args = draw(st.lists(values, min_size=1, max_size=3))
    gap = lambda: draw(gaps)  # noqa: E731
    inner = f"{gap()},{gap()}".join(render_value(v) for v in args)
    text = f"{predicate}{gap()}({gap()}{inner}{gap()}){gap()}"
    return Atom(predicate, tuple(constant(v) for v in args)), text


@st.composite
def body_atoms(draw):
    if draw(st.booleans()):
        return draw(ground_atoms(EDB))
    predicate = draw(st.sampled_from(EDB + IDB))
    args = draw(st.lists(st.sampled_from(["X", "Y", "_z", 1, "a"]), min_size=1, max_size=3))
    terms = tuple(
        Variable(a) if a in ("X", "Y", "_z") else Constant(a) for a in args
    )
    return Atom(predicate, terms), f"{predicate}({', '.join(str(t) for t in terms)})"


@st.composite
def clauses(draw):
    """One clause as ``(kind, value, text)``, its text without the period."""
    kind = draw(st.sampled_from(["fact", "fact", "fact", "unit", "rule", "query"]))
    if kind in ("fact", "unit"):
        head, text = draw(ground_atoms(EDB if kind == "fact" else IDB))
        return kind, head, text
    body = draw(st.lists(body_atoms(), min_size=1, max_size=3))
    # Multi-line layout: each body atom on its own continuation line.
    joint = draw(st.sampled_from([", ", ",\n    ", ",\r\n  "]))
    body_text = joint.join(text for _, text in body)
    atoms_ = tuple(a for a, _ in body)
    if kind == "query":
        return kind, query_to_rule(atoms_), f"?- {body_text}"
    head = Atom(draw(st.sampled_from(IDB)), (Variable("X"),))
    arrow = draw(st.sampled_from([" <- ", " :-\n    ", " <-\r\n  "]))
    return kind, Rule(head, atoms_), f"{head}{arrow}{body_text}"


@st.composite
def programs(draw):
    """A program, its text, and the offsets right after each clause's period."""
    drawn = draw(st.lists(clauses(), max_size=12))
    text, boundaries = draw(st.sampled_from(["", "% header\n", "\n\n"])), [0]
    for _, _, clause_text in drawn:
        text += clause_text + "."
        boundaries.append(len(text))
        text += draw(tails)
    rules = [value for kind, value, _ in drawn if kind in ("rule", "query")]
    defined = {r.head.predicate for r in rules}
    facts = [value for kind, value, _ in drawn if kind in ("fact", "unit")]
    rules += [Rule(f) for f in facts if f.predicate in defined]
    facts = [f for f in facts if f.predicate not in defined]
    return text, tuple(rules), tuple(facts), boundaries


#: Corruptions inserted at a clause boundary: (text, column offset of the
#: reported error, message fragment).
corruptions = st.sampled_from(
    [
        ("$", 0, "unexpected character '$'"),
        (")", 0, "expected a predicate name"),
        ("E(1).", 0, "predicate names must be lowercase"),
        ("e().", 2, "expected a term"),
        ("e(1.5).", 3, "unexpected character '.'"),
        ("e(1 2).", 4, "expected ',' or ')'"),
    ]
)


class TestFactShortcut:
    @settings(max_examples=300)
    @given(programs())
    def test_parse_returns_the_program_that_was_rendered(self, drawn):
        text, rules, facts, _ = drawn
        program = parse_program(text, validate=False)
        assert program.rules == rules
        assert program.facts == facts  # order included
        assert outcome(lambda s: parse_program(s, validate=False), text) == outcome(
            full_grammar, text
        )

    @settings(max_examples=300)
    @given(programs(), corruptions, st.data())
    def test_corruption_raises_at_its_line_and_column(self, drawn, corruption, data):
        text, _, _, boundaries = drawn
        insert, offset, message = corruption
        at = data.draw(st.sampled_from(boundaries))
        bad = text[:at] + insert + text[at:]
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            parse_program(bad, validate=False)
        line_start = bad.rfind("\n", 0, at) + 1
        assert (info.value.line, info.value.column) == (
            bad.count("\n", 0, at) + 1,
            at - line_start + 1 + offset,
        )
        assert outcome(lambda s: parse_program(s, validate=False), bad) == outcome(
            full_grammar, bad
        )


class TestFactShortcutEdgeCases:
    """Inputs at the edge of the shortcut's pattern: same result as the grammar."""

    @pytest.mark.parametrize(
        "source, fragment, line, column",
        [
            ("e(1.5).", "unexpected character '.'", 1, 4),
            ("e().", "expected a term, found ')'", 1, 3),
            ("E(1).", "predicate names must be lowercase", 1, 1),
            ("e(1,2)", "unexpected end of input", 1, 6),
            ("e(1).\ne(2) e(3).", "expected period, found 'e'", 2, 6),
            ("e(1).5", "unexpected character '.'", 1, 5),
            ("e().\nf(1). $", "unexpected character '$'", 2, 7),
        ],
        ids=["float", "no-args", "uppercase", "no-period", "two-atoms", "period-digit",
             "lex-error-before-grammar-error"],
    )
    def test_errors(self, source, fragment, line, column):
        with pytest.raises(ParseError, match=re.escape(fragment)) as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == (line, column)
        assert outcome(parse_program, source) == outcome(full_grammar, source)

    @pytest.mark.parametrize(
        "source, fact",
        [
            ("e(007).", Atom("e", (Constant(7),))),
            ("e(-0).", Atom("e", (Constant(0),))),
            ("e('a\nb').", Atom("e", (Constant("a\nb"),))),
            ("e ( 1 ,\tab_C9 ) .", Atom("e", (Constant(1), Constant("ab_C9")))),
            ("% e(2).\ne(1).", Atom("e", (Constant(1),))),
        ],
        ids=["leading-zeros", "minus-zero", "quoted-newline", "spaced", "commented-out"],
    )
    def test_facts(self, source, fact):
        program = parse_program(source)
        assert program.facts == (fact,) and program.rules == ()
        assert outcome(parse_program, source) == outcome(full_grammar, source)

    def test_variable_argument_is_a_rule(self):
        # e(_x). is not ground: an IDB unit rule, which validation refuses.
        program = parse_program("e(_x).", validate=False)
        assert program.facts == () and program.rules == (Rule(Atom("e", (Variable("_x"),))),)
        with pytest.raises(ProgramError, match="unsafe rule"):
            parse_program("e(_x).")

    def test_fact_of_a_rule_defined_predicate_stays_an_idb_unit_rule(self):
        source = "p(1, 2).\np(X, Y) <- e(X, Y).\ne(3, 4)."
        program = parse_program(source)
        assert program.facts == (Atom("e", (Constant(3), Constant(4))),)
        assert program.rules[-1] == Rule(Atom("p", (Constant(1), Constant(2))))
        assert outcome(parse_program, source) == outcome(full_grammar, source)

    def test_rule_continuation_line_is_not_a_fact(self):
        program = parse_program("p(a) <-\n  e(1, 2).\n")
        assert program.facts == ()
        body = (Atom("e", (Constant(1), Constant(2))),)
        assert program.rules == (Rule(Atom("p", (Constant("a"),)), body),)

    def test_fact_atoms_are_fresh_objects(self):
        # No interning: every argument is its own Constant, as the grammar builds it.
        first, second = parse_program("e(1, a).\ne(1, a).").facts
        assert first == second
        assert all(x is not y for x, y in zip(first.args, second.args))
