"""Tests for the Session convenience API."""

import pytest

from repro.core.atoms import Atom, atom
from repro.core.parser import ParseError, parse_program
from repro.core.program import Program, ProgramError
from repro.core.sips import all_free_sip
from repro.core.terms import Variable
from repro.session import Session

KB = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).  par(cal, dee).
"""


@pytest.fixture
def session():
    return Session(KB)


class TestQuery:
    def test_string_query(self, session):
        assert session.query("anc(ann, Z)") == {("bob",), ("cal",), ("dee",)}

    def test_variable_order_first_occurrence(self, session):
        # Answer columns follow first occurrence: for par(Y, X) that is
        # (Y, X) — i.e. the relation's own column order, whatever the names.
        answers = session.query("par(Y, X)")
        assert ("ann", "bob") in answers
        # A query that genuinely reorders: X named second in the atom but
        # first in an earlier atom.
        flipped = session.query("anc(X, dee), par(P, X)")
        assert ("cal", "bob") in flipped

    def test_conjunctive_query(self, session):
        answers = session.query("anc(ann, Z), par(Z, dee)")
        assert answers == {("cal",)}

    def test_atom_query(self, session):
        from repro.core.terms import Variable

        answers = session.query(atom("anc", "bob", Variable("Z")))
        assert answers == {("cal",), ("dee",)}

    def test_ground_query_yields_empty_tuple(self, session):
        assert session.query("anc(ann, dee)") == {()}
        assert session.query("anc(dee, ann)") == set()

    def test_ask(self, session):
        assert session.ask("anc(ann, dee)")
        assert not session.ask("anc(dee, ann)")
        assert session.ask("anc(X, dee)")

    def test_repeated_queries_independent(self, session):
        first = session.query("anc(ann, Z)")
        second = session.query("anc(bob, Z)")
        assert first != second
        assert session.query("anc(ann, Z)") == first

    @pytest.mark.parametrize(
        "query", ["anc(ann, Z) garbage", "anc(ann, Z). anc(bob, Z)", "anc(ann, Z).."]
    )
    def test_trailing_input_is_refused(self, session, query):
        # Not answered as its first atom list: the whole string must parse.
        with pytest.raises(ParseError, match="trailing input"):
            session.query(query)

    def test_final_period_and_whitespace_are_accepted(self, session):
        assert session.query(" anc(ann, Z) .\n") == {("bob",), ("cal",), ("dee",)}

    def test_last_result_exposes_accounting(self, session):
        session.query("anc(ann, Z)")
        assert session.last_result is not None
        assert session.last_result.completed
        assert session.last_result.total_messages > 0


class TestMutation:
    def test_add_facts(self, session):
        session.add_facts([atom("par", "dee", "eli")])
        assert ("eli",) in session.query("anc(ann, Z)")

    def test_add_rules(self, session):
        session.add_rules("sib(X, Y) <- par(P, X), par(P, Y).")
        # par is (parent, child) here: ann's children are just bob, so the
        # only sibling pairs are reflexive.
        assert session.ask("sib(bob, bob)")

    def test_add_rules_with_facts(self, session):
        session.add_rules("lives(ann, york).")
        assert session.ask("lives(ann, york)")

    def test_invalid_added_rule_rejected(self, session):
        with pytest.raises(ProgramError):
            session.add_rules("bad(X, Y) <- par(X, X).")


class TestBaseValidation:
    """Each base fact is checked once: by the program, or else by the session."""

    @staticmethod
    def count_ground_checks(monkeypatch) -> list:
        calls = []
        original = Atom.is_ground

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Atom, "is_ground", counted)
        return calls

    def test_parsed_program_facts_are_not_walked_again(self, monkeypatch):
        program = parse_program(KB)
        calls = self.count_ground_checks(monkeypatch)
        Session(program)
        assert calls == []

    def test_text_source_checks_each_fact_once(self, monkeypatch):
        calls = self.count_ground_checks(monkeypatch)
        Session(KB)
        assert len(calls) == 3

    def test_unvalidated_program_is_checked_by_the_session(self, monkeypatch):
        program = parse_program(KB, validate=False)
        calls = self.count_ground_checks(monkeypatch)
        Session(program)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "source",
        [
            "goal(1).",
            "p(X) <- q(Y). q(1).",
            Program([], [Atom("e", (Variable("X"),))], validate=False),
            Program([], [atom("goal", 1)], validate=False),
        ],
        ids=["goal-fact-text", "unsafe-rule-text", "nonground-program", "goal-fact-program"],
    )
    def test_bad_base_is_still_rejected(self, source):
        with pytest.raises(ProgramError):
            Session(source)


class TestConfiguration:
    def test_goal_rules_in_source_are_stripped(self):
        session = Session("goal(X) <- e(X). e(1).")
        assert session.query("e(X)") == {(1,)}
        assert all(r.head.predicate != "goal" for r in session.rules)

    def test_program_source(self):
        from repro.core.parser import parse_program

        program = parse_program(KB)
        session = Session(program)
        assert session.ask("anc(ann, cal)")

    def test_modes(self):
        for kwargs in ({"sip_factory": all_free_sip}, {"planner": "cost"}):
            session = Session(KB, **kwargs)
            assert session.query("anc(ann, Z)") == {("bob",), ("cal",), ("dee",)}

    def test_seeded_query(self, session):
        assert session.query("anc(ann, Z)", seed=5) == {("bob",), ("cal",), ("dee",)}
