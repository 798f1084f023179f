"""Unit tests for atoms: structure, substitution, repetition patterns."""

import dataclasses

import pytest

from repro.core.atoms import Atom, atom, trusted_atom
from repro.core.parser import parse_program
from repro.core.terms import Constant, Variable

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestConstruction:
    def test_atom_helper_coerces(self):
        a = atom("p", X, "a", 3)
        assert a.args == (X, Constant("a"), Constant(3))

    def test_zero_arity(self):
        a = atom("flag")
        assert a.arity == 0
        assert str(a) == "flag"

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            Atom("p", ("raw",))  # type: ignore[arg-type]

    def test_rejects_empty_predicate(self):
        with pytest.raises(ValueError):
            Atom("", ())

    def test_str(self):
        assert str(atom("p", X, "a")) == "p(X, a)"


class TestTrustedConstruction:
    """The parser's ground-fact shortcut builds atoms without the checks."""

    def test_trusted_atoms_equal_and_hash_like_checked_ones(self):
        args = (Constant("a"), Constant(-3))
        trusted, checked = trusted_atom("e", args), Atom("e", args)
        assert trusted == checked and checked == trusted
        assert hash(trusted) == hash(checked)
        assert {trusted: 1}[checked] == 1
        assert type(trusted) is Atom and trusted.args is args
        with pytest.raises(dataclasses.FrozenInstanceError):
            trusted.predicate = "f"  # type: ignore[misc]

    def test_shortcut_facts_match_checked_atoms(self):
        facts = parse_program("e(1, abc).  e(-2, x_Y9).  flag(zz).").facts
        checked = [
            Atom("e", (Constant(1), Constant("abc"))),
            Atom("e", (Constant(-2), Constant("x_Y9"))),
            Atom("flag", (Constant("zz"),)),
        ]
        assert list(facts) == checked
        assert [hash(f) for f in facts] == [hash(c) for c in checked]
        assert set(facts) == set(checked)


class TestStructure:
    def test_variables_in_order_with_repeats(self):
        a = atom("p", X, Y, X)
        assert a.variables() == [X, Y, X]
        assert a.variable_set() == {X, Y}

    def test_constants(self):
        a = atom("p", "a", X, 3)
        assert a.constants() == [Constant("a"), Constant(3)]

    def test_is_ground(self):
        assert atom("p", "a", 1).is_ground()
        assert not atom("p", "a", X).is_ground()

    def test_ground_tuple(self):
        assert atom("p", "a", 1).ground_tuple() == ("a", 1)

    def test_ground_tuple_raises_on_variables(self):
        with pytest.raises(ValueError):
            atom("p", X).ground_tuple()


class TestRepetitionPattern:
    def test_distinct_variables(self):
        assert atom("p", X, Y, Z).repetition_pattern() == (0, 1, 2)

    def test_repeated_variable(self):
        assert atom("p", X, X, Z).repetition_pattern() == (0, 0, 2)

    def test_all_same(self):
        assert atom("p", X, X, X).repetition_pattern() == (0, 0, 0)

    def test_theorem21_technicality(self):
        # p(X, X, Z) and p(V, V, V) must not look alike (Thm 2.1 proof).
        V = Variable("V")
        assert (
            atom("p", X, X, Z).repetition_pattern()
            != atom("p", V, V, V).repetition_pattern()
        )

    def test_renaming_invariance(self):
        U, W = Variable("U"), Variable("W")
        assert (
            atom("p", X, Y, X).repetition_pattern()
            == atom("p", U, W, U).repetition_pattern()
        )

    def test_constants_numbered_by_first_occurrence(self):
        a = atom("p", "a", X, "b", "a")
        assert a.repetition_pattern() == (-1, 1, -2, -1)


class TestSubstitution:
    def test_substitute_variable(self):
        a = atom("p", X, Y)
        assert a.substitute({X: Constant(1)}) == atom("p", 1, Y)

    def test_substitute_to_variable(self):
        a = atom("p", X, Y)
        assert a.substitute({X: Y}) == atom("p", Y, Y)

    def test_no_change_returns_self(self):
        a = atom("p", X)
        assert a.substitute({Y: Constant(1)}) is a

    def test_constants_untouched(self):
        a = atom("p", "a", X)
        out = a.substitute({X: Constant("b")})
        assert out == atom("p", "a", "b")

    def test_atoms_hashable_and_iterable(self):
        a = atom("p", X, "a")
        assert list(a) == [X, Constant("a")]
        assert len({a, atom("p", X, "a")}) == 1
