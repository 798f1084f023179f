"""Unit tests for provenance atom display and Derivation utilities."""

import pytest

from repro.core.adornment import AdornedAtom
from repro.core.atoms import atom
from repro.core.terms import Variable
from repro.network.provenance import Derivation, _display_atom

X, Y, W = Variable("X"), Variable("Y"), Variable("W")


class TestDisplayAtom:
    def test_plain_positions(self):
        adorned = AdornedAtom(atom("p", X, Y), ("d", "f"))
        assert _display_atom(adorned, ("a", 7)) == "p(a, 7)"

    def test_existential_positions_show_underscore(self):
        adorned = AdornedAtom(atom("p", X, W, Y), ("d", "e", "f"))
        # The row omits the existential column.
        assert _display_atom(adorned, ("a", 7)) == "p(a, _, 7)"

    def test_constant_positions(self):
        # The row omits the constant column; the adorned atom supplies it.
        adorned = AdornedAtom(atom("p", "k", Y), ("c", "f"))
        assert _display_atom(adorned, (9,)) == "p(k, 9)"

    def test_zero_arity(self):
        adorned = AdornedAtom(atom("flag"), ())
        assert _display_atom(adorned, ()) == "flag()"


class TestDerivationUtilities:
    def build(self):
        leaf_a = Derivation("e(1, 2)", "fact")
        leaf_b = Derivation("e(2, 3)", "fact")
        inner = Derivation("t(1, 3)", "rule", rule="t(X,Y) <- ...", children=(leaf_a, leaf_b))
        return Derivation("goal(3)", "rule", rule="goal(Z) <- ...", children=(inner,))

    def test_facts_left_to_right(self):
        assert self.build().facts() == ["e(1, 2)", "e(2, 3)"]

    def test_depth(self):
        assert self.build().depth() == 3
        assert Derivation("e(1)", "fact").depth() == 1

    def test_render_marks_kinds(self):
        text = self.build().render()
        assert text.count("[EDB fact]") == 2
        assert text.count("[by ") == 2
        # Indentation deepens per level.
        lines = text.splitlines()
        assert lines[1].startswith("  ") and lines[2].startswith("    ")
