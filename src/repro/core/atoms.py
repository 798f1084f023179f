"""Atomic formulas (atoms) over function-free terms.

An atom ``p(t1, ..., tk)`` is a predicate symbol applied to terms.  Ground
atoms are the EDB *facts* of Section 1; non-ground atoms appear as rule heads
and subgoals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .terms import Constant, Term, Variable, term_from_value

__all__ = ["Atom", "atom"]

_VALUE_GET = operator.attrgetter("value")


@dataclass(frozen=True, slots=True)
class Atom:
    """An atomic formula ``predicate(args...)``.

    Atoms are immutable and hashable so they can key dictionaries (e.g. the
    variant-closure table of the rule/goal graph construction) and live in
    sets (e.g. derived fact sets of the bottom-up baselines).
    """

    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.predicate:
            raise ValueError("predicate name must be non-empty")
        for arg in self.args:
            if not isinstance(arg, (Variable, Constant)):
                raise TypeError(f"atom argument {arg!r} is not a Term")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    def variables(self) -> list[Variable]:
        """All variable occurrences, in argument order (with repetitions)."""
        return [t for t in self.args if isinstance(t, Variable)]

    def variable_set(self) -> set[Variable]:
        """The set of distinct variables occurring in the atom."""
        return {t for t in self.args if isinstance(t, Variable)}

    def constants(self) -> list[Constant]:
        """All constant occurrences, in argument order."""
        return [t for t in self.args if isinstance(t, Constant)]

    def is_ground(self) -> bool:
        """True iff the atom contains no variables (i.e. it is a fact)."""
        return all(isinstance(t, Constant) for t in self.args)

    def repetition_pattern(self) -> tuple[int, ...]:
        """Canonical pattern of repeated variables and constant positions.

        Two atoms are variants only if their patterns agree.  Each argument
        position is mapped to the index of the *first* position holding the
        same variable; constant positions are mapped to ``-1 - k`` where ``k``
        numbers distinct constants by first occurrence.  The proof of
        Theorem 2.1 notes that patterns like ``p(X, X, Z)`` versus
        ``p(V, V, V)`` must be distinguished; this pattern does exactly that.
        """
        first_seen: dict[Term, int] = {}
        pattern: list[int] = []
        const_index: dict[Constant, int] = {}
        for position, term in enumerate(self.args):
            if isinstance(term, Variable):
                if term not in first_seen:
                    first_seen[term] = position
                pattern.append(first_seen[term])
            else:
                if term not in const_index:
                    const_index[term] = len(const_index)
                pattern.append(-1 - const_index[term])
        return tuple(pattern)

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution (variable -> term) to every argument."""
        new_args = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t for t in self.args
        )
        if new_args == self.args:
            return self
        return Atom(self.predicate, new_args)

    def ground_tuple(self) -> tuple[object, ...]:
        """Return the tuple of constant values; raises if not ground.

        Hot on the fact-loading path (once per EDB fact): the C-level
        attribute gather succeeds exactly when every term is a
        :class:`Constant` — ``Variable`` has no ``value`` slot.
        """
        try:
            return tuple(map(_VALUE_GET, self.args))
        except AttributeError:
            raise ValueError(f"atom {self} is not ground") from None

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"

    def __repr__(self) -> str:
        return f"Atom({str(self)!r})"

    def __iter__(self) -> Iterator[Term]:
        return iter(self.args)


def atom(predicate: str, *args: object) -> Atom:
    """Convenience constructor coercing raw values into terms.

    ``atom("p", Variable("X"), "a", 3)`` builds ``p(X, a, 3)``.
    """
    return Atom(predicate, tuple(term_from_value(a) for a in args))


_new_object = object.__new__
_set_predicate = Atom.predicate.__set__  # the slot descriptors, past the
_set_args = Atom.args.__set__  # frozen __setattr__ and __post_init__


def trusted_atom(predicate: str, args: tuple[Term, ...]) -> Atom:
    """An :class:`Atom` built without ``__post_init__``'s checks.

    For a caller whose input already guarantees them -- a non-empty
    predicate and every argument a :class:`Variable` or :class:`Constant`
    -- such as the parser's ground-fact shortcut.  The result is equal
    to, and hashes like, ``Atom(predicate, args)``.
    """
    built = _new_object(Atom)
    _set_predicate(built, predicate)
    _set_args(built, args)
    return built
