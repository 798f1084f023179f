"""Terms of the function-free first-order language used throughout the paper.

The paper's language (Section 1) is function-free Horn clause logic: a term is
either a *variable* or a *constant*.  There are no function symbols, which is
what makes the rule/goal graph finite (Theorem 2.1) and the minimum model
computable.

Variables are written with a leading uppercase letter or underscore, constants
with a leading lowercase letter, as integers, or as quoted strings — the same
convention as Prolog and the paper's examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Variable",
    "Constant",
    "Parameter",
    "bound_value",
    "Term",
    "FreshVariables",
    "term_from_value",
]


@dataclass(frozen=True, slots=True)
class Variable:
    """A logical variable, identified by its name.

    Two ``Variable`` objects with the same name denote the same variable
    within a clause; clauses are renamed apart before unification (the paper's
    rule nodes contain "a copy of the rule that began with all new variables").
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant symbol.

    The payload ``value`` may be any hashable Python value (strings and
    integers in practice).  Constants compare by value, so ``Constant(1)`` and
    ``Constant("1")`` are distinct.
    """

    value: object

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True, slots=True)
class Parameter:
    """A numbered query-constant slot: the value of a shape graph's constant.

    A query constant that equals no rule constant only ever meets itself
    during graph construction, so the rule/goal graph does not depend on
    its value.  A *shape* graph holds ``Constant(Parameter(k))`` in its
    place; the engine reads ``bindings[k]`` wherever a value is needed.
    A parameter equals only the parameter with the same index — never a
    rule constant — so unification treats it as a constant of its own.
    """

    index: int

    def __str__(self) -> str:
        return f"${self.index}"


def bound_value(value: object, bindings: tuple) -> object:
    """``value`` itself, or its binding when it is a :class:`Parameter`."""
    return bindings[value.index] if isinstance(value, Parameter) else value


#: A term is a variable or a constant (no function symbols — Section 1).
Term = Union[Variable, Constant]


def term_from_value(value: object) -> Term:
    """Coerce a raw Python value into a :class:`Term`.

    Existing :class:`Variable`/:class:`Constant` objects pass through
    unchanged; anything else is wrapped in a :class:`Constant`.  Strings that
    *look* like variables are still treated as constants — use
    :class:`Variable` explicitly when a variable is intended.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    return Constant(value)


class FreshVariables:
    """A factory of globally fresh variables.

    The rule/goal graph construction requires each rule node to hold "a copy
    of the rule that began with all new variables" (Section 2.1).  A single
    ``FreshVariables`` instance is threaded through the construction so names
    never collide.
    """

    def __init__(self, prefix: str = "_V") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self, hint: str | None = None) -> Variable:
        """Return a brand-new variable, optionally keeping ``hint`` readable.

        The generated name embeds ``hint`` (the original variable's name) so
        traces of the rule/goal graph stay human-readable, e.g. ``X#3``.
        """
        index = next(self._counter)
        if hint:
            return Variable(f"{hint}#{index}")
        return Variable(f"{self._prefix}{index}")

    def rename_all(self, variables: "list[Variable] | set[Variable]") -> dict[Variable, Variable]:
        """Build a renaming (old variable -> fresh variable) for a clause."""
        # Sort for determinism: set iteration order varies between runs.
        ordered = sorted(variables, key=lambda v: v.name)
        return {var: self.fresh(var.name.split("#", 1)[0]) for var in ordered}
