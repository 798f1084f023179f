"""Relational substrate: relations, algebra, the EDB, and acyclic joins."""

from .algebra import (
    WorkMeter,
    antijoin,
    cross_product,
    join_all,
    natural_join,
    semijoin,
)
from .database import Database, columns_for
from .relation import Relation, Row

__all__ = [
    "Relation",
    "Row",
    "Database",
    "columns_for",
    "WorkMeter",
    "natural_join",
    "semijoin",
    "antijoin",
    "cross_product",
    "join_all",
]
