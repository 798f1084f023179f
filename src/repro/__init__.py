"""repro — A Message Passing Framework for Logical Query Evaluation.

A from-scratch reproduction of Allen Van Gelder's SIGMOD 1986 paper: Datalog
(function-free Horn clause) query evaluation as a network of processes
communicating only by messages.

Quickstart
----------
>>> from repro import parse_program, evaluate
>>> program = parse_program('''
...     goal(Z) <- anc(ann, Z).
...     anc(X, Y) <- par(X, Y).
...     anc(X, Y) <- par(X, U), anc(U, Y).
...     par(ann, bob).  par(bob, cal).
... ''')
>>> sorted(evaluate(program).answers)
[('bob',), ('cal',)]

Layers
------
* :mod:`repro.core` — the Datalog kernel, adornments, SIP strategies, the
  rule/goal graph, hypergraphs/qual trees, monotone flow, the cost model;
* :mod:`repro.relational` — relations, algebra, the EDB, Yannakakis joins;
* :mod:`repro.network` — messages, node processes, scheduler, the Fig-2
  distributed termination protocol, and the evaluation engine;
* :mod:`repro.runtime` — the supervised pooled shard runtime;
* :mod:`repro.baselines` — naive, semi-naive, brute-force, tabled top-down;
* :mod:`repro.workloads` — the paper's example programs and EDB generators.
"""

from .core import (
    AdornedAtom,
    Atom,
    Constant,
    Program,
    Rule,
    Variable,
    atom,
    all_free_sip,
    build_rule_goal_graph,
    greedy_sip,
    has_monotone_flow,
    left_to_right_sip,
    parse_atom,
    parse_program,
    parse_rule,
    qual_tree_sip,
    rule_qual_tree,
)
from .cache import CacheStats, GraphCache
from .network import MessagePassingEngine, QueryResult, evaluate
from .session import Session

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # kernel
    "Variable", "Constant", "Atom", "atom", "Rule", "Program", "AdornedAtom",
    "parse_program", "parse_rule", "parse_atom",
    # strategies & analysis
    "greedy_sip", "left_to_right_sip", "all_free_sip",
    "build_rule_goal_graph", "has_monotone_flow", "rule_qual_tree", "qual_tree_sip",
    # engines
    "evaluate", "MessagePassingEngine", "QueryResult",
    "Session", "GraphCache", "CacheStats",
]
