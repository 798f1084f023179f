"""Core Datalog kernel: terms, rules, adornments, SIPs, rule/goal graphs.

This subpackage implements the paper's *primary contribution* at the static
level: the information-passing rule/goal graph of Section 2 with its four
binding classes, the sideways information passing strategies, and the
Section 4 monotone-flow analysis (evaluation hypergraphs, GYO reduction,
qual trees, qual-tree composition, and the cost model).
"""

from .adornment import (
    BINDING_CLASSES,
    CONSTANT,
    DYNAMIC,
    EXISTENTIAL,
    FREE,
    AdornedAtom,
    initial_goal_adornment,
)
from .atoms import Atom, atom
from .hypergraph import GyoResult, Hypergraph, QualTree
from .monotone import (
    compose_qual_trees,
    evaluation_hypergraph,
    extend_rule,
    has_monotone_flow,
    qual_tree_sip,
    rule_qual_tree,
)
from .optimizer import CardinalityModel, EdbStatistics, statistics_sip
from .parser import ParseError, parse_atom, parse_program, parse_query, parse_rule, parse_term
from .program import Program, ProgramError
from .rulegoal import (
    GoalNode,
    GraphSizeExceeded,
    RuleGoalGraph,
    RuleNode,
    build_basic_rule_goal_graph,
    build_rule_goal_graph,
)
from .rules import GOAL_PREDICATE, Rule
from .sips import (
    HEAD,
    SipArc,
    SipStrategy,
    adorn_body,
    all_free_sip,
    greedy_sip,
    is_greedy,
    left_to_right_sip,
    sip_from_order,
)
from .terms import Constant, FreshVariables, Term, Variable

__all__ = [
    # terms / atoms / rules
    "Variable", "Constant", "Term", "FreshVariables", "Atom", "atom",
    "Rule", "GOAL_PREDICATE", "Program", "ProgramError",
    # parsing
    "ParseError", "parse_term", "parse_atom", "parse_rule", "parse_program",
    "parse_query",
    # adornments & SIPs
    "CONSTANT", "DYNAMIC", "EXISTENTIAL", "FREE", "BINDING_CLASSES",
    "AdornedAtom", "initial_goal_adornment",
    "HEAD", "SipArc", "SipStrategy", "adorn_body", "sip_from_order",
    "greedy_sip", "left_to_right_sip", "all_free_sip", "is_greedy",
    "EdbStatistics", "CardinalityModel", "statistics_sip",
    # rule/goal graph
    "GoalNode", "RuleNode", "RuleGoalGraph", "GraphSizeExceeded",
    "build_rule_goal_graph", "build_basic_rule_goal_graph",
    # hypergraphs & monotone flow
    "Hypergraph", "QualTree", "GyoResult",
    "evaluation_hypergraph", "has_monotone_flow", "rule_qual_tree",
    "qual_tree_sip", "extend_rule", "compose_qual_trees",
]
