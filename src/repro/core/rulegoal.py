"""Rule/goal graph construction — Section 2.

The graph is built top-down "much in the manner of Prolog and other top-down
systems", by depth-first expansion from a top-level goal node for ``goal``:

* an **EDB subgoal** remains a leaf (it is not processed against the actual
  EDB relation during graph construction);
* an IDB subgoal that is a **variant of one of its ancestors** — same
  predicate, same constants, same repeated-variable pattern, *and* matching
  argument classes (Definition 2.2) — is not expanded; a **cycle edge** is
  created from that ancestor to the variant subgoal;
* otherwise the subgoal is expanded with a **rule node** for every rule whose
  head unifies with it; the rule node holds a copy of the rule "that began
  with all new variables, then had the most general unifier applied", and new
  goal nodes are created for its subgoals, adorned via the chosen sideways
  information passing strategy.

Edges are oriented from child to parent — "the direction in which answers
flow"; a cycle edge is oriented from the ancestor to the variant descendant
(the descendant "performs a selection on the relation computed by the
ancestor").  Strong components of this digraph are where recursion lives;
their structure (Definition 2.1 feeders/customers, the unique leader, the
breadth-first spanning tree that coincides with the DFS tree) drives the
distributed termination protocol of Section 3.2.

Theorem 2.1 guarantees the construction terminates for any finite
function-free IDB, with graph size independent of the EDB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .adornment import AdornedAtom, FREE, initial_goal_adornment
from .atoms import Atom
from .program import Program, strongly_connected_components
from .rules import GOAL_PREDICATE, Rule
from .sips import SipStrategy, adorn_body, all_free_sip, greedy_sip
from .terms import Constant, FreshVariables, Parameter, Variable, bound_value
from .unify import unify

__all__ = [
    "GoalNode",
    "RuleNode",
    "StrongComponentInfo",
    "RuleGoalGraph",
    "GraphSizeExceeded",
    "build_rule_goal_graph",
    "build_basic_rule_goal_graph",
    "plan_graph",
    "rule_set_fingerprint",
    "query_variant_signature",
    "graph_cache_key",
    "rule_constants",
    "query_shape",
    "bind_atom",
    "bind_adorned",
    "bind_rule",
]

#: A SIP factory maps (rule-copy, adorned-head) to a strategy.
SipFactory = Callable[[Rule, AdornedAtom], SipStrategy]


class GraphSizeExceeded(RuntimeError):
    """Raised when construction exceeds the safety node budget.

    Theorem 2.1 guarantees finiteness, but the bound is exponential in rule
    arity; the budget turns a pathological blow-up into a clear error.
    """


@dataclass
class GoalNode:
    """A goal (predicate-occurrence) node of the rule/goal graph."""

    id: int
    adorned: AdornedAtom
    kind: str  # "idb" | "edb" | "cyclic"
    parent: Optional[int]  # rule node id; None for the root
    subgoal_position: Optional[int]  # position within the parent rule's body
    depth: int
    ancestors: tuple[int, ...]  # goal-node ids on the DFS path, root first
    rule_children: list[int] = field(default_factory=list)
    cycle_source: Optional[int] = None  # ancestor goal id, for kind == "cyclic"
    cycle_targets: list[int] = field(default_factory=list)

    @property
    def predicate(self) -> str:
        """The goal's predicate symbol."""
        return self.adorned.predicate

    def label(self, bindings: tuple = ()) -> str:
        """Human-readable label, e.g. ``p(V^d, Z^f)``, parameters bound."""
        return str(bind_adorned(self.adorned, bindings))


@dataclass
class RuleNode:
    """A rule node: one renamed+unified rule copy under a goal node."""

    id: int
    rule: Rule
    head: AdornedAtom
    sip: SipStrategy
    adorned_body: tuple[AdornedAtom, ...]
    parent: int  # goal node id
    depth: int
    rule_index: int  # index of the source rule in the program
    subgoal_children: list[int] = field(default_factory=list)

    def label(self, bindings: tuple = ()) -> str:
        """Human-readable label in the paper's Fig-1 style, parameters bound."""
        body = ", ".join(str(bind_adorned(a, bindings)) for a in self.adorned_body)
        return f"{bind_adorned(self.head, bindings)} <- {body}"


@dataclass(frozen=True)
class StrongComponentInfo:
    """One strong component plus its termination-protocol scaffolding.

    ``leader`` is the unique node whose DFS parent lies outside the component
    (footnote 3: the absence of cross and forward edges guarantees a unique
    leader and makes the BFST coincide with the DFS spanning tree).
    ``bfst_children`` maps each member to its spanning-tree children inside
    the component.
    """

    members: frozenset[int]
    leader: int
    bfst_children: dict[int, tuple[int, ...]]
    bfst_parent: dict[int, int]


class RuleGoalGraph:
    """The constructed rule/goal graph plus derived structure."""

    def __init__(
        self, program: Program, sip_factory: SipFactory, coalesced: bool = False
    ) -> None:
        self.program = program
        self.sip_factory = sip_factory
        self.coalesced = coalesced
        self.goal_nodes: dict[int, GoalNode] = {}
        self.rule_nodes: dict[int, RuleNode] = {}
        self.root: int = 0
        self._next_id = 0
        self._components: Optional[list[StrongComponentInfo]] = None

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def new_id(self) -> int:
        """Allocate the next node id (goal and rule nodes share one space)."""
        nid = self._next_id
        self._next_id += 1
        return nid

    def is_goal(self, node_id: int) -> bool:
        """True iff ``node_id`` names a goal node."""
        return node_id in self.goal_nodes

    def node_label(self, node_id: int, bindings: tuple = ()) -> str:
        """Readable label for any node id (a shape graph's under ``bindings``)."""
        if node_id in self.goal_nodes:
            return self.goal_nodes[node_id].label(bindings)
        return self.rule_nodes[node_id].label(bindings)

    def node_depth(self, node_id: int) -> int:
        """DFS depth of any node."""
        if node_id in self.goal_nodes:
            return self.goal_nodes[node_id].depth
        return self.rule_nodes[node_id].depth

    def dfs_parent(self, node_id: int) -> Optional[int]:
        """The DFS-tree parent of a node (None for the root)."""
        if node_id in self.goal_nodes:
            return self.goal_nodes[node_id].parent
        return self.rule_nodes[node_id].parent

    def size(self) -> int:
        """Total number of nodes."""
        return len(self.goal_nodes) + len(self.rule_nodes)

    # ------------------------------------------------------------------
    # Answer-flow digraph (edges in the direction answers travel)
    # ------------------------------------------------------------------
    def answer_flow_edges(self) -> list[tuple[int, int]]:
        """Arcs of the rule/goal graph, oriented child -> parent plus cycles.

        Tree edges carry answers from child to parent; cycle edges carry
        answers from the ancestor goal node to its cyclic variant descendant.
        """
        edges: list[tuple[int, int]] = []
        for rule_node in self.rule_nodes.values():
            edges.append((rule_node.id, rule_node.parent))
            for child in rule_node.subgoal_children:
                edges.append((child, rule_node.id))
        for goal in self.goal_nodes.values():
            if goal.cycle_source is not None:
                edges.append((goal.cycle_source, goal.id))
        return edges

    def predecessors(self, node_id: int) -> list[int]:
        """Nodes whose answers flow into ``node_id`` (Definition 2.1)."""
        return sorted({a for a, b in self.answer_flow_edges() if b == node_id})

    def successors(self, node_id: int) -> list[int]:
        """Nodes that receive answers from ``node_id`` (Definition 2.1)."""
        return sorted({b for a, b in self.answer_flow_edges() if a == node_id})

    # ------------------------------------------------------------------
    # Strong components, feeders/customers, BFST (Section 3.2 scaffolding)
    # ------------------------------------------------------------------
    def strong_components(self) -> list[StrongComponentInfo]:
        """All strong components with ≥2 nodes, with leader and BFST."""
        if self._components is not None:
            return self._components
        graph: dict[str, set[str]] = {}
        for a, b in self.answer_flow_edges():
            graph.setdefault(str(a), set()).add(str(b))
        raw = strongly_connected_components(graph)
        components: list[StrongComponentInfo] = []
        for component in raw:
            members = frozenset(int(m) for m in component)
            if len(members) < 2:
                continue
            components.append(self._component_info(members))
        components.sort(key=lambda c: min(c.members))
        self._components = components
        return components

    def _component_info(self, members: frozenset[int]) -> StrongComponentInfo:
        leaders = [m for m in members if self.dfs_parent(m) not in members]
        if len(leaders) == 1:
            leader = leaders[0]
        else:
            # Coalesced graphs have cross/forward edges, so a component can
            # be entered at several nodes (footnote 4); pick a deterministic
            # leader and let ComponentDone carry ends to the other members.
            if not self.coalesced:
                raise AssertionError(
                    f"strong component {sorted(members)} has {len(leaders)} "
                    "leaders; the DFS construction should guarantee exactly one"
                )
            leader = min(leaders) if leaders else min(members)
        # Spanning tree: BFS from the leader along request-flow (reversed
        # answer-flow) edges inside the component.  Without coalescing this
        # coincides with the DFS tree (footnote 3).
        request_adjacency: dict[int, list[int]] = {m: [] for m in members}
        for a, b in self.answer_flow_edges():
            if a in members and b in members:
                request_adjacency[b].append(a)
        children: dict[int, tuple[int, ...]] = {}
        parent: dict[int, int] = {}
        seen = {leader}
        frontier = [leader]
        while frontier:
            node = frontier.pop(0)
            kids = []
            for neighbor in sorted(request_adjacency[node]):
                if neighbor not in seen:
                    seen.add(neighbor)
                    kids.append(neighbor)
                    parent[neighbor] = node
                    frontier.append(neighbor)
            children[node] = tuple(kids)
        if seen != set(members):  # pragma: no cover - structural guarantee
            raise AssertionError(
                f"BFST from leader {leader} does not span {sorted(members)}"
            )
        return StrongComponentInfo(members, leader, children, parent)

    def component_of(self, node_id: int) -> Optional[StrongComponentInfo]:
        """The (nontrivial) strong component containing a node, if any."""
        for component in self.strong_components():
            if node_id in component.members:
                return component
        return None

    def feeders(self, node_id: int) -> list[int]:
        """Predecessors in a *different* strong component (Definition 2.1)."""
        component = self.component_of(node_id)
        members = component.members if component else frozenset({node_id})
        return [p for p in self.predecessors(node_id) if p not in members]

    def customers(self, node_id: int) -> list[int]:
        """Successors in a *different* strong component (Definition 2.1)."""
        component = self.component_of(node_id)
        members = component.members if component else frozenset({node_id})
        return [s for s in self.successors(node_id) if s not in members]

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def pretty(self) -> str:
        """Indented rendering of the graph in Fig-1 spirit.

        Coalesced graphs print shared nodes once; later references show a
        ``~~shared~~`` marker (back/cross/forward edges).
        """
        lines: list[str] = []
        printed: set[int] = set()

        def walk(goal_id: int, indent: int) -> None:
            goal = self.goal_nodes[goal_id]
            pad = "  " * indent
            if goal.kind == "cyclic":
                source = self.goal_nodes[goal.cycle_source]  # type: ignore[index]
                lines.append(f"{pad}{goal.label()}  ~~cycle from~~  {source.label()}")
                return
            if goal_id in printed:
                lines.append(f"{pad}{goal.label()}  ~~shared node {goal_id}~~")
                return
            printed.add(goal_id)
            suffix = "  [EDB]" if goal.kind == "edb" else ""
            lines.append(f"{pad}{goal.label()}{suffix}")
            for rule_id in goal.rule_children:
                rule_node = self.rule_nodes[rule_id]
                lines.append(f"{pad}  <- {rule_node.label()}")
                for child in rule_node.subgoal_children:
                    walk(child, indent + 2)

        walk(self.root, 0)
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering: goal nodes as ellipses, rule nodes as boxes.

        Solid arcs are tree edges (drawn in answer-flow direction), dashed
        arcs are cycle edges — matching Fig 1's visual conventions.
        Strong components are clustered, with the leader bold.
        """
        lines = ["digraph rulegoal {", "  rankdir=TB;", '  node [fontsize=11];']
        leaders = {info.leader for info in self.strong_components()}
        clusters = {
            member: index
            for index, info in enumerate(self.strong_components())
            for member in info.members
        }

        def declare(node_id: int) -> str:
            label = self.node_label(node_id).replace('"', "'")
            if node_id in self.goal_nodes:
                goal = self.goal_nodes[node_id]
                shape = "ellipse"
                style = ["filled"] if goal.kind == "edb" else []
                fill = ', fillcolor="lightgrey"' if goal.kind == "edb" else ""
            else:
                shape = "box"
                style = []
                fill = ""
            if node_id in leaders:
                style.append("bold")
            style_attr = f', style="{",".join(style)}"' if style else ""
            return f'  n{node_id} [label="{label}", shape={shape}{style_attr}{fill}];'

        by_cluster: dict[Optional[int], list[int]] = {}
        for node_id in sorted(set(self.goal_nodes) | set(self.rule_nodes)):
            by_cluster.setdefault(clusters.get(node_id), []).append(node_id)
        for cluster, nodes in sorted(
            by_cluster.items(), key=lambda kv: (-1 if kv[0] is None else kv[0])
        ):
            if cluster is None:
                lines += [declare(n) for n in nodes]
            else:
                lines.append(f"  subgraph cluster_{cluster} {{")
                lines.append('    label="strong component"; color=blue;')
                lines += ["  " + declare(n) for n in nodes]
                lines.append("  }")
        for a, b in self.answer_flow_edges():
            cyclic = (
                b in self.goal_nodes and self.goal_nodes[b].cycle_source == a
            )
            style = ' [style=dashed, color=red]' if cyclic else ""
            lines.append(f"  n{a} -> n{b}{style};")
        lines.append("}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Graph keying — Theorem 2.1 makes graphs cacheable across queries
# ----------------------------------------------------------------------

def rule_set_fingerprint(rules: Sequence[Rule]) -> int:
    """A hash identifying an IDB rule set for graph-cache keying.

    Order-sensitive on purpose: rule order determines ``rule_index`` and
    the order of rule children in the constructed graph.  Textually equal
    rules fingerprint equally even when they are distinct objects.
    """
    return hash(tuple(str(r) for r in rules))


def query_variant_signature(atoms: Sequence[Atom]) -> tuple:
    """A canonical key equal exactly for *variant* conjunctive queries.

    Two query bodies are variants when they agree on predicates, constants,
    and the repeated-variable pattern across the whole conjunction — the
    conjunctive extension of Definition 2.2's variant test.  Variable names
    are abstracted to first-occurrence indices, so ``anc(ann, Z)`` and
    ``anc(ann, W)`` share a signature (and answer columns align, because
    the desugared ``goal`` head lists variables in first-occurrence order)
    while ``anc(bob, Z)`` does not.  Theorem 2.1 guarantees the rule/goal
    graph depends only on this signature and the IDB — never on the EDB —
    which is what makes cross-query graph reuse sound.  The session's graph
    cache takes the signature of the query's *shape* (:func:`query_shape`),
    under which ``anc(bob, Z)`` shares ``anc(ann, Z)``'s graph as well.
    """
    first_seen: dict[Variable, int] = {}
    signature: list[tuple] = []
    for atom_ in atoms:
        shape: list[object] = []
        for term in atom_.args:
            if isinstance(term, Variable):
                shape.append(first_seen.setdefault(term, len(first_seen)))
            else:
                shape.append(("const", term.value))
        signature.append((atom_.predicate, tuple(shape)))
    return tuple(signature)


def graph_cache_key(
    rules_fingerprint: int,
    query_atoms: Sequence[Atom],
    sip_factory: SipFactory,
    coalesce: bool,
    planner: str = "static",
    size_fingerprint: tuple = (),
) -> tuple:
    """The full cache key for one constructed rule/goal graph.

    Everything graph construction consumes is represented: the IDB
    fingerprint, the query's variant signature, the SIP strategy (by
    function identity), and the coalescing flag.  The EDB is deliberately
    absent (Theorem 2.1) — with one carve-out: under ``planner="cost"``
    the subgoal orders *derive from* observed relation sizes, so the
    bucketed size fingerprint (see
    :func:`repro.core.planner.size_fingerprint`) joins the key and a
    cached graph is reused only while the planner would choose the same
    orders.  Static-planner keys are unchanged from earlier releases.
    """
    key = (
        "rule-goal-graph",
        rules_fingerprint,
        query_variant_signature(query_atoms),
        sip_factory,
        bool(coalesce),
    )
    if planner != "static":
        key += (planner, size_fingerprint)
    return key


# ----------------------------------------------------------------------
# Query shapes — one graph for every value of a query constant
# ----------------------------------------------------------------------

def rule_constants(rules: Sequence[Rule]) -> frozenset:
    """Every constant value occurring in ``rules`` (heads and bodies)."""
    return frozenset(
        term.value
        for rule in rules
        for atom_ in (rule.head, *rule.body)
        for term in atom_.constants()
    )


def query_shape(
    atoms: Sequence[Atom], literals: frozenset
) -> tuple[tuple[Atom, ...], tuple]:
    """The query's *shape*: ``(shape atoms, bindings)``.

    Construction reads a query constant only when it unifies it: against
    a rule constant, or against another query constant (a repeated head
    variable, a variant check).  A constant equal to no rule constant
    therefore shapes the graph only through which query constants it
    equals.  Each such constant becomes ``Constant(Parameter(k))``, equal
    constants sharing ``k``, and ``bindings[k]`` is its value.  A constant
    in ``literals`` (the rule constants, compared with the equality
    :func:`~repro.core.unify.unify` uses) stays literal: it selects rules,
    so it shapes the graph.  The graph built for the shape atoms, bound
    to ``bindings``, equals the graph built for ``atoms`` node for node.
    """
    slots: dict[object, Constant] = {}
    bindings: list[object] = []
    shaped: list[Atom] = []
    for atom_ in atoms:
        args = []
        for term in atom_.args:
            if isinstance(term, Constant) and term.value not in literals:
                slot = slots.get(term.value)
                if slot is None:
                    slot = slots[term.value] = Constant(Parameter(len(bindings)))
                    bindings.append(term.value)
                term = slot
            args.append(term)
        shaped.append(Atom(atom_.predicate, tuple(args)))
    return tuple(shaped), tuple(bindings)


def bind_atom(atom_: Atom, bindings: tuple) -> Atom:
    """``atom_`` with each parameter replaced by its value in ``bindings``."""
    if not bindings:
        return atom_
    return Atom(
        atom_.predicate,
        tuple(
            Constant(bound_value(term.value, bindings))
            if isinstance(term, Constant)
            else term
            for term in atom_.args
        ),
    )


def bind_adorned(adorned: AdornedAtom, bindings: tuple) -> AdornedAtom:
    """:func:`bind_atom` for an adorned atom (the adornment is unchanged)."""
    if not bindings:
        return adorned
    return AdornedAtom(bind_atom(adorned.atom, bindings), adorned.adornment)


def bind_rule(rule: Rule, bindings: tuple) -> Rule:
    """:func:`bind_atom` for a rule's head and every subgoal."""
    if not bindings:
        return rule
    return Rule(
        bind_atom(rule.head, bindings),
        tuple(bind_atom(subgoal, bindings) for subgoal in rule.body),
    )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _head_adornment_after_mgu(head: Atom, goal: AdornedAtom) -> AdornedAtom:
    """Adorn a rule-node head with the parent goal's classes.

    After the mgu is applied the head is "exactly the same as the subgoal of
    its parent" up to specialization: a head position that was a constant in
    the original rule stays a constant and must be class "c"; every other
    position inherits the goal's class.
    """
    from .adornment import CONSTANT, DYNAMIC

    letters = []
    for i, term in enumerate(head.args):
        goal_class = goal.adornment[i]
        if isinstance(term, Constant):
            letters.append(CONSTANT)
        elif goal_class == CONSTANT:
            # The goal had a constant here but the head kept a variable: the
            # mgu must have bound it, so this cannot happen; guard anyway.
            letters.append(DYNAMIC)
        else:
            letters.append(goal_class)
    return AdornedAtom(head, tuple(letters))


def build_rule_goal_graph(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    max_nodes: int = 200_000,
    coalesce: bool = False,
) -> RuleGoalGraph:
    """Build the information-passing rule/goal graph (Definition 2.2).

    Parameters
    ----------
    program:
        The validated program; its query rules define the ``goal`` predicate.
    sip_factory:
        The information passing strategy applied at every rule node
        (:func:`~repro.core.sips.greedy_sip` by default, per the paper).
    query_goal:
        The adorned top-level goal.  Defaults to ``goal(V0..Vk)`` with all
        arguments free, where ``k`` is the arity of the program's query rules.
    max_nodes:
        Safety budget; :class:`GraphSizeExceeded` is raised beyond it.
    coalesce:
        Merge goal nodes with identical predicates and binding patterns —
        "for single processor computation it is probably desirable to
        coalesce such nodes (thereby introducing cross and forward edges)"
        (Section 2.2).  The default keeps them separate, as the paper assumes
        for distributed computation.
    """
    graph = RuleGoalGraph(program, sip_factory, coalesced=coalesce)
    fresh = FreshVariables()
    signature_table: dict[tuple, int] = {}

    if query_goal is None:
        query_rules = program.query_rules
        if not query_rules:
            raise ValueError("program has no query rules (no 'goal' heads)")
        arity = query_rules[0].head.arity
        if any(r.head.arity != arity for r in query_rules):
            raise ValueError("query rules disagree on the arity of 'goal'")
        atom = Atom(GOAL_PREDICATE, tuple(Variable(f"Ans{i}") for i in range(arity)))
        query_goal = initial_goal_adornment(atom)

    root = GoalNode(
        id=graph.new_id(),
        adorned=query_goal,
        kind="idb",
        parent=None,
        subgoal_position=None,
        depth=0,
        ancestors=(),
    )
    graph.goal_nodes[root.id] = root
    graph.root = root.id
    signature_table[query_goal.variant_signature()] = root.id

    # Iterative DFS; each stack entry is a goal node awaiting expansion.
    stack: list[int] = [root.id]
    while stack:
        goal_id = stack.pop()
        goal = graph.goal_nodes[goal_id]
        predicate = goal.predicate

        if program.is_edb(predicate):
            goal.kind = "edb"
            continue

        # Variant-of-ancestor check (classes must match too — Definition 2.2).
        signature = goal.adorned.variant_signature()
        cycle_source: Optional[int] = None
        for ancestor_id in goal.ancestors:
            ancestor = graph.goal_nodes[ancestor_id]
            if ancestor.adorned.variant_signature() == signature:
                cycle_source = ancestor_id
                break
        if cycle_source is not None:
            goal.kind = "cyclic"
            goal.cycle_source = cycle_source
            graph.goal_nodes[cycle_source].cycle_targets.append(goal.id)
            continue

        goal.kind = "idb"
        new_subgoals: list[int] = []
        for rule_index, rule in enumerate(program.rules):
            if rule.head.predicate != predicate:
                continue
            renamed = rule.rename_apart(fresh)
            mgu = unify(renamed.head, goal.adorned.atom)
            if mgu is None:
                continue
            applied = renamed.substitute(mgu.as_dict())
            head_adorned = _head_adornment_after_mgu(applied.head, goal.adorned)
            sip = sip_factory(applied, head_adorned)
            adorned_subgoals = adorn_body(sip)
            rule_node = RuleNode(
                id=graph.new_id(),
                rule=applied,
                head=head_adorned,
                sip=sip,
                adorned_body=tuple(adorned_subgoals),
                parent=goal.id,
                depth=goal.depth + 1,
                rule_index=rule_index,
            )
            graph.rule_nodes[rule_node.id] = rule_node
            goal.rule_children.append(rule_node.id)
            for position, adorned_subgoal in enumerate(adorned_subgoals):
                if coalesce:
                    existing = signature_table.get(adorned_subgoal.variant_signature())
                    if existing is not None:
                        # Cross/forward (or back) edge to the shared node.
                        rule_node.subgoal_children.append(existing)
                        continue
                child = GoalNode(
                    id=graph.new_id(),
                    adorned=adorned_subgoal,
                    kind="idb",  # refined when popped
                    parent=rule_node.id,
                    subgoal_position=position,
                    depth=goal.depth + 2,
                    ancestors=goal.ancestors + (goal.id,),
                )
                graph.goal_nodes[child.id] = child
                if coalesce:
                    signature_table[adorned_subgoal.variant_signature()] = child.id
                rule_node.subgoal_children.append(child.id)
                new_subgoals.append(child.id)
            if graph.size() > max_nodes:
                raise GraphSizeExceeded(
                    f"rule/goal graph exceeded {max_nodes} nodes"
                )
        # Push in reverse so the leftmost subgoal is expanded first (DFS).
        stack.extend(reversed(new_subgoals))

    return graph


def plan_graph(
    program: Program,
    planner: str = "static",
    sip_factory: SipFactory = greedy_sip,
    database=None,
    query_goal: Optional[AdornedAtom] = None,
    coalesce: bool = False,
) -> RuleGoalGraph:
    """The rule/goal graph a query runs on under ``planner``.

    ``"static"`` builds it with ``sip_factory``.  ``"cost"`` ranks every
    rule's subgoal orders with the §4.3 model seeded from ``database`` (a
    :class:`~repro.relational.database.Database`; the program's inline
    facts when None) and attaches the
    :class:`~repro.core.planner.PlanReport` as ``graph.plan_report``.
    Every runtime and ``repro explain`` plan through here, so the same
    inputs give the same graph everywhere.
    """
    if planner not in ("static", "cost"):
        raise ValueError(f"unknown planner {planner!r} (expected 'static' or 'cost')")
    if planner == "static":
        return build_rule_goal_graph(
            program, sip_factory, query_goal=query_goal, coalesce=coalesce
        )
    from ..relational.database import Database
    from .planner import CostPlanner

    cost_planner = CostPlanner.from_database(
        database if database is not None else Database.from_facts(program.facts)
    )
    graph = build_rule_goal_graph(
        program, cost_planner.sip_factory(), query_goal=query_goal, coalesce=coalesce
    )
    graph.plan_report = cost_planner.report
    return graph


def build_basic_rule_goal_graph(
    program: Program,
    query_goal: Optional[AdornedAtom] = None,
    max_nodes: int = 200_000,
) -> RuleGoalGraph:
    """The *basic* rule/goal graph of Section 2.1 — no information passing.

    Implemented as the information-passing construction under the no-arc SIP
    (:func:`~repro.core.sips.all_free_sip`): with no sideways arcs and a free
    top-level goal every argument class degenerates to "c"/"e"/"f", which is
    exactly the classless structure of the basic graph.
    """
    return build_rule_goal_graph(
        program, sip_factory=all_free_sip, query_goal=query_goal, max_nodes=max_nodes
    )
