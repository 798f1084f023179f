"""Cost-model-driven join planning at graph-build time.

ROADMAP item 2's second half: the §4.3 cost model has been *benchmarked*
since the early PRs (``bench_claim_costmodel.py``) but never *used* — every
rule node evaluated its subgoals in the order the greedy structural SIP
produced, regardless of how large the relations actually are.  This module
closes the loop:

* :class:`CostPlanner`'s ``from_database`` harvests observed per-predicate log10
  cardinalities from the live :class:`~repro.relational.database.Database`
  and instantiates the :class:`~repro.core.costmodel.CostModel` with them
  (predicates the database does not hold — IDB predicates — keep the
  paper's ignorance prior);
* :meth:`CostPlanner.sip_factory` wraps :func:`~repro.core.costmodel.
  rank_orders` into a SIP factory: every rule instantiated during rule/goal
  graph construction gets the model-cheapest subgoal order, and the choice
  (with the ranked alternatives and their per-stage estimates) is recorded
  on a :class:`PlanReport` for ``QueryResult`` accounting and the
  ``repro explain`` CLI;
* :func:`size_fingerprint` buckets the observed sizes so the session's
  graph-cache key (Theorem 2.1 + the planner inputs) changes exactly when
  the EDB grows enough to possibly change a plan — order-of-magnitude
  steps, matching the model's own resolution.

Soundness: a rule/goal graph built under *any* subgoal order is a correct
evaluation strategy (Theorem 2.1 quantifies over SIPs); the planner only
changes which correct graph gets built.  Caching is what requires care —
two databases whose size buckets differ may plan differently, so the
bucketed fingerprint joins the cache key and a cached graph is reused only
when the plan inputs could not have changed the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..relational.database import Database
from .adornment import AdornedAtom
from .costmodel import CostModel, StrategyEstimate, rank_orders
from .rules import Rule
from .sips import SipStrategy, greedy_sip, sip_from_order

__all__ = ["CostPlanner", "PlanReport", "RulePlan", "size_fingerprint"]

#: Beyond this many subgoals the exhaustive ranking is skipped and the rule
#: keeps the greedy structural order (recorded as unplanned).
EXHAUSTIVE_LIMIT = 7

#: How many ranked alternatives each :class:`RulePlan` retains.
RANKED_KEPT = 5


def size_fingerprint(log_sizes: dict[str, float]) -> tuple:
    """Bucketed relation sizes: the planner-relevant digest of a database.

    Sizes enter at order-of-magnitude resolution (``round(log10)``) — the
    same granularity the §4.3 model reasons at — so adding a handful of
    facts does not churn the graph cache, while a relation growing past the
    next magnitude re-keys every graph whose plan could now differ.
    """
    return tuple(
        (predicate, round(log_size))
        for predicate, log_size in sorted(log_sizes.items())
    )


@dataclass(frozen=True)
class RulePlan:
    """The planner's decision for one rule instantiation.

    ``source_order_rank`` locates the textual (source) order inside the
    ranking — 0 means the planner agreed with the program author.
    """

    rule: str
    head: str
    chosen: StrategyEstimate
    ranked: tuple[StrategyEstimate, ...]
    source_order_rank: int
    planned: bool  # False: body too wide (or empty), greedy order kept

    @property
    def reordered(self) -> bool:
        """True when the chosen order differs from the source order."""
        return self.planned and self.chosen.order != tuple(
            range(len(self.chosen.order))
        )

    def render(self) -> str:
        """Multi-line description: the choice, then the ranked alternatives."""
        lines = [f"rule: {self.rule}", f"head: {self.head}"]
        if not self.planned:
            lines.append("  (not planned: empty or too-wide body; greedy order kept)")
            return "\n".join(lines)
        mark = "reordered" if self.reordered else "source order confirmed"
        lines.append(f"  chosen: {self.chosen} ({mark})")
        for position, estimate in enumerate(self.ranked):
            tag = "*" if estimate.order == self.chosen.order else " "
            lines.append(f"  {tag} #{position + 1} {estimate}")
            for stage in estimate.stages:
                lines.append(
                    f"      g{stage.subgoal_index}: bound={stage.bound_arguments} "
                    f"operand≈1e{stage.operand_log_size:.2f} "
                    f"pairs={stage.join_pairs} "
                    f"result≈1e{stage.result_log_size:.2f} "
                    f"cost≈{stage.stage_cost:.3g}"
                )
        return "\n".join(lines)


@dataclass
class PlanReport:
    """Everything the cost planner decided while a graph was built."""

    fingerprint: tuple = ()
    plans: list[RulePlan] = field(default_factory=list)

    @property
    def planned_count(self) -> int:
        return sum(1 for plan in self.plans if plan.planned)

    @property
    def reordered_count(self) -> int:
        return sum(1 for plan in self.plans if plan.reordered)

    def oneline(self) -> str:
        """The one-line summary ``QueryResult.summary()`` embeds."""
        return (
            f"cost ({self.planned_count} rules planned, "
            f"{self.reordered_count} reordered)"
        )

    def render(self) -> str:
        """The full report the ``repro explain`` subcommand prints."""
        sizes = ", ".join(
            f"{predicate}≈1e{bucket}" for predicate, bucket in self.fingerprint
        )
        lines = [
            f"cost planner: {self.planned_count} rules planned, "
            f"{self.reordered_count} reordered",
            f"observed EDB sizes: {sizes or '(none)'}",
        ]
        for plan in self.plans:
            lines.append("")
            lines.append(plan.render())
        return "\n".join(lines)


class CostPlanner:
    """Chooses each rule's subgoal order with the observed-size cost model."""

    def __init__(self, model: CostModel, fingerprint: tuple = ()) -> None:
        self.model = model
        self.report = PlanReport(fingerprint=fingerprint)
        self._seen: set[tuple] = set()

    @classmethod
    def from_database(
        cls,
        database: Optional[Database],
        alpha: float = 0.3,
        base_size: float = 1.0e6,
    ) -> "CostPlanner":
        """Harvest observed cardinalities; unknown predicates keep the prior."""
        log_sizes: dict[str, float] = {}
        if database is not None:
            for predicate in database.predicates():
                cardinality = len(database.relation(predicate))
                if cardinality > 0:
                    # Clamp at 2 rows so log10 stays positive and a selection
                    # (multiplying the log by alpha) still *shrinks* it.
                    log_sizes[predicate] = math.log10(max(cardinality, 2))
        model = CostModel(alpha=alpha, base_size=base_size, log_sizes=log_sizes)
        return cls(model, size_fingerprint(log_sizes))

    # ------------------------------------------------------------------
    def plan_rule(self, rule: Rule, head: AdornedAtom) -> SipStrategy:
        """The SIP for one rule instantiation, recording the decision."""
        arity = len(rule.body)
        if arity == 0 or arity > EXHAUSTIVE_LIMIT:
            self._record(
                RulePlan(
                    rule=str(rule),
                    head=str(head),
                    chosen=self.model.estimate_order(rule, head, range(arity)),
                    ranked=(),
                    source_order_rank=0,
                    planned=False,
                )
            )
            return greedy_sip(rule, head)
        ranked = rank_orders(rule, head, self.model)
        chosen = ranked[0]
        source = tuple(range(arity))
        source_rank = next(
            i for i, estimate in enumerate(ranked) if estimate.order == source
        )
        self._record(
            RulePlan(
                rule=str(rule),
                head=str(head),
                chosen=chosen,
                ranked=tuple(ranked[:RANKED_KEPT]),
                source_order_rank=source_rank,
                planned=True,
            )
        )
        return sip_from_order(rule, head, chosen.order)

    def _record(self, plan: RulePlan) -> None:
        key = (plan.rule, plan.head)
        if key in self._seen:
            return  # the same (rule, adornment) instantiated again
        self._seen.add(key)
        self.report.plans.append(plan)

    def sip_factory(self):
        """A SIP factory for ``build_rule_goal_graph`` / the engine."""

        def factory(rule: Rule, head: AdornedAtom) -> SipStrategy:
            return self.plan_rule(rule, head)

        # A stable name helps debugging; the graph-cache key uses the
        # planner marker + fingerprint, never this closure's identity.
        factory.__name__ = "cost_planner_sip"
        factory.__qualname__ = "CostPlanner.sip_factory.<locals>.cost_planner_sip"
        return factory
