"""Unit tests for the cost-based join planner (PR 8).

The planner's contract splits three ways: the *model* side (observed
sizes replace the ignorance prior, chosen orders are the ranked
cheapest), the *decision* side (wide/empty bodies fall back to the
greedy structural order, duplicate instantiations are recorded once),
and the *caching* side (the size fingerprint buckets at order-of-
magnitude resolution, and the graph-cache key changes exactly when the
planner inputs could change a plan).
"""

import math

import pytest

from repro.core.adornment import AdornedAtom
from repro.core.costmodel import CostModel
from repro.core.parser import parse_program
from repro.core.planner import CostPlanner, size_fingerprint
from repro.core.rulegoal import graph_cache_key, rule_set_fingerprint
from repro.core.sips import greedy_sip
from repro.relational.database import Database
from repro.session import Session


def rule_and_head(source, pattern):
    program = parse_program(source, validate=False)
    rule = program.rules[0]
    return rule, AdornedAtom(rule.head, tuple(pattern))


class TestSizeFingerprint:
    def test_buckets_at_order_of_magnitude(self):
        assert size_fingerprint({"e": math.log10(30)}) == (("e", 1),)
        assert size_fingerprint({"e": math.log10(3000)}) == (("e", 3),)

    def test_sorted_and_stable(self):
        fp = size_fingerprint({"b": 1.0, "a": 2.0})
        assert fp == (("a", 2), ("b", 1))

    def test_small_growth_keeps_the_bucket(self):
        # log10(200)=2.30 and log10(300)=2.48 both round to 2: a handful
        # of facts must not churn the graph cache.
        assert size_fingerprint({"e": math.log10(200)}) == size_fingerprint(
            {"e": math.log10(300)}
        )


class TestCostModelObservedSizes:
    def test_observed_size_replaces_prior(self):
        model = CostModel(log_sizes={"e": 2.0})
        assert model.base_log_size("e") == 2.0
        assert model.base_log_size("unknown") == math.log10(model.base_size)
        assert model.base_log_size() == math.log10(model.base_size)

    def test_selection_shrinks_observed_size(self):
        model = CostModel(alpha=0.5, log_sizes={"e": 4.0})
        assert model.selected_log_size(1, "e") == pytest.approx(2.0)
        assert model.selected_log_size(2, "e") == pytest.approx(1.0)


class TestCostPlanner:
    def test_from_database_harvests_nonempty_relations(self):
        db = Database.from_facts(
            parse_program("e(1, 2). e(2, 3). big(1).", validate=False).facts
        )
        planner = CostPlanner.from_database(db)
        assert planner.model.log_sizes["e"] == pytest.approx(math.log10(2))
        assert planner.report.fingerprint == size_fingerprint(
            planner.model.log_sizes
        )

    def test_reorders_a_skewed_body(self):
        # Source order starts from the huge free-free subgoal; the model,
        # told big is 1e5 and pick is 1e0, starts from pick.
        rule, head = rule_and_head(
            "ans(X) <- big(X, Y), pick(Y).", "f"
        )
        model = CostModel(log_sizes={"big": 5.0, "pick": 0.5})
        planner = CostPlanner(model)
        strategy = planner.plan_rule(rule, head)
        [plan] = planner.report.plans
        assert plan.planned
        assert plan.chosen.order == (1, 0)
        assert plan.reordered
        assert plan.source_order_rank > 0
        assert strategy.order == (1, 0)

    def test_uniform_sizes_keep_source_order(self):
        rule, head = rule_and_head("p(X, Y) <- e(X, U), e(U, Y).", "df")
        planner = CostPlanner(CostModel(log_sizes={"e": 3.0}))
        planner.plan_rule(rule, head)
        [plan] = planner.report.plans
        assert plan.chosen.order == (0, 1)
        assert not plan.reordered

    def test_wide_body_falls_back_to_greedy(self):
        body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(8))
        rule, head = rule_and_head(f"p(X0, X8) <- {body}.", "df")
        planner = CostPlanner(CostModel())
        strategy = planner.plan_rule(rule, head)
        [plan] = planner.report.plans
        assert not plan.planned
        assert plan.ranked == ()
        assert strategy.order == greedy_sip(rule, head).order

    def test_duplicate_instantiations_recorded_once(self):
        rule, head = rule_and_head("p(X, Y) <- e(X, U), e(U, Y).", "df")
        planner = CostPlanner(CostModel())
        planner.plan_rule(rule, head)
        planner.plan_rule(rule, head)
        assert len(planner.report.plans) == 1

    def test_report_renders(self):
        rule, head = rule_and_head(
            "ans(X) <- big(X, Y), pick(Y).", "f"
        )
        planner = CostPlanner(
            CostModel(log_sizes={"big": 5.0, "pick": 0.5}),
            fingerprint=(("big", 5), ("pick", 1)),
        )
        planner.plan_rule(rule, head)
        text = planner.report.render()
        assert "1 rules planned, 1 reordered" in text
        assert "big≈1e5" in text
        assert "bound=" in text  # per-stage estimates are included
        assert planner.report.oneline() == "cost (1 rules planned, 1 reordered)"


class TestGraphCacheKey:
    RULES = "t(X, Y) <- e(X, Y).\nt(X, Y) <- e(X, U), t(U, Y)."

    def atoms(self):
        return parse_program("?- t(0, Z).", validate=False).query_rules[0].body

    def test_static_planner_keeps_legacy_keys(self):
        fp = rule_set_fingerprint(parse_program(self.RULES).rules)
        legacy = graph_cache_key(fp, self.atoms(), greedy_sip)
        explicit = graph_cache_key(
            fp, self.atoms(), greedy_sip,
            planner="static", size_fingerprint=(("e", 3),),
        )
        assert legacy == explicit  # static plans never read the sizes

    def test_cost_planner_keys_on_the_fingerprint(self):
        fp = rule_set_fingerprint(parse_program(self.RULES).rules)
        small = graph_cache_key(
            fp, self.atoms(), greedy_sip,
            planner="cost", size_fingerprint=(("e", 2),),
        )
        big = graph_cache_key(
            fp, self.atoms(), greedy_sip,
            planner="cost", size_fingerprint=(("e", 3),),
        )
        static = graph_cache_key(fp, self.atoms(), greedy_sip)
        assert small != big
        assert small != static

    def test_session_replans_after_magnitude_growth(self):
        src = self.RULES + "\n" + " ".join(f"e({i}, {i + 1})." for i in range(5))
        session = Session(src, planner="cost")
        session.query("t(0, Z)")
        first_misses = session.cache_stats().misses
        session.query("t(0, W)")  # same variant: cached graph reused
        assert session.cache_stats().hits >= 1
        # Disconnected filler pushes e two magnitude buckets up.
        session.add_facts(
            " ".join(f"e({1000 + i}, {1001 + i})." for i in range(300))
        )
        session.query("t(0, Z)")
        assert session.cache_stats().misses > first_misses

    def test_session_static_planner_ignores_growth(self):
        src = self.RULES + "\n" + " ".join(f"e({i}, {i + 1})." for i in range(5))
        session = Session(src)  # planner="static"
        session.query("t(0, Z)")
        misses = session.cache_stats().misses
        session.add_facts(
            " ".join(f"e({1000 + i}, {1001 + i})." for i in range(300))
        )
        session.query("t(0, Z)")
        assert session.cache_stats().misses == misses  # still a cache hit

    def test_session_result_carries_the_plan(self):
        src = self.RULES + "\n" + " ".join(f"e({i}, {i + 1})." for i in range(5))
        session = Session(src, planner="cost")
        session.query("t(0, Z)")
        assert session.last_result.plan is not None
        assert "rules planned" in session.last_result.plan.oneline()
        session.query("t(0, W)")  # cache hit: plan rides on the cached graph
        assert session.last_result.graph_cache_hit
        assert session.last_result.plan is not None

    def test_session_rejects_unknown_planner(self):
        with pytest.raises(ValueError):
            Session("e(1, 2).", planner="wat")
