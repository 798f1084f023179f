"""Answer streaming, the cylinder workload, and API-quality gates.

``test_module_and_public_members_documented[repro.runtime.asyncio_engine]``
keeps a retired name: the asyncio runtime is gone, and the id now gates
``repro.runtime.shard_loop``, the delivery loop the process runtimes share.
"""

import inspect

import pytest

from repro.baselines import naive
from repro.network.engine import MessagePassingEngine, evaluate
from repro.workloads import cylinder_edges, facts_from_tables, nonlinear_tc_program

from tests.helpers import oracle_answers, with_tables


class TestAnswerStreaming:
    def test_stream_sees_every_answer_once(self, p1_small):
        streamed = []
        engine = MessagePassingEngine(p1_small, on_answer=streamed.append)
        result = engine.run()
        assert sorted(streamed) == sorted(result.answers)
        assert len(streamed) == len(set(streamed))

    def test_answers_arrive_before_completion(self, p1_small):
        order = []
        engine = MessagePassingEngine(p1_small, on_answer=lambda r: order.append("answer"))
        engine.driver.on_complete = lambda: order.append("end")
        engine.run()
        assert order[-1] == "end"
        assert order.count("end") == 1
        assert all(entry == "answer" for entry in order[:-1])

    def test_incremental_consumption(self, ancestor_chain):
        # "Processes do not block, waiting for complete answers" — the
        # driver-side view: answers trickle in over many delivery steps.
        seen_at = []
        engine = MessagePassingEngine(
            ancestor_chain,
            on_answer=lambda r: seen_at.append(engine.fabric.stats.delivered_logical),
        )
        engine.run()
        assert len(set(seen_at)) > 1  # not all in one burst


class TestCylinderWorkload:
    def test_shape(self):
        edges = cylinder_edges(3, 4)
        # 3 rings of 4 edges + 2 levels of 4 rungs.
        assert len(edges) == 3 * 4 + 2 * 4
        # ring edges wrap
        assert (3, 0) in edges

    def test_reachability_over_cylinder(self):
        program = with_tables(
            nonlinear_tc_program(0), {"e": cylinder_edges(3, 5)}
        )
        result = evaluate(program)
        assert result.answers == oracle_answers(program)
        # Everything in ring 0 and below is reachable from vertex 0.
        assert len(result.answers) == 15
        assert result.protocol_violations == []


class TestApiQuality:
    """Docstring coverage gates for the public API."""

    def _public_members(self, module):
        for name in getattr(module, "__all__", []):
            yield name, getattr(module, name)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.core",
            "repro.core.adornment",
            "repro.core.analysis",
            "repro.core.costmodel",
            "repro.core.hypergraph",
            "repro.core.monotone",
            "repro.core.optimizer",
            "repro.core.parser",
            "repro.core.program",
            "repro.core.rulegoal",
            "repro.core.sips",
            "repro.baselines.magic",
            "repro.baselines.naive",
            "repro.network.engine",
            "repro.network.messages",
            "repro.network.nodes",
            "repro.network.provenance",
            pytest.param("repro.network.shard_loop", id="repro.network.scheduler"),
            "repro.network.termination",
            "repro.relational.algebra",
            "repro.relational.csvio",
            "repro.relational.relation",
            "repro.relational.yannakakis",
            pytest.param("repro.runtime.sharded", id="repro.runtime.asyncio_engine"),
            "repro.session",
            "repro.workloads.generators",
            "repro.workloads.programs",
        ],
    )
    def test_module_and_public_members_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name, member in self._public_members(module):
            if not (inspect.isclass(member) or inspect.isroutine(member)):
                continue  # constants and typing aliases
            assert inspect.getdoc(member), f"{module_name}.{name} undocumented"

    def test_public_classes_document_their_methods(self):
        from repro.network.nodes import NodeProcess
        from repro.relational.relation import Relation

        for cls in (NodeProcess, Relation):
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"
