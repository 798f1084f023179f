"""Scaling guard: one write's work follows the delta, not the database.

Counts work instead of timing it.  The same 4-fact write lands on a 2k-fact
and on a 40k-fact knowledge base, each serving 8 warm queries with their
wire renders attached; every counter the write path moves — rows and index
entries added, database rows read by the delta waves, answer rows sized and
rendered, entries carried and extended — must read the same at both sizes.
Object identity pins the part counters cannot see: the relation, its index
and the untouched bucket are the same objects after the write.
"""

import pytest

from repro.core.atoms import atom
from repro.core.parser import parse_program
from repro.core.program import Program
from repro.service import SharedSession
from repro.service.protocol import rows_to_wire
from repro.service.server import QueryServer

RULES = parse_program(
    "t(X, Y) <- e(X, Y).\n" "t(X, Y) <- e(X, U), t(U, Y).", validate=False
).rules
HOT = 8
BATCH = 4


def knowledge_base(total_facts):
    """``total_facts`` edges: ``HOT`` disjoint trees, the rest unreachable.

    A fifth of the edges sit under the hot roots, so the hot answers grow
    with the database too; the other four fifths are edges no hot query
    ever asks about.
    """
    facts = []
    per_tree = total_facts // (5 * HOT)
    for root in range(HOT):
        base = root * 1_000_000
        for child in range(1, per_tree + 1):
            facts.append(atom("e", base + (child - 1) // 8, base + child))
    filler = 100_000_000
    while len(facts) < total_facts:
        facts.append(atom("e", filler, filler + 1))
        filler += 2
    return Program(RULES, facts)


def hot_query(root):
    return f"t({root * 1_000_000}, Z)"


def write_counters(shared):
    db = shared.session.database
    cache = shared.answer_cache.stats()
    mats = shared.stats()["materialized"]
    return {
        "rows_added": db.rows_added,
        "index_entries_added": db.index_entries_added,
        "db_scans": db.scans,
        "db_indexed_lookups": db.indexed_lookups,
        "db_rows_retrieved": db.rows_retrieved,
        "rows_sized": cache.rows_sized,
        "rows_rendered": cache.rows_rendered,
        "stores": cache.stores,
        "carried": cache.carried,
        "extended": cache.extended,
        "invalidations": cache.invalidations,
        "delta_refreshes": mats["delta_refreshes"],
        "noop_refreshes": mats["noop_refreshes"],
        "answers_carried": mats["answers_carried"],
        "answers_extended": mats["answers_extended"],
    }


def one_write(total_facts):
    """Counter deltas of one ``BATCH``-fact write under hot root 3."""
    shared = SharedSession(knowledge_base(total_facts), materialize=True)
    for root in range(HOT):
        QueryServer._wire_answers(shared.query_detailed(hot_query(root)))
    database = shared.session.database
    relation = database.relation("e")
    index = relation.index(("a0",))
    untouched = relation.lookup(("a0",), (0,))
    target = 3 * 1_000_000
    touched = relation.lookup(("a0",), (target,))
    before = write_counters(shared)
    shared.add_facts([atom("e", target, 900_000_000 + i) for i in range(BATCH)])
    after = write_counters(shared)
    # In place: nothing the size of the relation was rebuilt.
    assert database.relation("e") is relation
    assert relation.index(("a0",)) is index
    assert relation.lookup(("a0",), (0,)) is untouched
    assert relation.lookup(("a0",), (target,)) is touched and len(touched) == 8 + BATCH
    # And the write did its job: the post-write read is a cache hit, complete.
    outcome = shared.query_detailed(hot_query(3))
    assert outcome.answer_cached
    assert len(outcome.answers) == total_facts // (5 * HOT) + BATCH
    assert QueryServer._wire_answers(outcome) == rows_to_wire(outcome.answers)
    return {name: after[name] - before[name] for name in before}


@pytest.fixture(scope="module")
def small():
    return one_write(2_000)


def test_a_write_touches_what_the_delta_reaches_and_nothing_else(small):
    assert small["rows_added"] == BATCH
    assert small["index_entries_added"] > 0
    assert small["delta_refreshes"] == HOT
    assert small["noop_refreshes"] == small["answers_carried"] == HOT - 1
    assert small["answers_extended"] == small["extended"] == 1
    assert small["rows_sized"] == small["rows_rendered"] == BATCH
    assert small["stores"] == small["invalidations"] == small["db_scans"] == 0


def test_write_work_is_the_same_on_a_database_twenty_times_larger(small):
    assert one_write(40_000) == small
