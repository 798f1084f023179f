"""Unit tests for the columnar batch the stage kernels gather from.

The kernels lean on exact contracts here: single-position keys are bare
values, multi-position keys tuples, and the *empty* position tuple keys
every row to ``()`` — returning ``[]`` instead silently truncates the
``zip(rows, keys, suffixes)`` kernel loops (a real bug this suite
regression-pins).

Ids that keep a retired name: ``test_columns_transpose``,
``test_group_builds_hash_index_once``, ``test_distinct_keys``,
``test_array_promotion_round_trips`` and ``test_mixed_type_column_distinct``
once tested the numpy column API (``columns`` / ``array`` / ``group`` /
``distinct_keys``) and now assert the same contracts through ``keys`` /
``project``; ``test_no_numpy_escape_hatch_is_equivalent`` now checks that
a query loads none of the dependencies the package dropped.
"""

import os
import subprocess
import sys

from repro.network.messages import ColumnBatch

ROWS = [(1, "a", 10), (2, "b", 20), (1, "a", 30)]


class TestColumnBatch:
    def test_columns_transpose(self):
        cb = ColumnBatch(ROWS)
        assert [cb.keys((p,)) for p in range(3)] == [
            [1, 2, 1], ["a", "b", "a"], [10, 20, 30]
        ]
        assert len(cb) == 3

    def test_empty_batch(self):
        cb = ColumnBatch([])
        assert len(cb) == 0
        assert cb.keys((0,)) == []
        assert cb.project((0, 1)) == []
        assert cb.keys(()) == []

    def test_single_position_keys_are_bare_values(self):
        cb = ColumnBatch(ROWS)
        assert list(cb.keys((0,))) == [1, 2, 1]

    def test_multi_position_keys_are_tuples(self):
        cb = ColumnBatch(ROWS)
        assert list(cb.keys((0, 1))) == [(1, "a"), (2, "b"), (1, "a")]

    def test_empty_positions_key_every_row_to_nullary(self):
        # Regression: [] here truncated the kernels' zip() loops to nothing.
        cb = ColumnBatch(ROWS)
        assert cb.keys(()) == [(), (), ()]
        assert cb.project(()) == [(), (), ()]

    def test_project_single_position_boxes_one_tuples(self):
        cb = ColumnBatch(ROWS)
        assert cb.project((2,)) == [(10,), (20,), (30,)]

    def test_project_multi_position(self):
        cb = ColumnBatch(ROWS)
        assert cb.project((2, 0)) == [(10, 1), (20, 2), (30, 1)]

    def test_group_builds_hash_index_once(self):
        # Keys line up with rows, so a kernel builds its hash index from
        # one zip; a whole-row key is the row object itself.
        cb = ColumnBatch(ROWS)
        index: dict = {}
        for key, row in zip(cb.keys((0,)), cb.rows):
            index.setdefault(key, []).append(row)
        assert index == {1: [(1, "a", 10), (1, "a", 30)], 2: [(2, "b", 20)]}
        assert cb.keys((0, 1, 2)) is cb.rows
        assert cb.project((0, 1, 2)) is cb.rows

    def test_distinct_keys(self):
        cb = ColumnBatch(ROWS)
        assert len(set(cb.keys((0,)))) == 2
        assert len(set(cb.keys((2,)))) == 3
        assert len(set(cb.keys((0, 1)))) == 2

    def test_array_promotion_round_trips(self):
        # Gathers return the stored values themselves: ints stay ints.
        cb = ColumnBatch(ROWS)
        assert cb.keys((0,)) == [1, 2, 1]
        assert all(type(v) is int for v in cb.keys((0,)))
        assert cb.keys((1,)) == ["a", "b", "a"]

    def test_mixed_type_column_distinct(self):
        cb = ColumnBatch([(1,), ("x",), (1,)])
        assert len(set(cb.keys((0,)))) == 2


def test_no_numpy_escape_hatch_is_equivalent():
    """Importing and querying loads none of the dropped dependencies."""
    code = (
        "import sys\n"
        "import repro\n"
        "s = repro.Session('anc(X,Y) <- par(X,Y). "
        "anc(X,Y) <- par(X,U), anc(U,Y). par(a,b). par(b,c). par(c,a).')\n"
        "assert s.query('anc(a, Z)') == {('a',), ('b',), ('c',)}\n"
        "loaded = [m for m in ('numpy', 'sqlite3', 'asyncio') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "print('ok')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.environ.get("PYTHONPATH"), "src") if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
