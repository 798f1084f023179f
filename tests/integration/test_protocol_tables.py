"""The protocol tables EXPERIMENTS.md prints, pinned count for count.

A slice of the paper-claim ledger: the Fig 2 table
(``benchmarks/bench_fig2_termination.py``), the claim-coalesce table
(``benchmarks/bench_claim_coalesce.py``) and claim-packaging's trickling
chain (``benchmarks/bench_claim_packaging.py``).  Each row is what the
benchmark prints, computed by the benchmark's own row function, so a
change to any printed count fails here and the EXPERIMENTS.md table is
regenerated with it.  The rows are computed in a child interpreter with
``PYTHONHASHSEED=0``, the seed the tables in EXPERIMENTS.md were printed
under.
"""

import json
import os
import subprocess
import sys

#: n, computation msgs, protocol msgs, waves, conclusions, protocol share.
FIG2 = [
    [4, 194, 55, 9, 2, "0.22"],
    [8, 554, 79, 13, 2, "0.12"],
    [16, 1850, 127, 21, 2, "0.06"],
    [24, 3914, 175, 29, 2, "0.04"],
]

#: case, nodes, nodes (coalesced), msgs, msgs (coalesced), msg factor.
COALESCE = [
    ["p1", 15, 11, 149, 103, "1.45x"],
    ["nonlinear tc", 13, 10, 897, 494, "1.82x"],
    ["mutual", 16, 12, 225, 205, "1.10x"],
    ["same-gen", 17, 11, 100, 93, "1.08x"],
]

#: bindings carried, request msgs, total, computation and protocol msgs.
TRICKLING = [65, 65, 383, 362, 21]


def printed_rows() -> dict:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    script = (
        "import json\n"
        "from bench_fig2_termination import fig2_rows\n"
        "from bench_claim_coalesce import coalesce_rows\n"
        "from bench_claim_packaging import trickling_row\n"
        "print(json.dumps({'fig2': fig2_rows(), 'coalesce': coalesce_rows(),"
        " 'trickling': trickling_row()}))\n"
    )
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "benchmarks"), root]
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_protocol_tables_print_the_pinned_counts():
    rows = printed_rows()
    assert rows["fig2"] == FIG2
    assert rows["coalesce"] == COALESCE
    assert rows["trickling"] == TRICKLING
