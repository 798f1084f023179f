"""Seeded input generators and the answer oracle.

The program under test only ever sees what this module generates.  The
seed relabels every node id through a permutation and draws the random
structures (digraph targets, BOM part choices, zipf key order), but every
structure is built so that the *amount of work* does not depend on the
seed: the random digraph has a fixed out-degree and a Hamiltonian cycle
(every node reachable), trees are complete, and zipf ranks map to nodes of
a fixed depth class.  Ten runs on ten seeds then differ by host noise, not
by input luck.

The oracle is deliberately independent of the engine: reachability,
same-generation and a filtered join computed directly on the generated
tables.  `repro.baselines.seminaive` is the repo's reference semantics but
its backtracking matcher is quadratic in the EDB (a 20k-fact closure does
not finish in minutes), so :func:`oracle_self_check` pins this oracle to
semi-naive on small instances of every program family instead.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field

TC_LEFT = "t(X, Y) <- t(X, U), e(U, Y).\nt(X, Y) <- e(X, Y).\n"
TC_NONLINEAR = "t(X, Y) <- e(X, Y).\nt(X, Y) <- t(X, U), t(U, Y).\n"
SAME_GENERATION = (
    "sg(X, Y) <- par(X, P), par(Y, P).\n"
    "sg(X, Y) <- par(X, U), sg(U, V), par(Y, V).\n"
)
BOM = "contains(A, P) <- uses(A, P).\ncontains(A, P) <- contains(A, S), contains(S, P).\n"
SKEW_JOIN = "ans(X) <- big(X, Y), pick(Y).\n"

#: Sizes per scale: (full, quick, check).  Full sizes put every eval_mix
#: entry at 80-120 ms, so the window's median op lies in a dense band of
#: latencies and not in a gap between a cheap and a dear entry, and keep
#: one set-up (110k facts parsed) near 3 s so three fit a run; "check" is
#: small enough for the semi-naive oracle.
SIZES = {
    "bushy": ((27, 3), (6, 3), (3, 3)),  # (branch, depth)
    "random": ((7000, 3), (150, 3), (24, 3)),  # (nodes, out-degree)
    "chain": (64, 14, 8),
    "sg": ((6, 5), (4, 3), (3, 2)),  # (depth, branch)
    "bom": ((6, 5, 24), (4, 3, 8), (3, 2, 4)),  # (depth, fanout, shared)
    "skew": ((40000, 10000), (600, 150), (60, 15)),  # (|big|, |pick|)
    "cluster_bushy": ((14, 3), (5, 3), (3, 2)),
    "zipf_keys": (2000, 100, 10),
    "hot_set": (8, 4, 2),
}
SCALES = ("full", "quick", "check")


def size(name: str, scale: str):
    return SIZES[name][SCALES.index(scale)]


def facts_text(tables: dict[str, list[tuple]]) -> str:
    return "\n".join(
        f"{pred}({','.join(map(str, row))})."
        for pred in sorted(tables)
        for row in tables[pred]
    )


@dataclass(frozen=True)
class Entry:
    """One knowledge base + query + its expected answer set."""

    name: str
    rules: str
    tables: dict = field(repr=False)
    query: str
    expected: frozenset = field(repr=False)
    options: dict = field(default_factory=dict)  # extra Session kwargs

    @property
    def text(self) -> str:
        return self.rules + facts_text(self.tables) + "\n"

    @property
    def fact_count(self) -> int:
        return sum(len(rows) for rows in self.tables.values())


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def reachable(edges, source) -> frozenset:
    """Nodes reachable from ``source`` over one or more edges, as 1-tuples."""
    adjacency = defaultdict(list)
    for a, b in edges:
        adjacency[a].append(b)
    seen = set()
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset((n,) for n in seen)


def same_generation(par_edges, person) -> frozenset:
    """``sg(person, Z)`` over ``par(child, parent)`` rows of a forest."""
    parents, children = defaultdict(set), defaultdict(set)
    for child, parent in par_edges:
        parents[child].add(parent)
        children[parent].add(child)

    def generation(node) -> set:
        out = set()
        for parent in parents[node]:
            out |= children[parent]
            for cousin_parent in generation(parent):
                out |= children[cousin_parent]
        return out

    return frozenset((n,) for n in generation(person))


def skew_join(big, pick) -> frozenset:
    picked = {y for (y,) in pick}
    return frozenset((x,) for x, y in big if y in picked)


# ----------------------------------------------------------------------
# Structures
# ----------------------------------------------------------------------
def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def bushy_tree(branch: int, depth: int, rng: random.Random):
    """A complete ``branch``-ary tree, relabelled; (edges, root, nodes-by-depth)."""
    count = sum(branch**d for d in range(depth + 1))
    perm = _permutation(rng, count)
    levels = [[0]]
    edges = []
    next_id = 1
    for _ in range(depth):
        level = []
        for parent in levels[-1]:
            for _ in range(branch):
                edges.append((perm[parent], perm[next_id]))
                level.append(next_id)
                next_id += 1
        levels.append(level)
    return edges, perm[0], [[perm[n] for n in level] for level in levels]


def regular_digraph(n: int, out_degree: int, rng: random.Random):
    """Out-regular random digraph with a Hamiltonian cycle: all n reachable."""
    cycle = _permutation(rng, n)
    successors = {cycle[i]: {cycle[(i + 1) % n]} for i in range(n)}
    for node, targets in successors.items():
        while len(targets) < out_degree:
            target = rng.randrange(n)
            if target != node:
                targets.add(target)
    return sorted((a, b) for a, targets in successors.items() for b in targets)


def shared_bom(depth: int, fanout: int, shared: int, rng: random.Random):
    """A ``uses`` DAG whose levels draw from shared part pools; root is part 0."""
    ids = itertools.count(1)
    uses = []
    level = [0]
    for _ in range(depth):
        pool = [next(ids) for _ in range(max(shared, fanout))]
        for part in level:
            uses += [(part, sub) for sub in rng.sample(pool, fanout)]
        level = pool
    perm = _permutation(rng, next(ids))
    return sorted((perm[a], perm[b]) for a, b in uses), perm[0]


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
def tc_bushy(rng, branch_depth, name="tc_bushy") -> Entry:
    edges, root, _ = bushy_tree(*branch_depth, rng)
    return Entry(name, TC_LEFT, {"e": edges}, f"t({root},Z)", reachable(edges, root))


def eval_entries(seed: int, scale: str = "full") -> list[Entry]:
    """The six eval_mix entries, in rotation order."""
    rng = random.Random(seed)
    entries = [tc_bushy(rng, size("bushy", scale))]

    n, degree = size("random", scale)
    edges = regular_digraph(n, degree, rng)
    source = rng.randrange(n)
    entries.append(
        Entry("tc_random", TC_LEFT, {"e": edges}, f"t({source},Z)", reachable(edges, source))
    )

    n = size("chain", scale)
    perm = _permutation(rng, n + 1)
    edges = [(perm[i], perm[i + 1]) for i in range(n)]
    entries.append(
        Entry(
            "tc_nonlinear_chain", TC_NONLINEAR, {"e": edges},
            f"t({perm[0]},Z)", reachable(edges, perm[0]),
        )
    )

    branch_depth = size("sg", scale)
    down, _, levels = bushy_tree(branch_depth[1], branch_depth[0], rng)
    par = [(child, parent) for parent, child in down]
    person = levels[-1][0]
    entries.append(
        Entry("sg_tree", SAME_GENERATION, {"par": par}, f"sg({person},Z)", same_generation(par, person))
    )

    uses, root = shared_bom(*size("bom", scale), rng)
    entries.append(
        Entry("bom_shared", BOM, {"uses": uses}, f"contains({root},P)", reachable(uses, root))
    )

    wide, narrow = size("skew", scale)
    perm = _permutation(rng, wide)
    big = [(perm[i], perm[i % (wide // 2)]) for i in range(wide)]
    pick = [(perm[j],) for j in range(narrow)]
    entries.append(
        Entry(
            "skew_join_cost", SKEW_JOIN, {"big": big, "pick": pick},
            "ans(W)", skew_join(big, pick), {"planner": "cost"},
        )
    )

    return entries


@dataclass(frozen=True)
class ServeInputs:
    """The serving KB plus the zipf key stream and the write hot set."""

    entry: Entry  # tc_bushy; ``expected`` answers the root query
    edges: list = field(repr=False)
    keys: list  # rank -> node id (rank 0 hottest)
    hot: list  # hot-set node ids for serve_write_refresh
    cum_weights: list = field(repr=False)
    seed: int = 0

    def key_stream(self, client: int, count: int) -> list[int]:
        """``count`` zipf(1.1)-distributed node ids for one client."""
        rng = random.Random(self.seed * 1000 + client)
        ranks = rng.choices(range(len(self.keys)), cum_weights=self.cum_weights, k=count)
        return [self.keys[r] for r in ranks]


def serve_inputs(seed: int, scale: str = "full") -> ServeInputs:
    """tc_bushy KB; zipf ranks map to nodes of a fixed depth class.

    One rank in a hundred is a depth-1 node (a 756-row answer), every
    third a depth-2 node (27 rows), the rest leaves (empty answers), so the
    cost profile by rank is the same for every seed; the seed picks which
    node of the class a rank gets.
    """
    rng = random.Random(seed)
    branch_depth = size("bushy", scale)
    edges, root, levels = bushy_tree(*branch_depth, rng)
    entry = Entry("tc_bushy", TC_LEFT, {"e": edges}, f"t({root},Z)", reachable(edges, root))
    pools = [list(level) for level in levels]
    for pool in pools:
        rng.shuffle(pool)
    mid_every = 3 if scale == "full" else 4
    keys = []
    for rank in range(size("zipf_keys", scale)):
        depth = 1 if rank % 100 == 7 else 2 if rank % mid_every == 0 else 3
        keys.append(pools[depth].pop())
    hot = [pools[2].pop() for _ in range(size("hot_set", scale))]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(keys))]
    return ServeInputs(
        entry, edges, keys, hot, list(itertools.accumulate(weights)), seed
    )


def descendants_by_node(edges) -> dict:
    """node -> frozenset of 1-tuples of its strict descendants (a tree)."""
    children = defaultdict(list)
    for a, b in edges:
        children[a].append(b)
    memo: dict = {}

    def visit(node) -> frozenset:
        if node not in memo:
            out = set()
            for child in children[node]:
                out.add((child,))
                out |= visit(child)
            memo[node] = frozenset(out)
        return memo[node]

    for node in list(children):
        visit(node)
    return memo


def cluster_entry(seed: int, scale: str = "full") -> Entry:
    """tc_bushy at BENCH_PR10's size: one cluster query stays ~0.2 s."""
    return tc_bushy(random.Random(seed), size("cluster_bushy", scale), "tc_bushy_cluster")


# ----------------------------------------------------------------------
def oracle_self_check(seed: int) -> list[str]:
    """Compare this module's oracle with semi-naive on small instances.

    Returns the names of the program families that disagree (empty = ok).
    """
    from repro.baselines import seminaive
    from repro.session import Session

    bad = []
    for entry in eval_entries(seed, "check"):
        program = Session(entry.text).program_for(entry.query)
        if frozenset(seminaive.evaluate(program).answers()) != entry.expected:
            bad.append(entry.name)
    return bad
