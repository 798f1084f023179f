"""Flight routes: nonlinear recursion with cycles, under two delivery orders.

Reachability over an airline network whose route map contains cycles —
evaluated with the *nonlinear* transitive closure (t = hop ∪ t∘t, the
divide-and-conquer formulation Section 1.2 highlights: "nonlinear recursion
frequently arises in divide-and-conquer algorithms").  Cycles in the data
produce cycles of messages; duplicate deletion makes the nodes go idle and
the Fig-2 protocol detects it — no global coordinator ever looks at the
whole network.

The same query then runs again under a seeded random delivery schedule:
every message gets a random latency, so the nodes see a different
interleaving, and the answers must not change.  The run still ends only
when the distributed termination protocol says so.

Run:  python examples/flight_routes.py
"""

from repro import evaluate, parse_program
from repro.workloads import facts_from_tables

RULES = """
goal(City) <- reachable(sfo, City).

% Nonlinear (divide-and-conquer) closure: a trip is a hop, or two trips.
reachable(A, B) <- hop(A, B).
reachable(A, B) <- reachable(A, M), reachable(M, B).
"""

ROUTES = [
    # A west-coast cycle ...
    ("sfo", "lax"), ("lax", "sea"), ("sea", "sfo"),
    # ... connected onward to hubs ...
    ("sea", "ord"), ("ord", "jfk"), ("jfk", "lhr"),
    ("lhr", "cdg"), ("cdg", "jfk"),  # trans-atlantic cycle
    ("ord", "den"), ("den", "lax"),
    # ... and a component unreachable from sfo:
    ("syd", "akl"), ("akl", "syd"), ("akl", "hnd"),
]


def main() -> None:
    program = parse_program(RULES).with_facts(facts_from_tables({"hop": ROUTES}))

    result = evaluate(program)
    print(f"Cities reachable from SFO over {len(ROUTES)} routes:")
    print("  " + ", ".join(city for (city,) in sorted(result.answers)))
    unreachable = {c for pair in ROUTES for c in pair} - {
        c for (c,) in result.answers
    } - {"sfo"}
    print(f"Never requested / never derived: {', '.join(sorted(unreachable))}")
    print()
    print("Deterministic simulator run:")
    print("  " + result.summary().replace("\n", "\n  "))

    shuffled = evaluate(program, seed=7)
    assert shuffled.answers == result.answers
    assert shuffled.protocol_violations == []
    print()
    print(f"Seeded random delivery (seed=7): {shuffled.total_messages} messages, "
          f"same {len(shuffled.answers)} answers.")
    print("The run ends when the termination protocol's end message reaches")
    print("the driver — no node can see the other queues.")


if __name__ == "__main__":
    main()
