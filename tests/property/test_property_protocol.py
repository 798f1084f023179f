"""Property-based tests of the termination protocol over random trees and
random busy schedules (hypothesis drives the synthetic component harness)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.messages import EndRequest, TupleMessage
from repro.network.shard_loop import LocalFabric
from repro.network.termination import TerminationProtocol


class StubNode:
    _request_buffer = {}  # never buffers a request

    def __init__(self, node_id):
        self.node_id = node_id
        self.protocol = None
        self.pending_work = 0  # decremented as injected work is consumed
        self.concluded = 0

    def empty_queues(self, network):
        return self.pending_work == 0 and network.pending_for(self.node_id) == 0

    def on_component_conclude(self, network):
        self.concluded += 1

    def handle(self, message, network):
        if isinstance(message, TupleMessage):
            self.protocol.on_work()
            if self.pending_work:
                self.pending_work -= 1
            return
        if isinstance(message, EndRequest):
            self.protocol.handle_end_request(message, self, network)
        else:
            from repro.network.messages import EndConfirmed, EndNegative

            if isinstance(message, EndNegative):
                self.protocol.handle_end_negative(message, self, network)
            elif isinstance(message, EndConfirmed):
                self.protocol.handle_end_confirmed(message, self, network)

    def on_idle_check(self, network):
        self.protocol.release_held(self, network)
        if self.protocol.is_leader:
            self.protocol.maybe_initiate(self, network, self.concluded == 0)


@st.composite
def random_trees(draw, max_nodes=7):
    """A random rooted tree as a children map {0: [...], ...}."""
    n = draw(st.integers(2, max_nodes))
    children = {i: [] for i in range(n)}
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        children[parent].append(node)
    return children


@st.composite
def component_with_work(draw):
    tree = draw(random_trees())
    nodes = sorted(tree)
    # Work injections: (when-step, node, amount)
    injections = draw(
        st.lists(
            st.tuples(
                st.integers(0, 40),
                st.sampled_from(nodes),
                st.integers(1, 3),
            ),
            max_size=4,
        )
    )
    seed = draw(st.integers(0, 10_000))
    return tree, injections, seed


def build(tree, seed):
    fabric = LocalFabric(seed=seed)
    parents = {}
    for parent, kids in tree.items():
        for kid in kids:
            parents[kid] = parent
    nodes = {}
    for node_id in tree:
        node = StubNode(node_id)
        node.protocol = TerminationProtocol(
            node_id=node_id,
            is_leader=node_id == 0,
            bfst_parent=parents.get(node_id),
            bfst_children=tuple(tree[node_id]),
        )
        nodes[node_id] = node
        fabric.register(node)
    return fabric, nodes


class TestProtocolProperties:
    @settings(max_examples=120, deadline=None)
    @given(component_with_work())
    def test_protocol_live_under_injected_work(self, case):
        """Liveness under adversarial work arrival.

        Work injected mid-protocol (even between a member's confirmation and
        the leader's conclusion — legal only for *external* requests in the
        real system) must never wedge the protocol: the run drains, the
        leader concludes exactly once (the gate), and all work is consumed.
        The per-instant soundness statement of Theorem 3.1 is validated at
        the engine level, where feeder/request causality is modeled
        (tests/integration/test_termination_protocol.py).
        """
        tree, injections, seed = case
        fabric, nodes = build(tree, seed)
        leader = nodes[0]
        leader.on_idle_check(fabric)
        step = 0
        pending = sorted(injections)
        while True:
            while pending and pending[0][0] <= step:
                _, node, amount = pending.pop(0)
                if leader.concluded == 0:
                    nodes[node].pending_work += amount
                    for _ in range(amount):
                        fabric.send(TupleMessage(99, node, ("w", step)))
                else:
                    pending = []
                    break
            if fabric.step() is None:
                if pending and leader.concluded == 0:
                    step = pending[0][0]  # jump to the next injection
                    continue
                break
            step += 1
            assert step < 20_000, "protocol failed to converge"
        assert leader.concluded == 1
        assert all(n.pending_work == 0 for n in nodes.values())
        assert fabric.in_flight() == 0

    @settings(max_examples=120, deadline=None)
    @given(component_with_work())
    def test_no_conclusion_while_pre_wave_work_unconsumed(self, case):
        """Soundness core: work visible before a wave blocks confirmation.

        Any node holding unconsumed work when an end request reaches it
        holds the request until that work is consumed, and then cannot
        confirm it, so a wave that started while work was queued cannot be
        the concluding one.
        """
        tree, injections, seed = case
        fabric, nodes = build(tree, seed)
        leader = nodes[0]

        def conclude(network):
            leader.concluded += 1
            # No member may have locally-known unconsumed work *that it has
            # already had a chance to report* (i.e. delivered injections).
            for n in nodes.values():
                undelivered = network.pending_for(n.node_id)
                assert n.pending_work <= undelivered, (
                    f"node {n.node_id} confirmed with consumed-visible work"
                )

        leader.on_component_conclude = conclude
        leader.on_idle_check(fabric)
        pending = sorted(injections)
        step = 0
        while True:
            while pending and pending[0][0] <= step and leader.concluded == 0:
                _, node, amount = pending.pop(0)
                nodes[node].pending_work += amount
                for _ in range(amount):
                    fabric.send(TupleMessage(99, node, ("w", step)))
            if fabric.step() is None:
                if pending and leader.concluded == 0:
                    step = pending[0][0]
                    continue
                break
            step += 1
            assert step < 20_000
        assert leader.concluded >= 1

    @settings(max_examples=60, deadline=None)
    @given(random_trees(), st.integers(0, 10_000))
    def test_quiet_component_needs_exactly_two_waves(self, tree, seed):
        fabric, nodes = build(tree, seed)
        nodes[0].on_idle_check(fabric)
        fabric.run()
        assert nodes[0].concluded == 1
        assert nodes[0].protocol.rounds_started == 2
