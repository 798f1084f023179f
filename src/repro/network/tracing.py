"""Message tracing: capture and pretty-print the network's conversation.

Useful for the examples and for debugging protocol behavior; the trace shows
request/answer flows exactly as Section 3 narrates them (requests against the
arc orientation, answers along it, end-detection waves within strong
components).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.rulegoal import RuleGoalGraph
from .messages import (
    EndConfirmed,
    EndMessage,
    EndNegative,
    EndRequest,
    Message,
    PackagedTupleRequest,
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)
from .nodes import DRIVER_ID

__all__ = ["MessageTrace"]


@dataclass
class MessageTrace:
    """Collects delivered messages (optionally capped) for later display."""

    limit: Optional[int] = None
    include_protocol: bool = True
    messages: list[Message] = field(default_factory=list)
    dropped: int = 0

    def __call__(self, message: Message) -> None:
        """The fabric's trace hook: called with every delivered message."""
        if not self.include_protocol and isinstance(
            message, (EndRequest, EndNegative, EndConfirmed)
        ):
            return
        if self.limit is not None and len(self.messages) >= self.limit:
            self.dropped += 1
            return
        self.messages.append(message)

    # ------------------------------------------------------------------
    def _describe(self, message: Message, graph: Optional[RuleGoalGraph]) -> str:
        def name(node_id: int) -> str:
            if node_id == DRIVER_ID:
                return "driver"
            if graph is not None:
                return f"{node_id}:{graph.node_label(node_id)}"
            return str(node_id)

        src, dst = name(message.sender), name(message.receiver)
        if isinstance(message, RelationRequest):
            return f"{dst} <== relation request [{''.join(message.adornment)}] from {src}"
        if isinstance(message, TupleRequest):
            return f"{dst} <== tuple request {message.binding} (#{message.seq}) from {src}"
        if isinstance(message, PackagedTupleRequest):
            return (
                f"{dst} <== packaged request ({len(message.bindings)} bindings, "
                f"#{message.seq}) from {src}"
            )
        if isinstance(message, TupleMessage):
            return f"{src} ==> tuple {message.row} to {dst}"
        if isinstance(message, TupleSet):
            return f"{src} ==> tuple set ({len(message.rows)} rows) to {dst}"
        if isinstance(message, EndMessage):
            return f"{src} ==> end (upto #{message.upto}) to {dst}"
        if isinstance(message, EndRequest):
            return f"{src} ~~> end request (round {message.round_id}) to {dst}"
        if isinstance(message, EndNegative):
            return f"{src} ~~> end NEGATIVE (round {message.round_id}) to {dst}"
        if isinstance(message, EndConfirmed):
            return f"{src} ~~> end CONFIRMED (round {message.round_id}) to {dst}"
        return f"{src} -> {dst}: {message}"

    def render(self, graph: Optional[RuleGoalGraph] = None) -> str:
        """The trace as numbered lines (node labels resolved via ``graph``)."""
        lines = [
            f"{i:5d}  {self._describe(m, graph)}" for i, m in enumerate(self.messages, 1)
        ]
        if self.dropped:
            lines.append(f"   ...  ({self.dropped} further messages not recorded)")
        return "\n".join(lines)

    def activity_timeline(
        self,
        graph: Optional[RuleGoalGraph] = None,
        buckets: int = 60,
    ) -> str:
        """Per-node activity over (delivery-order) time, as text sparklines.

        Each row is one receiver; the trace is split into ``buckets`` equal
        slices and each cell shows how busy the node was in that slice
        (`` .:*#`` from idle to hot).  Protocol messages are drawn separately
        on the ``[protocol]`` row, making the end-request waves visible as
        bursts after the computation rows go quiet.
        """
        if not self.messages:
            return "(no messages recorded)"
        buckets = max(1, min(buckets, len(self.messages)))
        per_node: dict[int, list[int]] = {}
        protocol_row = [0] * buckets
        for position, message in enumerate(self.messages):
            bucket = position * buckets // len(self.messages)
            if isinstance(message, (EndRequest, EndNegative, EndConfirmed)):
                protocol_row[bucket] += 1
                continue
            row = per_node.setdefault(message.receiver, [0] * buckets)
            # Weight packaged answers by their rows so the sparkline shows
            # real activity, not just delivery counts.
            row[bucket] += len(message.rows) if isinstance(message, TupleSet) else 1

        peak = max(
            [max(row) for row in per_node.values()] + [max(protocol_row), 1]
        )
        glyphs = " .:*#"

        def spark(row: list[int]) -> str:
            out = []
            for count in row:
                level = 0 if count == 0 else 1 + (len(glyphs) - 2) * (count - 1) // peak
                out.append(glyphs[min(level, len(glyphs) - 1)])
            return "".join(out)

        def name(node_id: int) -> str:
            if node_id == DRIVER_ID:
                return "driver"
            if graph is not None:
                return graph.node_label(node_id)
            return f"node {node_id}"

        labels = {node_id: name(node_id) for node_id in per_node}
        width = max([len(l) for l in labels.values()] + [len("[protocol]")])
        lines = []
        for node_id in sorted(per_node):
            lines.append(f"{labels[node_id].ljust(width)} |{spark(per_node[node_id])}|")
        lines.append(f"{'[protocol]'.ljust(width)} |{spark(protocol_row)}|")
        lines.append(f"{''.ljust(width)}  time (message {1} .. {len(self.messages)})")
        return "\n".join(lines)
