"""The message-passing network: messages, processes, the delivery loop, protocol."""

from .engine import MessagePassingEngine, QueryResult, evaluate
from .messages import (
    EndConfirmed,
    EndMessage,
    EndNegative,
    EndRequest,
    Message,
    RelationRequest,
    TupleMessage,
    TupleRequest,
)
from .nodes import (
    DRIVER_ID,
    CyclicNodeProcess,
    DriverProcess,
    EdbLeafProcess,
    GoalNodeProcess,
    NodeProcess,
    RuleNodeProcess,
)
from .shard_loop import DeliveryStats, LocalFabric, MessageBudgetExceeded
from .termination import TerminationProtocol

__all__ = [
    "evaluate", "MessagePassingEngine", "QueryResult",
    "Message", "RelationRequest", "TupleRequest", "TupleMessage", "EndMessage",
    "EndRequest", "EndNegative", "EndConfirmed",
    "NodeProcess", "GoalNodeProcess", "CyclicNodeProcess", "EdbLeafProcess",
    "RuleNodeProcess", "DriverProcess", "DRIVER_ID",
    "LocalFabric", "DeliveryStats", "MessageBudgetExceeded",
    "TerminationProtocol",
]
