"""In-process message queue.

The paper's framework components (Dashboard, Scheduler, Controller,
Telemetry, Hecate, PolKA services — Fig. 3) talk over a message-queue
system; router reconfiguration requests in particular travel as queue
messages that a service applies to freeRtr (Sec. V.C.1).  This module is
the deterministic, dependency-free stand-in: topic-based publish/
subscribe with synchronous delivery and a full audit log.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, MutableSequence, Optional

__all__ = ["Message", "MessageBus"]


@dataclass(frozen=True)
class Message:
    """One bus message: topic, payload dict, monotonic id."""

    topic: str
    payload: Dict[str, Any]
    msg_id: int


class MessageBus:
    """Topic-based pub/sub with synchronous, ordered delivery.

    Handlers run inline at :meth:`request` time in subscription order —
    deterministic by construction, which keeps simulation runs and tests
    reproducible.  Every message is appended to :attr:`log` so experiments
    can audit the exact control-plane conversation (the sequence of
    Fig. 4).

    ``log_limit`` bounds the audit log to the most recent N messages
    (a deque).  Finite scenarios keep the default unbounded list, but a
    long-lived service (see :mod:`repro.framework.service_mode`) placing
    hundreds of placements per second would otherwise retain every
    control message ever exchanged — the log must be a window, not a
    leak.  Message ids keep counting monotonically either way.
    """

    def __init__(self, log_limit: Optional[int] = None) -> None:
        if log_limit is not None and log_limit < 1:
            raise ValueError(f"log_limit must be >= 1, got {log_limit}")
        self._subscribers: Dict[str, List[Callable[[Message], None]]] = {}
        self._ids = itertools.count()
        self.log_limit = log_limit
        self.log: MutableSequence[Message] = (
            [] if log_limit is None else deque(maxlen=log_limit)
        )

    def subscribe(self, topic: str, handler: Callable[[Message], None]) -> None:
        self._subscribers.setdefault(topic, []).append(handler)

    def request(self, topic: str, **payload: Any) -> List[Any]:
        """Publish and collect handler return values (simple RPC).

        Handlers that return ``None`` contribute nothing; others are
        gathered in subscription order.
        """
        message = Message(topic=topic, payload=dict(payload), msg_id=next(self._ids))
        self.log.append(message)
        replies = []
        for handler in list(self._subscribers.get(topic, [])):
            result = handler(message)
            if result is not None:
                replies.append(result)
        return replies

    def topics(self) -> List[str]:
        return sorted(self._subscribers)

    def history(self, topic: Optional[str] = None) -> List[Message]:
        if topic is None:
            return list(self.log)
        return [m for m in self.log if m.topic == topic]
