"""Job lifecycle: states, legal transitions, and the priority queue.

A job moves ``queued -> running -> done | failed | cancelled``; the
only other legal edge is ``queued -> cancelled`` (a cancel or a client
disconnect before any worker picked the job up).  Cancelling a
*running* job is cooperative: the worker checks ``cancel_requested``
when the compression returns and discards the result, so the state
machine's ``running -> cancelled`` edge is honored at completion time
(docs/SERVICE.md §5 documents the same automaton for clients).

The queue is an ``asyncio.PriorityQueue`` over ``(priority, seq)``
pairs: lower priority values dequeue first, ties dequeue in submission
order.  Only job ids travel through the queue — payloads stay in the
sqlite store so queued bytes never accumulate in process memory.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "STATE_NAMES",
    "TERMINAL_STATES",
    "LEGAL_TRANSITIONS",
    "Job",
    "JobQueue",
    "TransitionError",
]

# -- state codes (docs/SERVICE.md §5) ----------------------------------

QUEUED = 0
RUNNING = 1
DONE = 2
FAILED = 3
CANCELLED = 4

STATE_NAMES = {
    QUEUED: "queued",
    RUNNING: "running",
    DONE: "done",
    FAILED: "failed",
    CANCELLED: "cancelled",
}

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: The complete automaton; anything else is a bug, not a race.
LEGAL_TRANSITIONS = frozenset({
    (QUEUED, RUNNING),
    (QUEUED, CANCELLED),
    (RUNNING, DONE),
    (RUNNING, FAILED),
    (RUNNING, CANCELLED),
})


class TransitionError(RuntimeError):
    """An illegal job state transition was attempted."""


@dataclass
class Job:
    """In-memory view of one submitted job (payload lives in the store).

    ``done_event`` fires on entry into any terminal state — WAIT verbs
    block on it.  ``owner`` is an opaque connection
    token for non-detached jobs (a disconnect cancels them while they
    are still cancellable).
    """

    job_id: bytes
    priority: int
    scheme: str
    eb: float
    dtype: str
    shape: tuple[int, ...]
    detached: bool = False
    owner: object | None = None
    state: int = QUEUED
    error: str = ""
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    cancel_requested: bool = False
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def transition(self, new_state: int) -> None:
        """Move to ``new_state``, enforcing the documented automaton."""
        if (self.state, new_state) not in LEGAL_TRANSITIONS:
            raise TransitionError(
                f"job {self.job_id.hex()}: illegal transition "
                f"{STATE_NAMES[self.state]} -> {STATE_NAMES[new_state]}"
            )
        self.state = new_state
        if new_state in TERMINAL_STATES:
            self.done_event.set()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def state_name(self) -> str:
        return STATE_NAMES[self.state]


class JobQueue:
    """Priority queue of job ids with a hard depth bound.

    ``put_nowait`` raises ``asyncio.QueueFull`` at ``limit`` entries —
    the server maps that to ``ERR_QUEUE_FULL`` so memory stays bounded
    under submission bursts.  Cancelled jobs are *not* removed from the
    queue (that would be O(n) on every cancel); workers skip ids whose
    job is already terminal when they dequeue.
    """

    def __init__(self, limit: int = 256) -> None:
        if limit < 1:
            raise ValueError("queue limit must be positive")
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue(limit)
        self._seq = itertools.count()

    def put_nowait(self, job: Job) -> None:
        self._queue.put_nowait((job.priority, next(self._seq), job.job_id))

    async def get(self) -> bytes:
        """Dequeue the next job id (lowest priority value first)."""
        _, _, job_id = await self._queue.get()
        return job_id

    def qsize(self) -> int:
        return self._queue.qsize()
