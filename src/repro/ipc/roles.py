"""Producer/consumer roles.

The paper's progress-pressure formula (Figure 3) multiplies a queue's
fill-level deviation by ``R``, which is +1 for a consumer of the queue
and -1 for a producer: a full queue means the consumer should speed up
(positive pressure) and the producer should slow down (negative
pressure).
"""

from __future__ import annotations

import enum


class Role(enum.Enum):
    """A thread's relationship to a symbiotic channel."""

    PRODUCER = "producer"
    CONSUMER = "consumer"

    @property
    def sign(self) -> int:
        """The R factor of Figure 3: -1 for producers, +1 for consumers."""
        return -1 if self is Role.PRODUCER else 1


__all__ = ["Role"]
