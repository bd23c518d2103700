"""Exception hierarchy for the simulation substrate."""


class SimulationError(Exception):
    """Base class for all errors raised by the simulation substrate."""


class ThreadStateError(SimulationError):
    """A thread was asked to perform an operation invalid in its state.

    Examples: running an exited thread, blocking a thread that is not
    running, or yielding a request from a thread that already exited.
    """


class DeadlockError(SimulationError):
    """All threads are blocked and no future event can unblock them.

    The kernel raises this instead of silently fast-forwarding to the
    end of the simulation so that workload bugs (e.g. a consumer asking
    for a block larger than the producer ever writes) surface loudly.
    """


class ChannelError(SimulationError):
    """Invalid operation on an IPC channel (e.g. oversized put)."""


class SchedulerError(SimulationError):
    """Invalid scheduler configuration or use (e.g. unknown thread)."""
