"""Errors raised by the fault-injection subsystem."""

from __future__ import annotations


class FaultError(Exception):
    """Base class for fault-injection errors."""


class FaultPlanError(FaultError):
    """A fault plan is malformed."""


class FaultInjectionError(FaultError):
    """A fault could not be injected against the running simulation."""


__all__ = ["FaultError", "FaultInjectionError", "FaultPlanError"]
