"""The thread taxonomy of Figure 2.

The controller treats a thread according to what it knows about it:

=============================  ==================  ====================
proportion specified?          period specified    period unspecified
=============================  ==================  ====================
yes                            **real-time**       **aperiodic real-time**
no, progress metric available  **real-rate**       **real-rate**
no, no progress metric         **miscellaneous**   **miscellaneous**
=============================  ==================  ====================

A :class:`ThreadSpec` is the application-facing declaration (what the
thread tells the controller when it registers); :func:`classify` maps a
spec plus the registry's knowledge of progress metrics onto a
:class:`ThreadClass`.  Classification is re-evaluated at every
controller period because a thread may open or close symbiotic
interfaces at runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import ControllerError


class ThreadClass(enum.Enum):
    """The four controller cases of Figure 2."""

    REAL_TIME = "real_time"
    APERIODIC_REAL_TIME = "aperiodic_real_time"
    REAL_RATE = "real_rate"
    MISCELLANEOUS = "miscellaneous"


@dataclass
class ThreadSpec:
    """What an application declares about a thread when it registers.

    Attributes
    ----------
    proportion_ppt:
        Requested proportion (parts per thousand), or ``None`` to let
        the controller estimate it.
    period_us:
        Requested period in microseconds, or ``None`` to let the
        controller choose (the default or an adapted value).
    importance:
        Weight used by weighted-fair-share squishing.  Unlike priority,
        "a more-important job cannot starve a less important job";
        importance only biases how overload is shared.
    interactive:
        Marks an interactive job: its period is pinned to the
        human-perception default regardless of period adaptation.
    quality_callback:
        Optional callable invoked with a
        :class:`repro.core.errors.QualityException` when the controller
        cannot satisfy the thread under overload.
    """

    proportion_ppt: Optional[int] = None
    period_us: Optional[int] = None
    importance: float = 1.0
    interactive: bool = False
    quality_callback: Optional[Callable[[object], None]] = None

    def __post_init__(self) -> None:
        if self.proportion_ppt is not None and not 0 < self.proportion_ppt <= 1000:
            raise ControllerError(
                f"requested proportion must be in (0, 1000] ppt, got "
                f"{self.proportion_ppt}"
            )
        if self.period_us is not None and self.period_us <= 0:
            raise ControllerError(
                f"requested period must be positive, got {self.period_us}"
            )
        if self.importance <= 0:
            raise ControllerError(
                f"importance must be positive, got {self.importance}"
            )

    @property
    def specifies_proportion(self) -> bool:
        """Whether the application supplied a proportion."""
        return self.proportion_ppt is not None

    @property
    def specifies_period(self) -> bool:
        """Whether the application supplied a period."""
        return self.period_us is not None


def classify(spec: ThreadSpec, has_progress_metric: bool) -> ThreadClass:
    """Map a spec plus metric availability to a :class:`ThreadClass`.

    Follows Figure 2 exactly: a specified proportion makes the thread
    real-time (periodic or aperiodic depending on whether the period is
    also given); otherwise a progress metric makes it real-rate, and a
    thread that provides nothing at all is miscellaneous.
    """
    if spec.specifies_proportion:
        if spec.specifies_period:
            return ThreadClass.REAL_TIME
        return ThreadClass.APERIODIC_REAL_TIME
    if has_progress_metric:
        return ThreadClass.REAL_RATE
    return ThreadClass.MISCELLANEOUS


__all__ = ["ThreadClass", "ThreadSpec", "classify"]
