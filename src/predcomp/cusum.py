"""Decision-interval CUSUM with a change locator.

The upward chart tracks S_j = max(0, S_{j-1} + x_j - target_j - k) and
alarms when S_j exceeds the decision interval.  The located change point
is the index after the last zero of S, as the caller numbers the steps.
The downward chart (min form, allowance added) runs for a ``pnc`` detector
with ``direction: down``.  After an alarm a caller starts a fresh chart.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CusumChart:
    """One-sided CUSUM chart consuming (observation, target) pairs.

    Args:
        threshold: decision interval, must be positive.
        allowance: slack k subtracted from (added to, downward) each
            deviation; default half of the unit step.
        direction: "up" or "down".
        start: index of the first observation the chart will see.  The
            caller passes each index to ``step``; ``located()`` returns the
            index after the last zero of the statistic, so an alarm on the
            very first step locates the change at ``start``.
    """

    threshold: float
    allowance: float = 0.5
    direction: str = "up"
    start: int = 0

    def __post_init__(self) -> None:
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if not self.allowance >= 0:
            raise ValueError("allowance must be non-negative")
        if self.direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        self.value = 0.0
        self._last_zero = self.start - 1

    def step(self, i: int, x: float, target: float) -> bool:
        """Consume observation ``x`` at index ``i`` against its target; True on alarm."""
        if self.direction == "up":
            self.value = max(0.0, self.value + x - target - self.allowance)
            if self.value == 0.0:
                self._last_zero = i
            return self.value > self.threshold
        self.value = min(0.0, self.value + x - target + self.allowance)
        if self.value == 0.0:
            self._last_zero = i
        return self.value < -self.threshold

    def located(self) -> int:
        """Estimated first out-of-control index (last zero + 1)."""
        return self._last_zero + 1

