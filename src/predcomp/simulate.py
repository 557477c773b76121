"""Synthetic wear streams and step scenarios.

The wear generator draws inhomogeneous Poisson bin counts under the rate

    f(t) = a * lam * exp(-lam * t) + c + d * 1[t >= t2] * (t - t2)

i.e. an exponential run-in decaying onto a constant level, plus a linearly
diverging component from ``t2`` on.  Observation i (0-based) is the count
over the continuous interval [i, i+1), whose expectation has a closed form.

The run-in end t1 is derived, not configured: the first integer time at
which the run-in term has decayed to ``decay_cutoff`` (default 5%) of its
initial size.  Generated series carry phase labels E (run-in), K
(constant) and A (divergent) with change labels exactly at t1 and t2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import CpLabel, LabeledSeries
from .seeding import spawn_rng


@dataclass(frozen=True)
class WearIntensity:
    """Rate function parameters; all components are non-negative.

    Args:
        a: run-in scale (a = 0 disables the run-in phase).
        lam: run-in decay rate, positive.
        c: constant base rate.
        d: divergence slope (d = 0 disables the divergent phase).
        t2: divergence onset, integer time on the continuous axis.
        decay_cutoff: run-in fraction defining t1.
    """

    a: float = 0.0
    lam: float = 1.0
    c: float = 0.0
    d: float = 0.0
    t2: int = 0
    decay_cutoff: float = 0.05

    def __post_init__(self) -> None:
        if self.a < 0 or self.c < 0 or self.d < 0:
            raise ValueError("a, c, d must be non-negative")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not 0 < self.decay_cutoff < 1:
            raise ValueError("decay_cutoff must be in (0, 1)")
        if self.d > 0 and (self.t2 != int(self.t2) or self.t2 < 0):
            raise ValueError("t2 must be a non-negative integer when d > 0")
        if self.a > 0 and self.d > 0 and self.t1 >= self.t2:
            raise ValueError(f"run-in ends at t1={self.t1}, at or after divergence onset t2={self.t2}")

    @property
    def t1(self) -> int:
        """First integer time with run-in <= decay_cutoff of its initial value."""
        if self.a == 0:
            return 0
        return math.ceil(math.log(1.0 / self.decay_cutoff) / self.lam - 1e-12)

    def bin_means(self, n: int) -> np.ndarray:
        """Exact integral of f over [i, i+1) for i = 0..n-1.

        An overflow is no error: a huge ``lam`` has decayed at once, the
        branch of a huge ``t2`` that overflows is not taken, and an infinite
        mean is what the config refuses.
        """
        i = np.arange(n, dtype=float)
        with np.errstate(over="ignore"):
            means = self.a * (np.exp(-self.lam * i) - np.exp(-self.lam * (i + 1))) + self.c
            if self.d > 0:
                # antiderivative of the divergent component: (u - t2)^2 / 2 past t2
                g = lambda u: np.where(u > self.t2, 0.5 * (u - self.t2) ** 2, 0.0)
                means = means + self.d * (g(i + 1) - g(i))
        return means

    def cp_labels(self, n: int) -> list[CpLabel]:
        labels = []
        if self.a > 0 and 0 < self.t1 < n:
            labels.append(CpLabel(self.t1, "E", "K"))
        if self.d > 0 and 0 <= self.t2 < n:
            labels.append(CpLabel(int(self.t2), "K", "A"))
        return labels


def sample_wear_series(intensity: WearIntensity, n: int, seed: int,
                       stream: int | str = 0, name: str = "",
                       scale: float = 1.0) -> LabeledSeries:
    """Poisson counts under ``intensity``; labels at the analytic t1 and t2.

    ``scale`` multiplies the noise amplitude: counts are drawn at
    intensity/scale^2 and rescaled by scale^2, keeping the expected trend
    fixed while the variance grows with scale^2 (a config varies the noise
    through a ``wear`` source's ``scale``).  Scale 0 gives the noiseless
    trend.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if scale < 0:
        raise ValueError("scale must be non-negative")
    means = intensity.bin_means(n)
    rng = spawn_rng(seed, "wear", stream)
    if scale == 0:
        counts = means.copy()
    else:
        counts = (scale ** 2) * rng.poisson(means / scale ** 2).astype(float)
    return LabeledSeries(counts, intensity.cp_labels(n), name=name)


def sample_step_series(pre_mean: float, post_mean: float, sigma: float,
                       cp_at: int, n: int, seed: int,
                       stream: int | str = 0, name: str = "") -> LabeledSeries:
    """Gaussian stream with a mean step.

    ``cp_at`` is the 1-based time of the first shifted observation, so the
    stored label index is ``cp_at - 1`` and a written CSV shows the change
    at time ``cp_at``.
    """
    if not 1 <= cp_at <= n:
        raise ValueError("cp_at must lie inside the series (1-based)")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    rng = spawn_rng(seed, "step", stream)
    values = rng.normal(0.0, 1.0, size=n) * sigma
    values[:cp_at - 1] += pre_mean
    values[cp_at - 1:] += post_mean
    return LabeledSeries(values, [CpLabel(cp_at - 1, "K", "A")], name=name)

