"""A coarse network model for report delivery.

Federated data collection trades latency for privacy (Section 4.3 "Latency
and number of rounds"): devices check in sporadically, rounds take minutes,
and reports can be lost or arrive after the server's collection deadline.
This model captures exactly those effects -- independent loss, lognormal
per-report latency, and an optional deadline -- which is all the round
simulator needs to reproduce the paper's robustness observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.observability import get_metrics, get_tracer
from repro.rng import ensure_rng

__all__ = ["DeliveryOutcome", "NetworkModel"]


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result of transmitting one batch of reports.

    Empty-batch semantics (nothing was handed to the network): the batch is
    vacuously fully delivered -- ``delivery_rate`` is ``1.0`` and
    ``round_duration_s`` is ``0.0``.  This keeps "nothing to send"
    distinguishable from "everything sent was lost" (``delivery_rate 0.0``
    on a non-empty batch).
    """

    delivered: np.ndarray
    latencies_s: np.ndarray

    @property
    def delivery_rate(self) -> float:
        return float(self.delivered.mean()) if self.delivered.size else 1.0

    @property
    def round_duration_s(self) -> float:
        """Wall-clock time until the last delivered report arrived.

        ``0.0`` when nothing was delivered (including the empty batch): no
        report ever arrived, so the server's collection window closed
        immediately at its deadline-independent floor.
        """
        arrived = self.latencies_s[self.delivered]
        return float(arrived.max()) if arrived.size else 0.0


@dataclass(frozen=True)
class NetworkModel:
    """Independent loss + lognormal latency + optional collection deadline.

    Parameters
    ----------
    loss_rate:
        Probability a report never arrives.
    latency_median_s:
        Median report latency in seconds ("a matter of minutes" per the
        paper; default 90 s).
    latency_sigma:
        Lognormal shape parameter (spread of the latency tail).
    deadline_s:
        Server stops collecting after this long; late reports count as lost.
        ``None`` waits forever.
    """

    loss_rate: float = 0.0
    latency_median_s: float = 90.0
    latency_sigma: float = 0.6
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.latency_median_s <= 0:
            raise ConfigurationError(f"latency_median_s must be positive, got {self.latency_median_s}")
        if self.latency_sigma <= 0:
            raise ConfigurationError(f"latency_sigma must be positive, got {self.latency_sigma}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(f"deadline_s must be positive, got {self.deadline_s}")

    def draw(self, n_reports: int, gen: np.random.Generator) -> DeliveryOutcome:
        """:meth:`transmit`'s draws (latencies, then losses), recording nothing."""
        latencies = gen.lognormal(np.log(self.latency_median_s), self.latency_sigma, n_reports)
        delivered = gen.random(n_reports) >= self.loss_rate
        if self.deadline_s is not None:
            delivered &= latencies <= self.deadline_s
        return DeliveryOutcome(delivered=delivered, latencies_s=latencies)

    def transmit(
        self, n_reports: int, rng: np.random.Generator | int | None = None
    ) -> DeliveryOutcome:
        """Simulate delivery of ``n_reports`` independent reports, traced and counted."""
        if n_reports < 0:
            raise ConfigurationError(f"n_reports must be >= 0, got {n_reports}")
        gen = ensure_rng(rng)
        with get_tracer().span(
            "network.transmit", {"n_reports": n_reports, "loss_rate": self.loss_rate}
        ) as span:
            outcome = self.draw(n_reports, gen)
            delivered = outcome.delivered
            span.set_attribute("delivered", int(delivered.sum()))
            span.set_attribute("round_duration_s", outcome.round_duration_s)
        metrics = get_metrics()
        if metrics.enabled:
            n_delivered = int(delivered.sum())
            metrics.counter("network_reports_sent_total").inc(n_reports)
            metrics.counter("network_reports_lost_total").inc(n_reports - n_delivered)
            metrics.histogram("network_latency_s").observe_array(outcome.latencies_s[delivered])
        return outcome
