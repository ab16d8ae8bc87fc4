"""Recurring monitoring campaigns: queries + drift detection over rounds.

The deployment (Section 4.3) does not run one-off queries: metrics are
aggregated daily for months, with the occupied bit range watched for heavy
tails and regressions.  :class:`MonitoringCampaign` packages that loop --
run the configured federated query each round, feed the resulting bit means
to a :class:`~repro.core.monitor.HighBitMonitor`, and keep the history an
operator dashboard would chart.  Each round runs under one ``campaign.round``
span, which the health monitor, the flight recorder and any other tracer
exporter read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.monitor import HighBitMonitor, MonitorAlert
from repro.core.results import MeanEstimate
from repro.federated.client import ClientDevice
from repro.federated.server import FederatedMeanQuery
from repro.observability import get_tracer
from repro.rng import ensure_rng

__all__ = ["CampaignRecord", "MonitoringCampaign"]


@dataclass(frozen=True)
class CampaignRecord:
    """One campaign round: the estimate plus any drift alert."""

    round_index: int
    estimate: MeanEstimate
    alert: MonitorAlert | None
    metadata: dict[str, Any] = field(default_factory=dict)


class MonitoringCampaign:
    """Run a federated query every round and watch for distribution shifts.

    Parameters
    ----------
    query:
        The configured :class:`FederatedMeanQuery` to repeat each round.
    monitor:
        Drift detector fed with each round's estimated bit means; defaults
        to a 3-round window, 2-bit shift threshold, with the noise floor set
        just above zero.

    :meth:`run_round` opens the round's ``campaign.round`` span around the
    query.  Once the round completes, the span carries ``round_index``,
    ``estimate``, ``n_clients``, ``alert`` (the drift alert's message, or
    ``None``), ``round_attempts``, ``degraded`` and ``backoff_s``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import FixedPointEncoder
    >>> rng = np.random.default_rng(0)
    >>> query = FederatedMeanQuery(FixedPointEncoder.for_integers(12))
    >>> campaign = MonitoringCampaign(query)
    >>> for day in range(4):
    ...     scale = 100.0 if day < 3 else 1500.0
    ...     pop = [ClientDevice(i, [v]) for i, v in
    ...            enumerate(np.clip(rng.normal(scale, 20, 2000), 0, None))]
    ...     record = campaign.run_round(pop, rng)
    >>> record.alert is not None
    True
    """

    def __init__(
        self,
        query: FederatedMeanQuery,
        monitor: HighBitMonitor | None = None,
    ) -> None:
        self.query = query
        self.monitor = monitor or HighBitMonitor(
            noise_floor=0.01, shift_threshold=2, window=3
        )
        self._records: list[CampaignRecord] = []

    # ------------------------------------------------------------------
    def run_round(
        self,
        population: Sequence[ClientDevice],
        rng: np.random.Generator | int | None = None,
        **query_kwargs: Any,
    ) -> CampaignRecord:
        """Execute one round under its ``campaign.round`` span: query, monitor, record."""
        gen = ensure_rng(rng)
        round_index = len(self._records)
        with get_tracer().span("campaign.round", {"round_index": round_index}) as span:
            estimate = self.query.run(population, rng=gen, **query_kwargs)
            alert = self.monitor.update(estimate.bit_means)
            record = CampaignRecord(
                round_index=round_index,
                estimate=estimate,
                alert=alert,
                metadata={
                    "dropout_rate_estimate": self.query.dropout_tracker.rate,
                    "upper_bound": self.monitor.current_upper_bound,
                    # Robustness accounting: how hard the query had to fight.
                    "round_attempts": estimate.metadata.get("round_attempts", []),
                    "degraded": any(estimate.metadata.get("degraded_rounds", [])),
                    "backoff_s": sum(estimate.metadata.get("backoff_s", [])),
                },
            )
            span.set_attribute("estimate", float(estimate.value))
            span.set_attribute("n_clients", int(estimate.n_clients))
            span.set_attribute("alert", alert.message if alert is not None else None)
            for key in ("round_attempts", "degraded", "backoff_s"):
                span.set_attribute(key, record.metadata[key])
        self._records.append(record)
        return record

    # ------------------------------------------------------------------
    @property
    def records(self) -> tuple[CampaignRecord, ...]:
        return tuple(self._records)

    @property
    def alerts(self) -> tuple[MonitorAlert, ...]:
        return tuple(r.alert for r in self._records if r.alert is not None)

    @property
    def estimates(self) -> list[float]:
        """Point estimates in round order (for dashboards/tests)."""
        return [r.estimate.value for r in self._records]

    @property
    def rounds_run(self) -> int:
        return len(self._records)

    @property
    def rounds_degraded(self) -> int:
        """Campaign rounds that completed under quorum degradation."""
        return sum(1 for r in self._records if r.metadata.get("degraded"))

    @property
    def total_attempts(self) -> int:
        """Round attempts across the campaign, retries included."""
        return sum(sum(r.metadata.get("round_attempts", [1])) for r in self._records)
