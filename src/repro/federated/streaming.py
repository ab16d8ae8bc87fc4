"""Asynchronous (streaming) aggregation of one-bit reports.

A selling point of bit-pushing over batched secure aggregation is that it
"naturally accommodates asynchronous updates" (paper Section 1.1): per-bit
sums and counts are plain counters, so the server can fold in reports as
devices come online and publish an estimate at any moment -- no batching
barrier, no round boundary.

:class:`StreamingAggregator` is that server-side accumulator.  Reports
arrive individually (or in bursts) in any order; ``estimate()`` snapshots
the current state into the usual :class:`~repro.core.results.MeanEstimate`.
A minimum-evidence guard refuses estimates from too few reports, mirroring
the deployment's minimum-cohort rule.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import BitPerturbation, decode_estimate, round_summary
from repro.core.results import MeanEstimate
from repro.exceptions import CohortTooSmallError, ConfigurationError, ProtocolError
from repro.federated.client import BitReport
from repro.observability import get_metrics, get_tracer

__all__ = ["StreamingAggregator"]


class StreamingAggregator:
    """Fold one-bit reports into per-bit counters, estimate at any time.

    Parameters
    ----------
    encoder:
        Fixed-point encoding the reports refer to (fixes the bit width and
        the decode transform).
    perturbation:
        The local DP mechanism clients applied, if any -- needed so the
        snapshot can debias the accumulated report means.
    min_reports:
        ``estimate()`` raises :class:`CohortTooSmallError` below this many
        accumulated reports (privacy floor + statistical sanity).
    target_reports:
        Evidence the reporting period *plans* for.  Snapshots taken between
        ``min_reports`` and this target still succeed but are flagged
        degraded (``metadata["degraded"]``, with the achieved
        ``metadata["evidence_ratio"]``) -- the streaming counterpart of the
        round loop's quorum degradation.  ``None`` disables the check.

    Each ``estimate()`` snapshot runs under a ``streaming.estimate`` span
    (``reports``, ``n_bits``, ``estimate``, and ``degraded`` when flagged), so a
    health monitor on the tracer takes every successful snapshot as a sample
    and under-evidenced snapshot streaks trip the quorum-degradation rule
    just like degraded rounds do.

    Examples
    --------
    >>> from repro.federated import BitReport
    >>> agg = StreamingAggregator(FixedPointEncoder.for_integers(4))
    >>> for client in range(100):
    ...     agg.submit(BitReport(client_id=client, bit_index=client % 4,
    ...                          bit=(5 >> (client % 4)) & 1))
    >>> agg.estimate().value       # every client holds 5 = 0b0101
    5.0
    """

    def __init__(
        self,
        encoder: FixedPointEncoder,
        perturbation: BitPerturbation | None = None,
        min_reports: int = 1,
        target_reports: int | None = None,
    ) -> None:
        if min_reports < 1:
            raise ConfigurationError(f"min_reports must be >= 1, got {min_reports}")
        if target_reports is not None and target_reports < min_reports:
            raise ConfigurationError(
                f"target_reports ({target_reports}) must be >= min_reports ({min_reports})"
            )
        self.encoder = encoder
        self.perturbation = perturbation
        self.min_reports = min_reports
        self.target_reports = target_reports
        self._sums = np.zeros(encoder.n_bits, dtype=np.float64)
        self._counts = np.zeros(encoder.n_bits, dtype=np.int64)
        self._clients_seen: set[int] = set()

    # ------------------------------------------------------------------
    def submit(self, report: BitReport) -> None:
        """Fold in one report (order-independent, idempotence NOT assumed --
        duplicates from the same client are rejected to keep the
        one-bit-per-value promise)."""
        if not 0 <= report.bit_index < self.encoder.n_bits:
            raise ProtocolError(
                f"bit index {report.bit_index} outside [0, {self.encoder.n_bits})"
            )
        if report.bit not in (0, 1):
            raise ProtocolError(f"report bit must be 0 or 1, got {report.bit}")
        if report.client_id in self._clients_seen:
            raise ProtocolError(
                f"client {report.client_id} already reported in this aggregation"
            )
        self._clients_seen.add(report.client_id)
        self._sums[report.bit_index] += report.bit
        self._counts[report.bit_index] += 1
        get_metrics().counter("streaming_reports_total").inc()

    def submit_many(self, reports: Iterable[BitReport]) -> int:
        """Fold in a burst of reports; returns how many were accepted."""
        accepted = 0
        for report in reports:
            self.submit(report)
            accepted += 1
        return accepted

    # ------------------------------------------------------------------
    def estimate(self) -> MeanEstimate:
        """Snapshot the current counters into a mean estimate.

        Non-destructive: accumulation continues afterwards, and later
        snapshots incorporate everything received so far.
        """
        metrics = get_metrics()
        total = int(self._counts.sum())
        with get_tracer().span(
            "streaming.estimate", {"reports": total, "n_bits": self.encoder.n_bits}
        ) as span:
            if total < self.min_reports:
                raise CohortTooSmallError(
                    f"only {total} reports accumulated; minimum is {self.min_reports}"
                )
            counts = self._counts.copy()
            summary = round_summary(
                self._sums, counts, np.where(counts > 0, counts / total, 0.0), total,
                self.perturbation,
            )
            metadata: dict = {"ldp": self.perturbation is not None, "streaming": True}
            if self.target_reports is not None:
                metadata["degraded"] = total < self.target_reports
                metadata["evidence_ratio"] = total / self.target_reports
                if metadata["degraded"]:
                    span.set_attribute("degraded", True)
                    metrics.counter("streaming_degraded_snapshots_total").inc()
            metrics.counter("streaming_snapshots_total").inc()
            estimate = decode_estimate(
                self.encoder,
                summary.bit_means,
                counts,
                perturbation=self.perturbation,
                n_clients=total,
                method="streaming",
                rounds=(summary,),
                metadata=metadata,
            )
            span.set_attribute("estimate", estimate.value)
            return estimate

    # ------------------------------------------------------------------
    @property
    def reports_received(self) -> int:
        return int(self._counts.sum())

    @property
    def clients_seen(self) -> int:
        return len(self._clients_seen)

    def reset(self) -> None:
        """Clear all counters (e.g., at a reporting-period boundary)."""
        self._sums[:] = 0.0
        self._counts[:] = 0
        self._clients_seen.clear()
