"""Core bit-pushing protocols (the paper's primary contribution).

Public surface:

* encoding: :class:`FixedPointEncoder` and bit-level helpers;
* schedules & assignment: :class:`BitSamplingSchedule`,
  :func:`central_assignment`, :func:`local_assignment`;
* estimators: :class:`BasicBitPushing` (Algorithm 1),
  :class:`AdaptiveBitPushing` (Algorithm 2), :class:`VarianceEstimator`
  (Section 3.4), plus the :func:`estimate_mean` convenience;
* DP support: :func:`squash_bit_means` and friends (Section 3.3);
* operations: :class:`HighBitMonitor` for heavy-tail detection;
* scale: :class:`ClientBatch` and the chunk-streamed columnar kernels
  (:func:`elicit_values`, :func:`accumulate_bit_reports`,
  :func:`collect_client_reports`, tuned by ``REPRO_BATCH_CHUNK`` via
  :func:`batch_chunk_size`), all reporting through :func:`report_bits`.
"""

from repro.core.adaptive import AdaptiveBitPushing
from repro.core.aggregates import (
    GeometricMeanEstimate,
    GeometricMeanEstimator,
    MomentEstimate,
    MomentEstimator,
    kurtosis,
    skewness,
)
from repro.core.basic import BasicBitPushing, estimate_mean
from repro.core.client_plane import (
    ClientBatch,
    accumulate_bit_reports,
    batch_chunk_size,
    collect_client_reports,
    elicit_values,
    report_bits,
)
from repro.core.covariance import CovarianceEstimate, CovarianceEstimator
from repro.core.histogram import FederatedHistogram, HistogramEstimate
from repro.core.encoding import (
    FixedPointEncoder,
    bit_matrix,
    bit_means,
    extract_bit,
    mean_from_bit_means,
    required_bits,
)
from repro.core.monitor import HighBitMonitor, MonitorAlert
from repro.core.quantile import QuantileEstimate, QuantileEstimator
from repro.core.protocol import (
    BitPerturbation,
    bit_means_from_stats,
    collect_bit_reports,
    combine_round_stats,
    optimal_probabilities_bound,
    theoretical_variance,
)
from repro.core.results import MeanEstimate, RoundSummary, VarianceEstimate
from repro.core.sampling import (
    BitSamplingSchedule,
    apportion_counts,
    central_assignment,
    local_assignment,
    multi_bit_assignment,
)
from repro.core.squashing import (
    per_bit_squash_thresholds,
    rr_noise_std,
    squash_bit_means,
    threshold_from_noise_multiple,
)
from repro.core.variance import VarianceEstimator
from repro.core.vector import VectorMeanEstimate, VectorMeanEstimator

__all__ = [
    "AdaptiveBitPushing",
    "BasicBitPushing",
    "BitPerturbation",
    "BitSamplingSchedule",
    "ClientBatch",
    "CovarianceEstimate",
    "CovarianceEstimator",
    "FederatedHistogram",
    "FixedPointEncoder",
    "GeometricMeanEstimate",
    "GeometricMeanEstimator",
    "HighBitMonitor",
    "HistogramEstimate",
    "MeanEstimate",
    "MomentEstimate",
    "MomentEstimator",
    "QuantileEstimate",
    "QuantileEstimator",
    "MonitorAlert",
    "RoundSummary",
    "VarianceEstimate",
    "VarianceEstimator",
    "VectorMeanEstimate",
    "VectorMeanEstimator",
    "accumulate_bit_reports",
    "apportion_counts",
    "batch_chunk_size",
    "bit_matrix",
    "bit_means",
    "bit_means_from_stats",
    "central_assignment",
    "collect_bit_reports",
    "collect_client_reports",
    "combine_round_stats",
    "elicit_values",
    "estimate_mean",
    "extract_bit",
    "kurtosis",
    "local_assignment",
    "mean_from_bit_means",
    "multi_bit_assignment",
    "optimal_probabilities_bound",
    "per_bit_squash_thresholds",
    "report_bits",
    "required_bits",
    "rr_noise_std",
    "skewness",
    "squash_bit_means",
    "theoretical_variance",
    "threshold_from_noise_multiple",
]
