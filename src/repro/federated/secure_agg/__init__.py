"""Secure aggregation substrate: prime field, Shamir sharing, ring masking, protocol, shard tree."""

from repro.federated.secure_agg.field import DEFAULT_PRIME, PrimeField
from repro.federated.secure_agg.hierarchy import (
    HierarchicalResult,
    ShardOutcome,
    ShardTask,
    aggregate_shards,
    hierarchical_secure_sum,
    shard_bounds,
)
from repro.federated.secure_agg.masking import (
    apply_masks,
    expand_mask,
    expand_masks,
    mask_ring,
    pairwise_mask_sign,
    philox4x64,
)
from repro.federated.secure_agg.protocol import (
    SecureAggregationSession,
    default_threshold,
    secure_sum,
)
from repro.federated.secure_agg.shamir import (
    Share,
    reconstruct_secret,
    reconstruct_secret_sets,
    reconstruct_secrets,
    split_secret,
    split_secret_sets,
    split_secrets,
)

__all__ = [
    "DEFAULT_PRIME",
    "HierarchicalResult",
    "PrimeField",
    "SecureAggregationSession",
    "Share",
    "ShardOutcome",
    "ShardTask",
    "aggregate_shards",
    "apply_masks",
    "default_threshold",
    "expand_mask",
    "expand_masks",
    "hierarchical_secure_sum",
    "mask_ring",
    "pairwise_mask_sign",
    "philox4x64",
    "reconstruct_secret",
    "reconstruct_secret_sets",
    "reconstruct_secrets",
    "secure_sum",
    "shard_bounds",
    "split_secret",
    "split_secret_sets",
    "split_secrets",
]
