"""Knobs of batched ordering and Merkle-amortized delivery crypto.

One frozen :class:`BatchingOptions` sizes the delivery batches (one
threshold signature over the Merkle root of a batch, per-update inclusion
proofs): how many client updates a pre-order batch may hold and how long
the origin waits before flushing a partial batch. Attach it to a
deployment via ``SpireOptions(batching=BatchingOptions(max_batch_size=16))``;
``batching=None`` keeps the Prime preset's sizes.

Determinism contract: batch boundaries are a function of the *agreed*
order (the certified pre-order request each update arrived in), never of
local clocks, so every correct replica signs the identical batch record
and shares combine. ``max_batch_size=1`` makes every batch a singleton.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["BatchingOptions"]


@dataclass(frozen=True)
class BatchingOptions:
    """Configuration of batched ordering + amortized delivery crypto."""

    #: max client updates per pre-order batch (flush when full)
    max_batch_size: int = 64
    #: max time a partial batch may wait before flushing; ``None``
    #: inherits the deployment's pre-order aggregation interval
    max_batch_delay_ms: Optional[float] = None

    def validate(self) -> "BatchingOptions":
        """Reject out-of-range knobs with actionable errors; chains."""
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1 (got {self.max_batch_size})"
            )
        if self.max_batch_delay_ms is not None and self.max_batch_delay_ms <= 0:
            raise ValueError(
                f"max_batch_delay_ms must be positive or None "
                f"(got {self.max_batch_delay_ms})"
            )
        return self

    # --- (de)serialization for scenario files -------------------------
    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "BatchingOptions":
        names = {f.name for f in dataclasses.fields(BatchingOptions)}
        return BatchingOptions(
            **{key: value for key, value in data.items() if key in names}
        )
