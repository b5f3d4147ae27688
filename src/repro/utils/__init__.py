"""Shared utilities: RNG management, the lazy-greedy heap, crash-safe writes,
peak-RSS probes and input validation."""

from repro.utils.rng import RandomSource, as_rng, spawn_rngs
from repro.utils.lazy_heap import BatchedLazyGreedy
from repro.utils.resources import peak_rss_bytes, peak_rss_mib
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_open_interval,
)

__all__ = [
    "RandomSource",
    "as_rng",
    "spawn_rngs",
    "BatchedLazyGreedy",
    "peak_rss_bytes",
    "peak_rss_mib",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_open_interval",
]
