"""Small measurement helpers: medians, supported tails, process memory."""

from __future__ import annotations

import statistics

__all__ = ["median_ms", "tail_ms", "peak_rss_mb", "mean"]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def tail_ms(seconds: list[float]) -> tuple[float, int]:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it.

    Returns ``(latency in ms, percentile)``; ``(0.0, 0)`` when even p75 is
    not supported (fewer than 40 samples).
    """
    ordered = sorted(seconds)
    for percentile in (99, 95, 90, 75):
        beyond = len(ordered) * (100 - percentile) // 100
        if beyond >= 10:
            return ordered[len(ordered) - beyond - 1] * 1000.0, percentile
    return 0.0, 0


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a live process, in MiB (read before it is reaped)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
