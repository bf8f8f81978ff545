"""Exact covering solver behind preemptive weighted flow time, plus oracles."""

__version__ = "0.1.0"
